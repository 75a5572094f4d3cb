"""Acceptance gate: one test and one verdict line per shipped criterion.

Each test computes its full criterion, records a criterion-k PASS/FAIL line
for the terminal summary (see conftest), and only then asserts, so a red
criterion still leaves a readable one-line verdict.  Tolerances and runtime
budgets are pinned here as constants.
"""

import math
import time

import numpy as np

from randblock import model
from randblock.furstenberg import (
    lie_closure_dimension,
    zero_energy_reducibility_certificate,
)
from randblock.localization import ensemble_correlator, fit_decay
from randblock.lyapunov import (
    BlockEnsemble,
    lyapunov_spectrum,
    thouless_check,
    zero_energy_aux_exponent,
    zero_energy_closed_form,
)
from randblock.model import (
    BlockJacobiMatrix,
    ModelParams,
    SingleSiteDistribution,
    assemble_block_jacobi,
    assemble_hat_form,
    random_instance,
    realization_rng,
    sample_disorder,
)
from randblock.spectral import (
    IntervalUnion,
    almost_sure_spectrum_approx,
    check_gap,
    eigensolve,
    periodic_spectrum,
)
from randblock.transfer import GreenEvaluator, charpoly_identity_check, fundamental_solutions, wronskian
from randblock.xy_oracle import (
    build_hamiltonian,
    build_jordan_wigner,
    lr_commutator_stats,
    verify_free_fermion_spectrum,
    verify_heisenberg_identity,
    verify_quadratic_form,
)

from conftest import record_criterion

TWO_POINT = SingleSiteDistribution.two_point(0.0, 1.0, 0.5)

BAND_ENDPOINT_TOL = 1e-6
BAND_UNION_TOL = 1e-3
BAND_COVER_TOL = 1e-2
GREEN_TOL = 1e-8
WRONSKIAN_TOL = 1e-10
CHARPOLY_TOL = 1e-8
THOULESS_TOL = 5e-2
ZERO_ENERGY_SE = 3.0
PAIRING_ABS_TOL = 1e-4
PAIRING_SE_FRACTION = 0.1
FULL_RANK = 10
CAR_TOL = 1e-12
QUADRATIC_TOL = 1e-10
HEISENBERG_TOL = 1e-8
FREE_FERMION_TOL = 1e-8


def finish(number, checks, budget, t0):
    """Record the verdict line, then assert every sub-check and the budget."""
    elapsed = time.monotonic() - t0
    ok = all(passed for _, passed in checks) and elapsed < budget
    detail = "; ".join(name for name, _ in checks) + f"; {elapsed:.1f}s/{budget:.0f}s"
    record_criterion(number, ok, detail)
    for name, passed in checks:
        assert passed, f"criterion {number}: {name}"
    assert elapsed < budget, f"criterion {number}: runtime {elapsed:.1f}s over {budget:.0f}s"


def test_criterion_1_band_edges():
    t0 = time.monotonic()
    inner = math.sqrt(2.0 / 3.0)

    const = periodic_spectrum([1.0], 0.5)
    endpoint_dev = float(
        np.max(np.abs(const.intervals.ravel() - np.array([-3.0, -inner, inner, 3.0])))
    )

    union = periodic_spectrum([-1.0], 0.5)
    for c in np.linspace(-1.0, 1.0, 41)[1:]:
        union = union.union(periodic_spectrum([float(c)], 0.5))
    target = IntervalUnion.from_intervals([(-3.0, -inner), (inner, 3.0)])
    union_haus = union.hausdorff(target)

    # nu = (-1, 1), gamma = 1/2, c = cos(theta): the 4x4 Bloch symbol obeys
    # E^4 - (7+3c) E^2 + (41+50c+9c^2)/4 = 0, discriminant 8(1-c), so
    # E^2 = [(7+3c) +- 2 sqrt(2(1-c))]/2. The upper branch peaks at c = 7/9
    # with E^2 = 16/3 and the lower one reaches 0 at c = -1: the bands
    # [-4/sqrt3, -2], [-sqrt5, 0], [0, sqrt5], [2, 4/sqrt3] fill
    # [-4/sqrt3, 4/sqrt3]. (sqrt5 is only where the bands touch at c = 1,
    # and the outer edge of the same potential at gamma = 0.)
    alternating = periodic_spectrum([-1.0, 1.0], 0.5)
    alt_edge = 4.0 / math.sqrt(3.0)
    alt_haus = alternating.hausdorff(IntervalUnion.from_intervals([(-alt_edge, alt_edge)]))

    approx = almost_sure_spectrum_approx(
        SingleSiteDistribution.uniform(-1.0, 1.0), 0.5, max_period=2, samples_per_period=41
    )
    covered = approx.covers(-3.0, 3.0, BAND_COVER_TOL)

    checks = [
        (f"constant-field endpoints dev {endpoint_dev:.1e}", endpoint_dev <= BAND_ENDPOINT_TOL),
        (f"41-point union hausdorff {union_haus:.1e}", union_haus <= BAND_UNION_TOL),
        (f"alternating vs [-4/sqrt3,4/sqrt3] hausdorff {alt_haus:.1e}", alt_haus <= BAND_UNION_TOL),
        (f"period<=2 covers [-3,3] at {BAND_COVER_TOL}", covered),
    ]
    finish(1, checks, budget=60.0, t0=t0)


def test_criterion_2_green_wronskian_charpoly(monkeypatch):
    t0 = time.monotonic()
    # milder blocks than the CLI's random chains: entries in [-1, 1], |det S| >= 0.5
    monkeypatch.setattr(model, "_POTENTIAL_SCALE", 1.0)
    monkeypatch.setattr(model, "_HOPPING_SCALE", 1.0)
    monkeypatch.setattr(model, "_MIN_HOPPING_DET", 0.5)
    rng = np.random.default_rng(42)
    z = 0.7 + 0.3j
    E = 0.37 + 0.2j
    worst_green = worst_wron = worst_char = 0.0
    for i in range(100):
        ell = 1 + i % 3
        L = int(rng.integers(5, 51))
        M = random_instance(rng, ell, L)
        resolvent = np.linalg.inv(M.dense() - z * np.eye(ell * L))
        scale = float(np.linalg.norm(resolvent, 2))
        blocks = resolvent.reshape(L, ell, L, ell).swapaxes(1, 2)  # blocks[j-1, k-1] = G(j, k)
        dev = float(np.max(np.abs(GreenEvaluator(M, z).blocks() - blocks)))
        worst_green = max(worst_green, dev / scale)

        U, V = fundamental_solutions(M, z)
        W = wronskian(M, U, V)
        wdev = float(np.max(np.abs(W[:L] - W[0])))
        worst_wron = max(worst_wron, wdev / max(1.0, float(np.max(np.abs(W[0])))))

        worst_char = max(worst_char, charpoly_identity_check(M, E).residual)

    checks = [
        (f"green vs dense inverse rel {worst_green:.1e}", worst_green <= GREEN_TOL),
        (f"wronskian constancy {worst_wron:.1e}", worst_wron <= WRONSKIAN_TOL),
        (f"charpoly residual {worst_char:.1e}", worst_char <= CHARPOLY_TOL),
    ]
    finish(2, checks, budget=60.0, t0=t0)


def general_hopping_ensemble():
    """Frozen ell=2 ensemble with three V choices and two non-identity S choices."""
    rng = np.random.default_rng(2024)
    V_choices = []
    for _ in range(3):
        A = rng.uniform(-1.5, 1.5, size=(2, 2))
        V_choices.append(0.5 * (A + A.T))
    S_choices = []
    while len(S_choices) < 2:
        S = rng.uniform(-1.2, 1.2, size=(2, 2))
        if abs(np.linalg.det(S)) > 0.4:
            S_choices.append(S)
    return np.array(V_choices), np.array(S_choices)


def test_criterion_3_thouless_formula():
    t0 = time.monotonic()
    params = ModelParams(n=1000, gamma=0.5, rho=TWO_POINT)
    chains = [assemble_block_jacobi(params, sample_disorder(params, 300, r)) for r in range(50)]
    checks = []
    hopping_target = -0.5 * math.log(0.75)
    for report in thouless_check(params, [1.0 + 0.5j, 2.0j, -1.0 + 0.5j], chains, steps=100_000, seed=301):
        E = report.energy
        checks.append(
            (f"xy residual {abs(report.residual):.1e} at E={E}", abs(report.residual) <= THOULESS_TOL)
        )
        checks.append(
            (
                f"hopping term {report.hopping_term:.6f}",
                abs(report.hopping_term - hopping_target) <= 1e-12,
            )
        )

    V_choices, S_choices = general_hopping_ensemble()
    ensemble = BlockEnsemble.from_choices(V_choices, S_choices)

    def general_chain(index):
        grng = realization_rng(400, index)
        Vs = V_choices[grng.integers(0, 3, size=500)]
        Ss = S_choices[grng.integers(0, 2, size=499)]
        return BlockJacobiMatrix(Vs, Ss)

    general_chains = [general_chain(i) for i in range(30)]
    [greport] = thouless_check(ensemble, [2.0j], general_chains, steps=100_000, seed=401)
    checks.append(
        (
            f"general ell=2 residual {abs(greport.residual):.1e} "
            f"(hopping {greport.hopping_term:+.4f})",
            abs(greport.residual) <= THOULESS_TOL and greport.hopping_term != 0.0,
        )
    )
    finish(3, checks, budget=600.0, t0=t0)


def test_criterion_4_zero_energy_exponents():
    t0 = time.monotonic()
    checks = []
    for gamma in (0.5, 2.0):
        aux = zero_energy_aux_exponent(gamma, TWO_POINT, steps=100_000, seed=410)
        pred = zero_energy_closed_form(gamma, aux)
        params = ModelParams(n=2, gamma=gamma, rho=TWO_POINT)
        direct = lyapunov_spectrum(params, 0.0, steps=100_000, seed=411)
        combined = np.sqrt(pred.se**2 + direct.se**2)
        dev = float(np.max(np.abs(pred.exponents - direct.exponents) / combined))
        checks.append(
            (f"gamma={gamma} ({pred.branch}) max dev {dev:.2f} se", dev <= ZERO_ENERGY_SE)
        )

    rng = np.random.default_rng(424)
    worst_abs = worst_rel = 0.0
    for _ in range(20):
        E = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.8))
        gamma = rng.uniform(0.2, 2.5)
        while abs(gamma - 1.0) < 0.1:
            gamma = rng.uniform(0.2, 2.5)
        params = ModelParams(n=2, gamma=gamma, rho=TWO_POINT)
        spec = lyapunov_spectrum(params, E, steps=10_000, seed=425)
        worst_abs = max(worst_abs, float(spec.pair_sum_defects().max()))
        worst_rel = max(worst_rel, float((spec.pair_sum_defects() / spec.pair_sum_se()).max()))
    checks.append(
        (
            f"pairing defect {worst_abs:.1e} abs, {worst_rel:.1e} of se",
            worst_abs <= PAIRING_ABS_TOL and worst_rel <= PAIRING_SE_FRACTION,
        )
    )
    finish(4, checks, budget=600.0, t0=t0)


def test_criterion_5_lie_closure_rank():
    t0 = time.monotonic()
    grid = np.linspace(-2.4, 2.4, 20)
    assert np.all(np.abs(grid) > 1e-6)
    checks = []
    for gamma in (0.3, 0.5, 2.0):
        results = [lie_closure_dimension(E, gamma) for E in grid]
        full = all(r.dimension == FULL_RANK and not r.marginal for r in results)
        zero = lie_closure_dimension(0.0, gamma)
        checks.append((f"gamma={gamma} rank {FULL_RANK} on 20-point grid", full))
        checks.append(
            (f"gamma={gamma} rank {zero.dimension}<{FULL_RANK} at E=0", zero.dimension < FULL_RANK)
        )
    rng = np.random.default_rng(55)
    for gamma in (0.5, 2.0):
        report = zero_energy_reducibility_certificate(gamma, rng.uniform(-2.0, 2.0, size=100))
        checks.append(
            (f"certificate gamma={gamma} on {report.num_samples} samples", report.passed)
        )
    finish(5, checks, budget=60.0, t0=t0)


def test_criterion_6_localization_decay():
    t0 = time.monotonic()
    params = ModelParams(n=200, gamma=0.5, rho=TWO_POINT)
    field = ensemble_correlator(params, (0.5, 1.5), 100, seed=600)
    fit = fit_decay(field, zeta=0.9)

    gapped = ModelParams(n=200, gamma=0.5, rho=SingleSiteDistribution.uniform(2.5, 3.5))
    gap_hits = 0
    for index in range(100):
        spec = eigensolve(
            assemble_block_jacobi(gapped, sample_disorder(gapped, 601, index)), want_vectors=False
        )
        gap_hits += check_gap(spec, 0.5)

    checks = [
        (
            f"eta {fit.eta:.4f} with CI ({fit.eta_ci[0]:.4f}, {fit.eta_ci[1]:.4f}) > 0",
            fit.eta > 0.0 and fit.eta_ci[0] > 0.0,
        ),
        (f"gap check {gap_hits}/100 realizations", gap_hits == 100),
    ]
    finish(6, checks, budget=900.0, t0=t0)


def test_criterion_7_many_body_bridges():
    t0 = time.monotonic()
    car = build_jordan_wigner(8).car_defect()

    params6 = ModelParams(n=6, gamma=0.5, rho=SingleSiteDistribution.uniform(-1.5, 1.5))
    real6 = sample_disorder(params6, seed=700)
    quad = verify_quadratic_form(build_hamiltonian(params6, real6), assemble_hat_form(params6, real6))
    heis = verify_heisenberg_identity(params6, real6, 6, [0.5, 1.0, 2.5, 5.0])

    params4 = ModelParams(n=4, gamma=0.5, rho=SingleSiteDistribution.uniform(-1.5, 1.5))
    real4 = sample_disorder(params4, seed=701)
    ff = verify_free_fermion_spectrum(build_hamiltonian(params4, real4), assemble_hat_form(params4, real4))

    checks = [
        (f"CAR defect {car:.1e} (n=8)", car <= CAR_TOL),
        (
            f"quadratic form residual {quad.residual:.1e}, scale {quad.scale}, shift {quad.shift_per_site:.1e}",
            quad.residual <= QUADRATIC_TOL and quad.scale == 1.0 and abs(quad.shift_per_site) <= 1e-12,
        ),
        (f"heisenberg residual {heis.max_residual:.1e} (n=6, t<=5)", heis.max_residual <= HEISENBERG_TOL),
        (f"free-fermion spectrum dev {ff:.1e} (n=4)", ff <= FREE_FERMION_TOL),
    ]
    finish(7, checks, budget=300.0, t0=t0)


def test_criterion_8_commutator_decay():
    t0 = time.monotonic()
    gapped = ModelParams(n=8, gamma=0.5, rho=SingleSiteDistribution.uniform(2.5, 3.5))
    stats = lr_commutator_stats(gapped, n=8, j=0, ks=[1, 2, 3, 4, 5, 6, 7], num_realizations=50, seed=800)
    means = np.array([s.mean_sup for s in stats])
    ses = np.array([s.se for s in stats])
    slack = 2.0 * np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
    monotone = bool(np.all(means[1:] <= means[:-1] + slack))
    checks = [
        (
            f"mean sup-commutator nonincreasing within 2 se ({means[0]:.3f} -> {means[-1]:.3f})",
            monotone,
        ),
    ]
    finish(8, checks, budget=600.0, t0=t0)
