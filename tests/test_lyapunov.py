import json

import numpy as np
import pytest

from randblock import cli, lyapunov
from randblock.errors import ConfigError, NumericalFailure
from randblock.lyapunov import (
    DEFAULT_BATCHES,
    BlockEnsemble,
    LyapunovSpectrum,
    _qr_exponents,
    anderson_lyapunov_2x2,
    critical_alpha_scan,
    lyapunov_index,
    lyapunov_spectrum,
    thouless_check,
    two_step_lyapunov,
    zero_energy_aux_exponent,
    zero_energy_closed_form,
    zero_energy_shift,
)
from randblock.model import (
    ModelParams,
    SingleSiteDistribution,
    TrivialDisorderWarning,
    assemble_block_jacobi,
    assemble_general,
    realization_rng,
    sample_disorder,
)
from randblock.transfer import transfer_factors

FREE_SCALAR = BlockEnsemble.from_choices(
    V_choices=np.zeros((1, 1, 1)), S_choices=np.ones((1, 1, 1))
)


def combined_se(a, b):
    return float(np.sqrt(np.asarray(a) ** 2 + np.asarray(b) ** 2))


def replay(factors):
    """draw_factors that hands out consecutive slices of a fixed factor stream."""
    pos = 0

    def draw(rng, m):
        nonlocal pos
        pos += m
        return factors[pos - m : pos]

    return draw


def qr_steps(factors, X, start, blocks, reorth_every):
    """X <- F X on every step of factors[start:], np.linalg.qr every reorth_every steps;
    the last frame and the sum of log |diag R| over blocks blocks."""
    sums = np.zeros(X.shape[1])
    for b in range(blocks):
        for k in range(start + b * reorth_every, start + (b + 1) * reorth_every):
            X = factors[k] @ X
        X, R = np.linalg.qr(X)
        sums += np.log(np.abs(np.diagonal(R)))
    return X, sums


def batch_statistics(sums, batch_steps):
    batch_exponents = np.array(sums) / batch_steps
    exponents = batch_exponents.mean(axis=0)
    se = batch_exponents.std(axis=0, ddof=1) / np.sqrt(len(sums))
    order = np.argsort(exponents)[::-1]
    return exponents[order], se[order]


def per_step_reference(factors, dim, steps, reorth_every, nbatches=DEFAULT_BATCHES):
    """Exponents of the same stream by the plain QR method with the engine's lanes:
    the batches lie on the stream after min(100, blocks per batch) warm-up
    blocks, and each batch runs its own frame from the identity through the
    warm-up blocks just before it, then through the batch."""
    blocks_per_batch = steps // reorth_every // nbatches
    warm = min(100, blocks_per_batch)
    sums = []
    for b in range(nbatches):
        X, _ = qr_steps(factors, np.eye(dim), b * blocks_per_batch * reorth_every, warm, reorth_every)
        first = (warm + b * blocks_per_batch) * reorth_every
        sums.append(qr_steps(factors, X, first, blocks_per_batch, reorth_every)[1])
    return batch_statistics(sums, blocks_per_batch * reorth_every)


def sequential_reference(factors, dim, steps, reorth_every, nbatches=DEFAULT_BATCHES):
    """The same stream and batches run as one frame: the warm-up blocks, then
    every batch in turn, each starting from the frame the last one left."""
    blocks_per_batch = steps // reorth_every // nbatches
    warm = min(100, blocks_per_batch)
    X, _ = qr_steps(factors, np.eye(dim), 0, warm, reorth_every)
    sums = []
    for b in range(nbatches):
        X, batch = qr_steps(factors, X, (warm + b * blocks_per_batch) * reorth_every, blocks_per_batch,
                            reorth_every)
        sums.append(batch)
    return batch_statistics(sums, blocks_per_batch * reorth_every)


def engine_and_stream(E, dim, steps, reorth_every):
    """Engine exponents of a fixed factor stream, with the stream: the gamma = 1/2
    chain (dim 4) or its zero-energy single-band reduction with coupling
    1/sqrt(1 - gamma^2) (dim 2), uniform(-1, 1) fields."""
    rng = realization_rng(20260010, dim)
    # room for the warmup (at most one batch) and the batches
    total = (steps // reorth_every // DEFAULT_BATCHES) * (DEFAULT_BATCHES + 1) * reorth_every
    if dim == 4:
        p = ModelParams(2, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
        factors = BlockEnsemble.from_params(p).factor_sampler(E)(rng, total)
    else:
        nu = rng.uniform(-1.0, 1.0, total) / np.sqrt(0.75)
        factors = transfer_factors(nu[:, None, None], np.ones((total, 1, 1)), E)
    exps, se, _ = _qr_exponents(replay(factors), dim, steps, 0, reorth_every)
    return exps, se, factors


class TestEngine:
    def test_constant_matrix_rate(self):
        # nu=0, S=1, E=3: the cocycle is the fixed matrix [[0,1],[-1,3]],
        # so the top exponent is the log of its spectral radius
        expected = np.log(np.max(np.abs(np.linalg.eigvals(np.array([[0.0, 1.0], [-1.0, 3.0]])))))
        spec = lyapunov_spectrum(FREE_SCALAR, 3.0, steps=20_000, seed=1)
        assert spec.exponents[0] == pytest.approx(expected, abs=3 * spec.se[0] + 1e-12)

    def test_reciprocal_pairing_is_exact(self, two_point_field):
        # symplectic products have singular values in exact reciprocal pairs,
        # so the finite-step estimates pair to machine precision
        p = ModelParams(16, 0.5, two_point_field)
        for E in (1.0, 1.0 + 0.5j):
            spec = lyapunov_spectrum(p, E, steps=10_000, seed=3)
            assert max(spec.pair_sum_defects()) <= 1e-10

    def test_exponents_sorted_descending(self, two_point_field):
        p = ModelParams(16, 0.5, two_point_field)
        spec = lyapunov_spectrum(p, 0.7, steps=10_000, seed=2)
        assert np.all(np.diff(spec.exponents) <= 0)

    def test_seed_independence(self, two_point_field):
        p = ModelParams(16, 0.5, two_point_field)
        a = lyapunov_spectrum(p, 1.0, steps=40_000, seed=11)
        b = lyapunov_spectrum(p, 1.0, steps=40_000, seed=999)
        dev = np.abs(a.exponents - b.exponents)
        assert np.all(dev <= 3 * np.sqrt(a.se**2 + b.se**2))

    def test_determinism(self, two_point_field):
        p = ModelParams(16, 0.5, two_point_field)
        a = lyapunov_spectrum(p, 1.0, steps=5_000, seed=4)
        b = lyapunov_spectrum(p, 1.0, steps=5_000, seed=4)
        assert np.array_equal(a.exponents, b.exponents)

    def test_real_energy_as_complex_stays_real(self, two_point_field):
        p = ModelParams(16, 0.5, two_point_field)
        a = lyapunov_spectrum(p, 1.3, steps=5_000, seed=4)
        b = lyapunov_spectrum(p, complex(1.3, 0.0), steps=5_000, seed=4)
        assert np.array_equal(a.exponents, b.exponents)

    @pytest.mark.parametrize("E", [1.0 + 0.5j, 0.7, 0.0])
    @pytest.mark.parametrize("reorth_every", [1, 3, 10])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_block_products_match_per_step_loop(self, E, reorth_every, dim):
        steps = 3000
        exps, se, factors = engine_and_stream(E, dim, steps, reorth_every)
        ref_exps, ref_se = per_step_reference(factors, dim, steps, reorth_every)
        np.testing.assert_allclose(exps, ref_exps, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(se, ref_se, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("E", [1.0 + 0.5j, 0.7, 0.0])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_lanes_match_one_sequential_frame(self, E, dim):
        # 100 warm-up blocks of 10 steps align a lane's frame with the one a
        # single frame carries across batches, far below 1e-10
        steps = 50_000
        exps, se, factors = engine_and_stream(E, dim, steps, 10)
        ref_exps, ref_se = sequential_reference(factors, dim, steps, 10)
        np.testing.assert_allclose(exps, ref_exps, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(se, ref_se, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("E", [1.0 + 0.5j, 0.7])
    def test_group_budget_does_not_change_the_exponents(self, two_point_field, monkeypatch, E):
        # 120 blocks per batch in two chunks of 102 and 18 blocks, 100 warm-up blocks:
        # one group, groups of 7 lanes and a short last group, one lane per group,
        # and batches too long for the budget, which run alone chunk by chunk
        p = ModelParams(2, 0.5, two_point_field)
        results = []
        for budget in (lyapunov.GROUP_BLOCKS, 100 + 7 * 120, 100 + 120, 100 + 119):
            monkeypatch.setattr(lyapunov, "GROUP_BLOCKS", budget)
            spec = lyapunov_spectrum(p, E, steps=60_000, seed=5, reorth_every=10)
            results.append((spec.exponents, spec.se))
        for exponents, se in results[1:]:
            assert np.array_equal(exponents, results[0][0]) and np.array_equal(se, results[0][1])

    def test_frame_overflow_raises(self, two_point_field):
        # |E| = 50 over 500 unnormalized steps is far beyond double range
        p = ModelParams(2, 0.5, two_point_field)
        with pytest.raises(NumericalFailure, match="overflowed"):
            lyapunov_spectrum(p, 50.0, steps=25_000, seed=0, reorth_every=500)

    def test_frame_overflow_exits_3(self, tmp_path, capsys):
        cfg = {"n": 2, "gamma": 0.5, "rho": {"kind": "two_point", "a": 0.0, "b": 1.0},
               "seed": 0, "E": 50.0, "steps": 25_000, "reorth_every": 500}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["lyapunov", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"

    def test_step_budget_validation(self, two_point_field):
        p = ModelParams(16, 0.5, two_point_field)
        with pytest.raises(ConfigError):
            lyapunov_spectrum(p, 1.0, steps=100, seed=0)  # fewer than batches*reorth


class TestIndex:
    def test_symmetric_quadruple_averages_top_half(self):
        spec = LyapunovSpectrum(
            exponents=np.array([0.9, 0.4, -0.4, -0.9]),
            se=np.full(4, 0.01),
            energy=0.0,
            steps=1000,
            seed=0,
            reorth_every=10,
        )
        est = lyapunov_index(spec)
        assert est.value == pytest.approx(0.65)

    def test_scalar_case_is_top_exponent(self):
        spec = lyapunov_spectrum(FREE_SCALAR, 3.0, steps=5_000, seed=7)
        est = lyapunov_index(spec)
        assert est.value == spec.exponents[0]

    def test_complex_energy_positive_and_finite(self, two_point_field):
        p = ModelParams(16, 0.5, two_point_field)
        est = lyapunov_index(lyapunov_spectrum(p, 1.0 + 0.5j, steps=20_000, seed=5))
        assert np.isfinite(est.value) and est.value > 0


class TestThouless:
    def test_scalar_anderson_at_imaginary_energy(self, two_point_field):
        # classical case: S=1 kills the hopping term, both sides computed
        # from scratch (transfer products vs log-determinants of finite chains)
        ens = BlockEnsemble.from_choices(
            V_choices=np.array([[[0.0]], [[1.0]]]), S_choices=np.ones((1, 1, 1))
        )
        assert ens.mean_log_abs_det_s == 0.0
        rng = realization_rng(77, 0)
        chains = []
        for _ in range(30):
            nu = rng.choice([0.0, 1.0], size=600)
            chains.append(assemble_general(1, [np.array([[v]]) for v in nu], [np.eye(1)] * 599))
        [rep] = thouless_check(ens, [2j], chains, steps=40_000, seed=5)
        assert rep.residual <= 5e-2
        assert rep.hopping_term == 0.0

    def test_report_wiring(self, two_point_field):
        p = ModelParams(200, 0.5, two_point_field)
        chains = [assemble_block_jacobi(p, sample_disorder(p, 91, r)) for r in range(10)]
        energies = [1.0 + 0.5j, -0.3 + 1.0j]
        reps = thouless_check(p, energies, chains, steps=20_000, seed=8)
        assert [rep.energy for rep in reps] == energies
        for rep in reps:
            assert rep.predicted == pytest.approx(rep.hopping_term + rep.dos_term)
            assert rep.residual == pytest.approx(rep.index_value - rep.predicted)
            # gamma=1/2, mu=1: -(1/2) E log|det S| = -(1/2) log(3/4)
            assert rep.hopping_term == pytest.approx(-0.5 * np.log(0.75), abs=1e-12)

    def test_chains_of_unequal_length_are_rejected(self, two_point_field):
        p = ModelParams(20, 0.5, two_point_field)
        q = ModelParams(21, 0.5, two_point_field)
        chains = [assemble_block_jacobi(m, sample_disorder(m, 1)) for m in (p, q)]
        with pytest.raises(ConfigError, match="equal length"):
            thouless_check(p, [1.0j], chains, steps=1000)


class TestScalarCocycles:
    def test_anderson_free_case_is_exactly_zero(self):
        with pytest.warns(TrivialDisorderWarning):
            degenerate = SingleSiteDistribution.discrete([0.0], [1.0])
        est = anderson_lyapunov_2x2(1.0, degenerate, steps=2_000, seed=0)
        assert est.value == 0.0 and est.se == 0.0

    def test_anderson_positive_and_seed_stable(self, two_point_field):
        a = anderson_lyapunov_2x2(1.0, two_point_field, steps=40_000, seed=1)
        b = anderson_lyapunov_2x2(1.0, two_point_field, steps=40_000, seed=2)
        assert a.value > 0
        assert abs(a.value - b.value) <= 3 * combined_se(a.se, b.se)

    def test_anderson_grows_with_coupling(self, two_point_field):
        ests = [
            anderson_lyapunov_2x2(c, two_point_field, steps=20_000, seed=3) for c in (1.0, 2.0, 3.0)
        ]
        for lo, hi in zip(ests, ests[1:]):
            assert hi.value > lo.value - 2 * combined_se(lo.se, hi.se)

    def test_two_step_free_case_is_identity(self):
        with pytest.warns(TrivialDisorderWarning):
            degenerate = SingleSiteDistribution.discrete([0.0], [1.0])
        est = two_step_lyapunov(2.0, degenerate, steps=2_000, seed=0)
        assert est.value == 0.0

    def test_two_step_positive(self, two_point_field):
        est = two_step_lyapunov(2.0, two_point_field, steps=20_000, seed=4)
        assert est.value > 0


class TestZeroEnergy:
    def test_shift_closed_form(self):
        assert zero_energy_shift(0.5) == pytest.approx(0.5 * np.log(3.0), abs=1e-15)
        assert zero_energy_shift(2.0) == pytest.approx(0.5 * np.log(3.0), abs=1e-15)
        assert zero_energy_shift(3.0) == pytest.approx(0.5 * np.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("gamma,branch", [(0.5, "unit_determinant"), (2.0, "negative_determinant_two_step")])
    def test_closed_form_matches_direct_spectrum(self, two_point_field, gamma, branch):
        aux = zero_energy_aux_exponent(gamma, two_point_field, steps=60_000, seed=21)
        pred = zero_energy_closed_form(gamma, aux)
        assert pred.branch == branch
        p = ModelParams(16, gamma, two_point_field)
        direct = lyapunov_spectrum(p, 0.0, steps=60_000, seed=22)
        dev = np.abs(pred.exponents - direct.exponents)
        tol = 3 * np.sqrt(pred.se**2 + direct.se**2)
        assert np.all(dev <= tol)

    def test_prediction_is_symmetric_quadruple(self, two_point_field):
        aux = zero_energy_aux_exponent(0.5, two_point_field, steps=10_000, seed=2)
        pred = zero_energy_closed_form(0.5, aux)
        assert pred.exponents.size == 4
        assert np.allclose(pred.exponents + pred.exponents[::-1], 0.0, atol=1e-14)
        assert pred.gamma_top == pytest.approx(aux.value + pred.shift)


class TestAlphaScan:
    def test_bracketed_root(self, two_point_field):
        res = critical_alpha_scan(0.5, two_point_field, 1.0, 8.0, steps=15_000, seed=19, grid_points=5)
        assert res.bracketed
        assert len(res.roots) >= 1
        lo, hi = res.roots[0]
        assert hi - lo <= 1e-2
        assert 1.0 < lo < hi < 8.0
        # f is monotone here, so grid values must straddle zero
        assert res.f_values[0] < 0 < res.f_values[-1]

    def test_more_steps_tighten_the_band(self, two_point_field):
        coarse = critical_alpha_scan(0.5, two_point_field, 1.0, 8.0, steps=10_000, seed=6, grid_points=3)
        fine = critical_alpha_scan(0.5, two_point_field, 1.0, 8.0, steps=40_000, seed=6, grid_points=3)
        assert np.mean(fine.se_values) < np.mean(coarse.se_values)


class TestEnsembleConstruction:
    def test_from_choices_exact_hopping_mean(self):
        S_choices = np.array([2.0 * np.eye(2), 0.5 * np.eye(2)])
        V_choices = np.zeros((1, 2, 2))
        ens = BlockEnsemble.from_choices(V_choices, S_choices, s_weights=np.array([0.25, 0.75]))
        expected = 0.25 * np.log(4.0) + 0.75 * np.log(0.25)
        assert ens.mean_log_abs_det_s == pytest.approx(expected, abs=1e-14)

    def test_from_choices_weight_validation(self):
        with pytest.raises(ConfigError):
            BlockEnsemble.from_choices(
                np.zeros((1, 1, 1)), np.ones((1, 1, 1)), s_weights=np.array([0.4])
            )
