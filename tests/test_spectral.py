import itertools
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from randblock import localization, spectral
from randblock.errors import ConfigError, NumericalFailure
from randblock.localization import wegner_probe
from randblock.model import (
    BlockJacobiMatrix,
    DisorderRealization,
    HatBlockMatrix,
    ModelParams,
    SingleSiteDistribution,
    TrivialDisorderWarning,
    anisotropy_block,
    assemble_block_jacobi,
    assemble_hat_form,
    interleave_permutation,
    random_instance,
    sample_disorder,
)
from randblock.spectral import (
    DOSHistogram,
    IntervalUnion,
    almost_sure_spectrum_approx,
    check_gap,
    dos_histogram,
    eigensolve,
    ensemble_spectra,
    floquet_symbol,
    periodic_spectrum,
    window_eigensolve,
)
from randblock.transfer import eigenvalue_counts

SIGMA_Z = np.diag([1.0, -1.0])


def quartic_roots_oracle(M: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of a 4x4 matrix expanded symbolically, then
    solved with a companion-matrix root finder; independent of the banded
    and dense symmetric eigensolvers under test."""
    lam = sympy.Symbol("lam")
    poly = sympy.Matrix(M).charpoly(lam)
    coeffs = [float(c) for c in poly.all_coeffs()]
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-10
    return np.sort(roots.real)


def fixture_n2():
    p = ModelParams(2, 0.5, SingleSiteDistribution.discrete([1.0, 2.0], [0.5, 0.5]))
    real = DisorderRealization(seed=0, index=0, nu=np.array([1.0, 2.0]))
    return assemble_block_jacobi(p, real)


class TestEigensolve:
    def test_single_site_block_is_pm_nu(self):
        M = BlockJacobiMatrix(1.7 * SIGMA_Z[None], np.zeros((0, 2, 2)))
        spec = eigensolve(M, want_vectors=False)
        assert np.allclose(spec.eigenvalues, [-1.7, 1.7], atol=1e-14)

    def test_n2_fixture_matches_quartic_oracle(self):
        M = fixture_n2()
        expected = quartic_roots_oracle(M.dense())
        spec = eigensolve(M, want_vectors=False)
        assert np.max(np.abs(spec.eigenvalues - expected)) < 1e-10

    def test_zero_field_isotropic_n3_closed_form(self):
        # gamma=0 decouples into +-(free hopping); eigenvalues 2cos(k pi/4) up to sign
        M = BlockJacobiMatrix(np.zeros((3, 2, 2)), anisotropy_block(np.zeros(2)))
        spec = eigensolve(M, want_vectors=False)
        single = -2.0 * np.cos(np.arange(1, 4) * np.pi / 4)
        expected = np.sort(np.concatenate([single, -single]))
        assert np.allclose(spec.eigenvalues, expected, atol=1e-14)

    def test_residual_and_orthonormality_invariants(self, xy_params):
        for n, seed in [(8, 0), (20, 1), (33, 2)]:
            p = xy_params(n=n)
            M = assemble_block_jacobi(p, sample_disorder(p, seed))
            spec = eigensolve(M)
            dense = M.dense()
            scale = np.linalg.norm(dense, 2)
            res = dense @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-10 * scale
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10

    def test_site_amplitudes_shape_and_norm(self, xy_params):
        p = xy_params(n=12)
        spec = eigensolve(assemble_block_jacobi(p, sample_disorder(p, 4)))
        amps = spec.site_amplitudes()
        assert amps.shape == (12, 24)
        # column sums of squared block norms recover unit vectors
        assert np.allclose((amps**2).sum(axis=0), 1.0, atol=1e-12)


class TestBandedValues:
    @settings(max_examples=80, deadline=None)
    @given(ell=st.integers(1, 4), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_band_storage_and_values_match_dense(self, ell, n, seed):
        M = random_instance(np.random.default_rng(seed), ell, n)
        dense, band, N = M.dense(), M.band(), n * ell
        assert band.shape == (2 * ell, N)
        for k in range(2 * ell):
            stored = max(N - k, 0)
            np.testing.assert_array_equal(band[k, :stored], np.diag(dense, -k))
            assert not np.any(band[k, stored:])
        vals = eigensolve(M, want_vectors=False).eigenvalues
        tol = 1e-12 * max(1.0, np.linalg.norm(dense, 2))
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(dense), rtol=0, atol=tol)

    def test_values_only_callers_never_build_dense(self, xy_params, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built on a values-only path")

        monkeypatch.setattr(BlockJacobiMatrix, "dense", refuse)
        p = xy_params(n=30)
        specs = ensemble_spectra(p, 3, seed=2)
        assert [s.eigenvalues.size for s in specs] == [60, 60, 60]
        records = localization.wegner_probe(p, 0.3, [10, 20], beta=0.5, sigma=1.0, samples=4, seed=1)
        assert [r.L for r in records] == [10, 20]


rho_kinds = st.sampled_from(
    [
        SingleSiteDistribution.two_point(0.0, 1.0),
        SingleSiteDistribution.uniform(-2.0, 2.0),
        SingleSiteDistribution.discrete([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5]),
    ]
)
anisotropy = st.floats(-3.0, 3.0).filter(lambda g: abs(abs(g) - 1.0) > 1e-3)
hopping = st.floats(-3.0, 3.0).filter(lambda m: abs(m) > 1e-2)


@st.composite
def xy_chains(draw):
    """(M, mu, gamma): an XY chain built from per-site stacks, with per-bond mu and gamma.

    V_k = nu_k sigma_z with nu_k ~ rho and S_k = mu_k S(gamma_k).
    """
    n = draw(st.integers(2, 40))
    bonds = st.lists(st.tuples(hopping, anisotropy), min_size=n - 1, max_size=n - 1)
    mu, gamma = np.array(draw(bonds)).T
    nu = draw(rho_kinds).sample(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    S = mu[:, None, None] * anisotropy_block(gamma)
    return BlockJacobiMatrix(nu[:, None, None] * SIGMA_Z, S), mu, gamma


class TestChiralForm:
    @settings(max_examples=80, deadline=None)
    @given(chain=xy_chains())
    def test_coupling_is_the_hat_form_difference(self, chain):
        M, mu, gamma = chain
        A = np.diag(M.V[:, 0, 0]) + np.diag(-mu, 1) + np.diag(-mu, -1)
        B = np.diag(-mu * gamma, 1) + np.diag(mu * gamma, -1)
        np.testing.assert_array_equal(M.chiral_coupling(), A - B)
        perm = interleave_permutation(M.n)
        np.testing.assert_array_equal(HatBlockMatrix(A, B).dense()[np.ix_(perm, perm)], M.dense())

    @settings(max_examples=80, deadline=None)
    @given(chain=xy_chains())
    def test_eigensolve_matches_dense(self, chain):
        M, _, _ = chain
        dense = M.dense()
        spec = eigensolve(M)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        tol = 1e-12 * max(1.0, np.linalg.norm(dense, 2))
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(dense), rtol=0, atol=tol)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.array_equal(vals, -vals[::-1])
        assert np.max(np.abs(dense @ vecs - vecs * vals)) <= 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2 * M.n))) <= 1e-12

    def test_residual_guard_rejects_a_bad_decomposition(self, xy_params, monkeypatch):
        # shifting every singular value by delta = 1e-6 makes the residual delta max |psi|
        svd = np.linalg.svd

        def shifted(C):
            U, sigma, Vt = svd(C)
            return U, sigma + 1e-6, Vt

        monkeypatch.setattr(np.linalg, "svd", shifted)
        with pytest.raises(NumericalFailure, match="residual"):
            eigensolve(assemble_block_jacobi(xy_params(n=10), DisorderRealization(0, 0, np.ones(10))))

    def test_non_chiral_matrix_has_values_only(self):
        M = random_instance(np.random.default_rng(5), 2, 6)
        with pytest.raises(ConfigError, match="chiral"):
            eigensolve(M)
        assert eigensolve(M, want_vectors=False).eigenvalues.size == 12


@st.composite
def chiral_windows(draw):
    """(M, window): an XY chain with one gamma, and a closed window above, below or across 0."""
    n = draw(st.integers(1, 60))
    gamma = draw(st.floats(-2.0, 2.0).filter(lambda g: abs(abs(g) - 1.0) > 1e-3))  # |gamma| = 1: singular hoppings
    rho = draw(st.sampled_from([SingleSiteDistribution.uniform(-1.0, 1.0), SingleSiteDistribution.two_point(0.0, 1.0)]))
    nu = rho.sample(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    M = BlockJacobiMatrix(nu[:, None, None] * SIGMA_Z, np.tile(anisotropy_block(gamma), (n - 1, 1, 1)))
    near = 10.0 ** draw(st.floats(-12.0, 0.5))
    far = near + draw(st.floats(0.0, 3.0))
    side = draw(st.sampled_from(["above", "below", "across"]))
    return M, {"above": (near, far), "below": (-far, -near), "across": (-near, far)}[side]


def uniform_chain(n, seed):
    p = ModelParams(n, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
    return assemble_block_jacobi(p, sample_disorder(p, seed))


class TestWindowEigensolve:
    def assert_matches_svd_route(self, M, window):
        full, spec = eigensolve(M), window_eigensolve(M, window)
        mask = full.window_mask(*window)
        assert spec.eigenvalues.size == mask.sum()
        tol = 1e-12 * max(1.0, float(np.max(np.abs(full.eigenvalues))))
        np.testing.assert_allclose(spec.eigenvalues, full.eigenvalues[mask], rtol=0, atol=tol)
        Q, ref = (localization.eigenfunction_correlator(s, window).Q for s in (spec, full))
        assert np.max(np.abs(Q - ref)) <= 1e-10 * np.max(ref)

    @settings(max_examples=150, deadline=None)
    @given(chain=chiral_windows())
    def test_matches_the_svd_route(self, chain):
        M, window = chain
        # Q depends on the basis chosen inside a degenerate eigenspace, so only
        # spectra whose window eigenvalues are separated pin it down
        vals = eigensolve(M, want_vectors=False).eigenvalues
        inside = vals[(vals >= window[0]) & (vals <= window[1])]
        assume(np.all(np.diff(inside) > 1e-5 * max(1.0, float(np.max(np.abs(vals))))))
        self.assert_matches_svd_route(M, window)

    @pytest.mark.parametrize("n, seed, count", [(60, 2, 11), (60, 3, 9), (40, 1, 6), (40, 2, 8)])
    def test_singular_values_near_zero_take_the_svd(self, n, seed, count):
        # C^t C cannot resolve sigma below about sqrt(n eps) ||C||: here it
        # shows an edge mode of about 1e-13 as about 1e-8 (n = 60), or a mode
        # of about 3e-9 as a negative eigenvalue (n = 40)
        M = uniform_chain(n, seed)
        assert window_eigensolve(M, (1e-9, 1.0)).eigenvalues.size == count
        self.assert_matches_svd_route(M, (1e-9, 1.0))

    def test_a_bad_gram_decomposition_falls_back(self, monkeypatch):
        # the top eigenvector turned towards the bottom one (outside the windows),
        # at its Rayleigh quotient, keeps U^t U = I and fails only the residual;
        # a repeated eigenpair has small residuals and fails only U^t U = I
        eigh = np.linalg.eigh
        M = uniform_chain(30, 5)

        def mixed(G):
            w, V = eigh(G)
            w, V = w.copy(), V.copy()
            c, s = np.cos(1e-3), np.sin(1e-3)
            w[-1], V[:, -1] = c * c * w[-1] + s * s * w[0], c * V[:, -1] + s * V[:, 0]
            return w, V

        def repeated(G):
            w, V = eigh(G)
            w, V = w.copy(), V.copy()
            w[-2], V[:, -2] = w[-1], V[:, -1]
            return w, V

        for broken in (mixed, repeated):
            monkeypatch.setattr(np.linalg, "eigh", broken)
            self.assert_matches_svd_route(M, (0.1, 5.0))
            self.assert_matches_svd_route(M, (-5.0, -0.1))

    def test_windows_through_zero_keep_the_svd_guard(self, monkeypatch):
        svd = np.linalg.svd

        def shifted(C):
            U, sigma, Vt = svd(C)
            return U, sigma + 1e-6, Vt

        monkeypatch.setattr(np.linalg, "svd", shifted)
        with pytest.raises(NumericalFailure, match="residual"):
            window_eigensolve(uniform_chain(10, 0), (-0.5, 0.5))
        with pytest.raises(NumericalFailure, match="residual"):
            window_eigensolve(uniform_chain(60, 2), (1e-9, 1.0))


def symmetric_about_zero(vals: np.ndarray) -> bool:
    """max |lambda_i + lambda_{N+1-i}| <= 1e-10 max(1, max |lambda|) for ascending eigenvalues."""
    return float(np.max(np.abs(vals + vals[::-1]))) <= 1e-10 * max(1.0, float(np.max(np.abs(vals))))


class TestSymmetryAndGap:
    @settings(max_examples=80, deadline=None)
    @given(chain=xy_chains())
    def test_xy_instances_are_symmetric(self, chain):
        M, _, _ = chain
        assert symmetric_about_zero(eigensolve(M, want_vectors=False).eigenvalues)
        chiral = eigensolve(M).eigenvalues
        assert np.array_equal(chiral, -chiral[::-1])

    def test_perturbed_block_breaks_symmetry(self, xy_params):
        p = xy_params(n=10)
        M = assemble_block_jacobi(p, sample_disorder(p, 0))
        M.V[0, 0, 0] += 0.3  # breaks the sigma^z structure of the diagonal block
        assert not symmetric_about_zero(eigensolve(M, want_vectors=False).eigenvalues)

    def test_gap_present_for_large_field(self):
        rho = SingleSiteDistribution.two_point(2.5, 3.5, 0.5)
        p = ModelParams(40, 0.5, rho)
        for seed in range(4):
            spec = eigensolve(assemble_block_jacobi(p, sample_disorder(p, seed)), want_vectors=False)
            assert check_gap(spec, 0.5)

    def test_zero_field_chain_has_midgap_boundary_modes(self):
        # bulk bands are +-[1,2] here, but the open chain carries a pair of
        # near-zero boundary modes, so the gap check must come out False
        M = BlockJacobiMatrix(np.zeros((40, 2, 2)), anisotropy_block(np.full(39, 0.5)))
        spec = eigensolve(M, want_vectors=False)
        assert np.min(np.abs(spec.eigenvalues)) < 1e-6
        assert not check_gap(spec, 0.5)
        assert check_gap(spec, 1e-15)  # vacuously true as the window shrinks


def histogram_slack(ref: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per bin, how many eigenvalues within 1e-9 of one of its edges may have landed in a neighbour."""
    near = (np.abs(ref[:, None] - edges[None, :]) <= 1e-9).sum(axis=0)
    slack = np.zeros(edges.size - 1, dtype=int)
    for j, k in enumerate(near):
        slack[max(j - 1, 0)] += k
        slack[min(j, slack.size - 1)] += k
    return slack


def dense_eigenvalues(params, num_realizations, seed):
    chains = [assemble_block_jacobi(params, sample_disorder(params, seed, r)) for r in range(num_realizations)]
    return np.concatenate([np.linalg.eigvalsh(M.dense()) for M in chains])


class TestDOS:
    def test_single_realization_single_bin(self, xy_params):
        dos = dos_histogram(xy_params(n=10), 1, seed=0, bins=1)
        assert dos.mass.size == 1 and dos.mass[0] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_and_monotone_cumulative(self, xy_params):
        p = xy_params(n=30)
        # 57 bins over [-4, 4] are no wider than the 40 that once spanned the eigenvalue range
        dos = dos_histogram(p, 5, seed=3, bins=57)
        assert dos.total_mass == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(dos.edges[0] - 1, dos.edges[-1] + 1, 200)
        N = np.array([dos.cumulative(E) for E in grid])
        assert N[0] == 0.0 and N[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(N) >= -1e-15)

    def test_constant_potential_ids_matches_floquet_symbol(self):
        # deterministic nu=1 chain vs the integrated band measure of the symbol
        with pytest.warns(TrivialDisorderWarning):
            rho = SingleSiteDistribution.discrete([1.0], [1.0])
        p = ModelParams(1000, 0.5, rho)
        # 134 bins over [-4, 4] are no wider than the 100 that once spanned the spectrum [-3, 3]
        dos = dos_histogram(p, 1, seed=0, bins=134)
        thetas = np.linspace(0, 2 * np.pi, 4001, endpoint=False)
        sym = np.sort(
            np.concatenate([np.linalg.eigvalsh(floquet_symbol([1.0], 0.5, th)) for th in thetas])
        )
        grid = np.linspace(-3.3, 3.3, 331)
        N_sym = np.searchsorted(sym, grid, side="right") / sym.size
        N_dos = np.array([dos.cumulative(E) for E in grid])
        assert np.max(np.abs(N_sym - N_dos)) <= 2e-2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        gamma=st.sampled_from([0.0, 0.5, 2.0]),
        mu=st.sampled_from([1.0, -0.7, 2.5]),
        rho=st.sampled_from(
            [
                SingleSiteDistribution.uniform(-1.0, 1.0),
                SingleSiteDistribution.uniform(-0.5, 2.0),
                SingleSiteDistribution.two_point(0.0, 1.0),
                SingleSiteDistribution.two_point(-1.5, 0.5, 0.3),
            ]
        ),
        num_realizations=st.integers(1, 3),
        bins=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_masses_are_the_histogram_of_dense_eigenvalues(self, n, gamma, mu, rho, num_realizations, bins,
                                                           seed):
        p = ModelParams(n, gamma, rho, mu)
        dos = dos_histogram(p, num_realizations, seed, bins)
        edges = dos.edges
        assert edges.size == bins + 1 and np.array_equal(edges, -edges[::-1])
        if bins % 2 == 0:
            assert edges[bins // 2] == 0.0
        ref = dense_eigenvalues(p, num_realizations, seed)
        counts = dos.mass * ref.size
        assert np.max(np.abs(counts - np.rint(counts))) <= 1e-9
        expected, _ = np.histogram(ref, bins=edges)
        assert np.all(np.abs(np.rint(counts) - expected) <= histogram_slack(ref, edges))

    def test_unresolved_chains_fall_back_to_one_eigensolve(self, two_point_field, monkeypatch):
        # with G = 4, 8 bins put an edge at the atom 1.0, where a chain with nu_1 = 1 has the
        # rank-deficient first pivot diag(0, -2): its counts come from its eigenvalues
        p = ModelParams(20, 0.5, two_point_field)
        solved = []

        def traced(M, **kw):
            solved.append(M.V[0, 0, 0])
            return eigensolve(M, **kw)

        monkeypatch.setattr(spectral, "eigensolve", traced)
        dos = dos_histogram(p, 6, seed=7, bins=8)
        assert dos.edges[5] == 1.0
        first = [sample_disorder(p, 7, r).nu[0] for r in range(6)]
        assert 0 < first.count(1.0) <= solved.count(1.0) and len(solved) < 6
        ref = dense_eigenvalues(p, 6, 7)
        expected, _ = np.histogram(ref, bins=dos.edges)
        assert np.all(np.abs(np.rint(dos.mass * ref.size) - expected) <= histogram_slack(ref, dos.edges))

    @pytest.mark.parametrize("seed", [1001, 2001, 3001])
    def test_edge_zero_modes_are_counted_at_the_middle_edge(self, seed, monkeypatch):
        # uniform(-1, 1) field, gamma = 1/2, n = 1000: each chain has a pair of edge zero modes at
        # about +-1e-15, and the middle edge 0.0 splits them exactly, with no eigensolve
        p = ModelParams(1000, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
        chains = [assemble_block_jacobi(p, sample_disorder(p, seed, r)) for r in range(4)]
        counts, resolved = eigenvalue_counts(chains, [0.0])
        assert resolved.all() and counts.ravel().tolist() == [1000] * 4

        def refuse(M, **kw):
            raise AssertionError("every count should be resolved")

        monkeypatch.setattr(spectral, "eigensolve", refuse)
        dos = dos_histogram(p, 4, seed, bins=50)
        assert dos.edges[25] == 0.0 and np.array_equal(dos.mass, dos.mass[::-1])

    def test_isotropic_case_reduces_to_anderson_pair(self, two_point_field):
        # gamma=0: the operator splits into A and -A with scalar Anderson A
        p = ModelParams(40, 0.0, two_point_field)
        real = sample_disorder(p, 3)
        spec = eigensolve(assemble_block_jacobi(p, real), want_vectors=False)
        hop = np.ones(39)
        A = np.diag(real.nu) - np.diag(hop, 1) - np.diag(hop, -1)
        evA = np.linalg.eigvalsh(A)
        expected = np.sort(np.concatenate([evA, -evA]))
        assert np.max(np.abs(spec.eigenvalues - expected)) < 1e-10


class TestExactCounts:
    def test_fallback_counts_equal_dense_counts(self, two_point_field, monkeypatch):
        # two_point(0, 1) at n = 20: the dos edges of 8 bins sit on both atoms, and so do the Wegner
        # windows at E = 0 and E = 1 for eps = 0, e^-sqrt(1400) < ulp(1) / 2 and 1e-9, so a chain with
        # nu_1 = 0 or 1 has a singular first pivot and most chains take the eigensolve
        p = ModelParams(20, 0.5, two_point_field)
        edges = dos_histogram(p, 1, seed=7, bins=8).edges
        assert {0.0, 1.0} <= set(edges)
        x = [*edges[:-1], np.nextafter(edges[-1], np.inf)]
        for E, eps in itertools.product((0.0, 1.0), (0.0, np.exp(-np.sqrt(1400)), 1e-9)):
            x += [E - eps, np.nextafter(E + eps, np.inf)]
        callers = []

        def traced(M, **kw):
            callers.append(sys._getframe(1).f_code.co_name)
            return eigensolve(M, **kw)

        monkeypatch.setattr(spectral, "eigensolve", traced)
        chains = [assemble_block_jacobi(p, sample_disorder(p, 7, r)) for r in range(40)]
        counts = spectral._exact_counts(chains, x)
        assert len(callers) >= 30
        dense = [np.searchsorted(np.linalg.eigvalsh(M.dense()), x) for M in chains]
        assert counts.tolist() == np.array(dense).tolist()
        # the DOS and the Wegner probe eigensolve only inside the count owner
        callers.clear()
        dos_histogram(p, 40, seed=7, bins=8)
        for E in (0.0, 1.0):
            wegner_probe(p, E, [20, 40], beta=0.5, sigma=1.0, samples=40, seed=7)
        assert callers and set(callers) == {"_exact_counts"}


class TestIntervalUnion:
    def test_merge_and_hull(self):
        u = IntervalUnion.from_intervals([(2.0, 3.0), (0.0, 1.0), (0.9, 1.4)])
        assert u.intervals.tolist() == [[0.0, 1.4], [2.0, 3.0]]
        assert u.hull == (0.0, 3.0)

    def test_distance(self):
        u = IntervalUnion.from_intervals([(0.0, 1.0), (2.0, 3.0)])
        d = u.distance(np.array([-1.0, 0.5, 1.5, 2.0, 4.0]))
        assert np.allclose(d, [1.0, 0.0, 0.5, 0.0, 1.0])

    def test_directed_hausdorff_hand_cases(self):
        a = IntervalUnion.from_intervals([(0.0, 1.0), (2.0, 3.0)])
        b = IntervalUnion.from_intervals([(0.0, 3.0)])
        assert a.directed_hausdorff(b) == pytest.approx(0.0)
        # farthest point of b from a is the gap midpoint 1.5
        assert b.directed_hausdorff(a) == pytest.approx(0.5)
        assert a.hausdorff(b) == pytest.approx(0.5)
        c = IntervalUnion.from_intervals([(0.4, 1.6)])
        d = IntervalUnion.from_intervals([(0.0, 1.0)])
        assert c.directed_hausdorff(d) == pytest.approx(0.6)
        assert d.directed_hausdorff(c) == pytest.approx(0.4)
        assert c.hausdorff(d) == pytest.approx(0.6)

    def test_union_and_covers(self):
        a = IntervalUnion.from_intervals([(0.0, 1.0)])
        b = IntervalUnion.from_intervals([(2.0, 3.0)])
        assert a.union(b).intervals.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert a.covers(0.1, 0.9, 1e-9)
        assert not a.union(b).covers(0.0, 3.0, 0.4)
        assert a.union(b).covers(0.0, 3.0, 0.51)


interval_pairs = st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 5.0)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=8,
)


class TestIntervalUnionProperties:
    @settings(max_examples=200, deadline=None)
    @given(pairs=interval_pairs)
    def test_from_intervals_is_sorted_disjoint_and_covers_inputs(self, pairs):
        iv = IntervalUnion.from_intervals(pairs).intervals
        assert np.all(iv[:, 0] <= iv[:, 1])
        # every gap is wider than the merge tolerance, in the arithmetic the merge uses
        assert np.all(iv[1:, 0] > iv[:-1, 1] + spectral.BAND_MERGE_TOL)
        for lo, hi in pairs:
            assert np.any((iv[:, 0] <= lo) & (hi <= iv[:, 1]))

    @settings(max_examples=200, deadline=None)
    @given(a=interval_pairs, b=interval_pairs)
    def test_union_is_commutative_and_idempotent(self, a, b):
        ua, ub = IntervalUnion.from_intervals(a), IntervalUnion.from_intervals(b)
        np.testing.assert_array_equal(ua.union(ub).intervals, ub.union(ua).intervals)
        np.testing.assert_array_equal(ua.union(ua).intervals, ua.intervals)

    @settings(max_examples=200, deadline=None)
    @given(a=interval_pairs, b=interval_pairs)
    def test_hausdorff_is_symmetric_and_zero_on_itself(self, a, b):
        ua, ub = IntervalUnion.from_intervals(a), IntervalUnion.from_intervals(b)
        assert ua.hausdorff(ub) == ub.hausdorff(ua)
        assert ua.hausdorff(ua) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(pairs=interval_pairs, fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_distance_is_zero_at_member_points(self, pairs, fractions):
        u = IntervalUnion.from_intervals(pairs)
        for lo, hi in pairs:
            points = np.clip(lo + np.asarray(fractions) * (hi - lo), lo, hi)
            assert np.all(u.distance(np.concatenate([[lo, hi], points])) == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(pairs=interval_pairs, seg=st.tuples(st.floats(-12.0, 12.0), st.floats(0.0, 8.0)))
    def test_covers_agrees_with_directed_hausdorff(self, pairs, seg):
        u = IntervalUnion.from_intervals(pairs)
        lo, hi = seg[0], seg[0] + seg[1]
        dh = IntervalUnion(intervals=np.array([[lo, hi]])).directed_hausdorff(u)
        # dh is the exact sup of the distance over [lo, hi]: at least every sampled
        # value, and at most the sampled sup plus half the sample spacing
        grid = np.linspace(lo, hi, 2001)
        sampled = float(u.distance(grid).max())
        assert sampled <= dh + 1e-12
        assert dh <= sampled + 0.5 * (hi - lo) / 2000 + 1e-12
        assert u.covers(lo, hi, dh)
        if dh > 1e-9:
            assert not u.covers(lo, hi, dh - 1e-9)


class TestPeriodicSpectrum:
    def test_constant_one_endpoints(self):
        u = periodic_spectrum([1.0], 0.5)
        lo_edge = np.sqrt(2.0 / 3.0)
        assert np.allclose(u.intervals, [[-3.0, -lo_edge], [lo_edge, 3.0]], atol=1e-6)

    def test_free_laplacian_pair(self):
        u = periodic_spectrum([0.0], 0.0)
        assert u.intervals.shape == (1, 2)
        assert np.allclose(u.intervals, [[-2.0, 2.0]], atol=1e-8)

    def test_singular_anisotropy_rejected(self):
        with pytest.raises(ConfigError):
            periodic_spectrum([1.0], 1.0)
        with pytest.raises(ConfigError):
            periodic_spectrum([1.0], -1.0)

    @pytest.mark.parametrize(
        "potential,n",
        [([3.0], 60), ([3.0, 4.0], 120)],
        ids=["p1-const3", "p2-alt34"],
    )
    def test_floquet_consistency_large_n(self, potential, n):
        # direct eigenvalues of the n=60p chain vs the symbol bands, full
        # Hausdorff; potentials sit in the boundary-mode-free regime
        period = len(potential)
        V = np.array([potential[k % period] * SIGMA_Z for k in range(n)])
        M = BlockJacobiMatrix(V, anisotropy_block(np.full(n - 1, 0.5)))
        pts = eigensolve(M, want_vectors=False).eigenvalues
        union = periodic_spectrum(potential, 0.5)
        assert float(union.distance(pts).max()) <= 5e-2
        samples = np.concatenate([np.linspace(lo, hi, 400) for lo, hi in union.intervals])
        gap = np.max(np.min(np.abs(samples[:, None] - pts[None, :]), axis=1))
        assert gap <= 5e-2

    def test_floquet_consistency_with_boundary_modes(self):
        # c=1 carries a pair of in-gap boundary modes at ~0; the band part of
        # the finite spectrum still reproduces the symbol bands
        n = 60
        M = BlockJacobiMatrix(np.tile(SIGMA_Z, (n, 1, 1)), anisotropy_block(np.full(n - 1, 0.5)))
        pts = eigensolve(M, want_vectors=False).eigenvalues
        union = periodic_spectrum([1.0], 0.5)
        dists = union.distance(pts)
        inside = dists <= 5e-2
        assert inside.sum() == pts.size - 2
        assert np.all(np.abs(pts[~inside]) < 1e-6)  # the two boundary modes
        samples = np.concatenate([np.linspace(lo, hi, 400) for lo, hi in union.intervals])
        gap = np.max(np.min(np.abs(samples[:, None] - pts[None, :]), axis=1))
        assert gap <= 5e-2

    def test_alternating_field_closed_form_and_ring(self):
        # nu = (-1, 1), gamma = 1/2: with c = cos(theta) the symbol gives
        # E^2 = [(7+3c) +- 2 sqrt(2(1-c))]/2, whose upper branch peaks at
        # E^2 = 16/3 (c = 7/9) and lower branch reaches 0 (c = -1), so the
        # spectrum is [-4/sqrt3, 4/sqrt3]
        edge = 4.0 / np.sqrt(3.0)
        u = periodic_spectrum([-1.0, 1.0], 0.5)
        assert np.allclose(u.intervals, [[-edge, edge]], atol=1e-6)
        # periodic ring in hat form [[A, B], [-B, -A]], assembled without the
        # package: its eigenvalues are exact samples of the Bloch bands
        n, gamma = 400, 0.5
        nu = np.tile([-1.0, 1.0], n // 2)
        ones = np.ones(n - 1)
        A = np.diag(nu) - np.diag(ones, 1) - np.diag(ones, -1)
        A[0, -1] = A[-1, 0] = -1.0
        B = gamma * (np.diag(ones, -1) - np.diag(ones, 1))
        B[-1, 0], B[0, -1] = -gamma, gamma
        ring = np.linalg.eigvalsh(np.block([[A, B], [-B, -A]]))
        assert np.max(np.abs(ring)) <= edge + 1e-9
        assert abs(ring.max() - edge) <= 1e-3
        samples = np.linspace(-edge, edge, 4001)
        gap = np.max(np.min(np.abs(samples[:, None] - ring[None, :]), axis=1))
        assert gap <= 5e-2


class TestAlmostSureSpectrum:
    def test_period_two_fills_the_constant_gap(self):
        rho = SingleSiteDistribution.uniform(-1.0, 1.0)
        u1 = almost_sure_spectrum_approx(rho, 0.5, max_period=1, samples_per_period=41)
        u2 = almost_sure_spectrum_approx(rho, 0.5, max_period=2, samples_per_period=41)
        assert not u1.covers(-3.0, 3.0, 1e-2)
        assert u2.covers(-3.0, 3.0, 1e-2)
        # strict enlargement: the constant-potential gap midpoint is filled
        assert u1.distance(np.array([0.0]))[0] > 0.5
        assert u2.distance(np.array([0.0]))[0] == 0.0

    def test_large_field_needs_no_longer_periods(self):
        rho = SingleSiteDistribution.uniform(2.5, 3.5)
        u1 = almost_sure_spectrum_approx(rho, 0.5, max_period=1, samples_per_period=21)
        u2 = almost_sure_spectrum_approx(rho, 0.5, max_period=2, samples_per_period=9)
        assert u1.hausdorff(u2) <= 1e-3

    def test_inclusion_in_single_large_realization_hull(self, two_point_field):
        # one-sided sanity check; band-edge convergence is slow (extreme
        # eigenvalues need long constant runs of the field), hence the scale
        approx = almost_sure_spectrum_approx(two_point_field, 0.5, max_period=2, samples_per_period=5)
        n = 60_000
        params = ModelParams(n, 0.5, two_point_field)
        real = sample_disorder(params, seed=0)
        hop = np.full(n - 1, params.mu)
        A = sp.diags([real.nu, -hop, -hop], [0, 1, -1])
        B = sp.diags([-hop * params.gamma, hop * params.gamma], [1, -1])
        M = sp.bmat([[A, B], [-B, -A]], format="csr")
        # the sparse assembly mirrors assemble_hat_form; cross-check at n=40
        small = ModelParams(40, 0.5, two_point_field)
        sreal = sample_disorder(small, seed=0)
        hop = np.full(39, small.mu)
        As = sp.diags([sreal.nu, -hop, -hop], [0, 1, -1])
        Bs = sp.diags([-hop * small.gamma, hop * small.gamma], [1, -1])
        assert np.array_equal(
            sp.bmat([[As, Bs], [-Bs, -As]]).toarray(),
            assemble_hat_form(small, sreal).dense(),
        )
        v0 = np.ones(M.shape[0])
        lo = eigsh(M, k=1, which="SA", return_eigenvectors=False, v0=v0)[0]
        hi = eigsh(M, k=1, which="LA", return_eigenvectors=False, v0=v0)[0]
        alo, ahi = approx.hull
        assert alo >= lo - 5e-2
        assert ahi <= hi + 5e-2


# The scalar Bloch scan of the 2p x 2p Hermitian symbol: one symbol per
# angle over the whole circle, one golden-section search per branch
# extremum, run until its bracket is below 1e-13, so that it closes on
# kinks too.  The batched search runs on the p x p chiral coupling
# instead, an independent route, and must reproduce its bands to rounding.


def scalar_symbol(pot, gamma, theta):
    pot = np.asarray(pot, dtype=float)
    p = pot.size
    S = anisotropy_block(gamma)
    H = np.zeros((2 * p, 2 * p), dtype=complex)
    for j in range(p):
        H[2 * j:2 * j + 2, 2 * j:2 * j + 2] = pot[j] * SIGMA_Z
    for j in range(p - 1):
        H[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] = -S
        H[2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] = -S.T
    H[0:2, 2 * p - 2:2 * p] += -S.T * np.exp(-1j * theta)
    H[2 * p - 2:2 * p, 0:2] += -S * np.exp(1j * theta)
    return H


def scalar_golden(fun, a, b, sign):
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = sign * fun(c), sign * fun(d)
    while b - a >= 1e-13:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = sign * fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = sign * fun(d)
    return sign * min(fc, fd)


def scalar_band_pairs(pot, gamma, base_grid=512):
    thetas = np.linspace(0.0, 2.0 * np.pi, base_grid, endpoint=False)
    branches = np.linalg.eigvalsh(np.stack([scalar_symbol(pot, gamma, t) for t in thetas]))
    step = thetas[1] - thetas[0]
    pairs = []
    for i in range(branches.shape[1]):
        values = branches[:, i]

        def branch(theta, _i=i):
            return float(np.linalg.eigvalsh(scalar_symbol(pot, gamma, theta))[_i])

        j_min, j_max = int(np.argmin(values)), int(np.argmax(values))
        lo = scalar_golden(branch, thetas[j_min] - step, thetas[j_min] + step, +1.0)
        hi = scalar_golden(branch, thetas[j_max] - step, thetas[j_max] + step, -1.0)
        pairs.append((min(lo, float(values[j_min])), max(hi, float(values[j_max]))))
    return pairs


def period_one_closed_form(nu, gamma):
    """Bands of E = +-sqrt((nu - 2x)^2 + 4 gamma^2 (1 - x^2)), x in [-1, 1]."""
    x = np.linspace(-1.0, 1.0, 3)
    vertex = nu / (2.0 * (1.0 - gamma**2))
    if -1.0 < vertex < 1.0:
        x = np.append(x, vertex)
    g = np.maximum((nu - 2.0 * x) ** 2 + 4.0 * gamma**2 * (1.0 - x**2), 0.0)
    e_lo, e_hi = np.sqrt(g.min()), np.sqrt(g.max())
    return IntervalUnion.from_intervals([(-e_hi, -e_lo), (e_lo, e_hi)])


class TestBatchedBlochScan:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, -0.3, 2.0])
    @pytest.mark.parametrize(
        "potential",
        [[1.0], [-0.7], [0.0], [-1.0, 1.0], [0.25, 0.0], [3.0, 4.0], [0.3, -1.2, 0.8], [0.0, 0.0, 1.0]],
    )
    def test_bands_equal_the_scalar_scan_exactly(self, potential, gamma):
        want = IntervalUnion.from_intervals(scalar_band_pairs(potential, gamma))
        got = periodic_spectrum(potential, gamma)
        assert got.intervals.shape == want.intervals.shape
        assert got.hausdorff(want) <= 1e-12

    def test_union_equals_the_scalar_scan_and_ignores_chunking(self, monkeypatch):
        rho = SingleSiteDistribution.uniform(-1.0, 1.0)
        lattice = rho.support_lattice(4)
        pots = [(a,) for a in lattice] + [(a, b) for i, a in enumerate(lattice) for b in lattice[i + 1:]]
        want = IntervalUnion.from_intervals([pair for pot in pots for pair in scalar_band_pairs(pot, 0.5)])
        got = almost_sure_spectrum_approx(rho, 0.5, max_period=2, samples_per_period=4)
        assert got.intervals.shape == want.intervals.shape
        assert got.hausdorff(want) <= 1e-12
        # three period-1 potentials per chunk and one period-2 potential,
        # instead of every potential of a period in one chunk
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 3 * spectral._PROBES.size)
        small = almost_sure_spectrum_approx(rho, 0.5, max_period=2, samples_per_period=4)
        assert small.intervals.tobytes() == got.intervals.tobytes()

    # gamma = 0 included: there and at |nu| < 2 the two branches cross at
    # E = 0 with a kink, which the search must close on without a gap
    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(-3.0, 3.0),
        size=st.one_of(st.just(0.0), st.floats(0.0, 2.0).filter(lambda g: abs(g - 1.0) > 1e-3)),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_period_one_matches_the_closed_form(self, nu, size, sign):
        gamma = sign * size
        got = periodic_spectrum([nu], gamma)
        assert got.hausdorff(period_one_closed_form(nu, gamma)) <= 1e-7

    @pytest.mark.parametrize("potential", [[1.0], [-1.0, 1.0], [0.3, -1.2, 0.8]])
    def test_floquet_symbol_is_a_row_of_the_stacked_builder(self, potential):
        pots = np.array([potential, np.flip(potential)], dtype=float)
        thetas = np.array([-0.01, 0.0, 1.3, np.pi, 6.2])
        stacked = spectral._bloch_symbols(pots[:, None, :], 0.5, thetas)
        assert stacked.shape == (2, thetas.size, 2 * len(potential), 2 * len(potential))
        for k in range(2):
            for t, theta in enumerate(thetas):
                one = floquet_symbol(pots[k], 0.5, theta)
                assert one.tobytes() == stacked[k, t].tobytes()
                assert one.tobytes() == scalar_symbol(pots[k], 0.5, theta).tobytes()

    # the sorted +-sigma of the coupling are the symbol's eigenvalues, and
    # sigma is even in theta, which is what lets the scan cover [0, pi] only
    @settings(max_examples=150, deadline=None)
    @given(
        potential=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
        gamma=st.floats(-3.0, 3.0).filter(lambda g: abs(g) != 1.0),
        theta=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, 2.0 * np.pi, exclude_max=True)),
    )
    def test_symbol_eigenvalues_are_the_signed_coupling_singular_values(self, potential, gamma, theta):
        H = floquet_symbol(potential, gamma, theta)
        want = np.linalg.eigvalsh(H)
        pots = np.array(potential)
        sigma = np.linalg.svd(spectral._bloch_couplings(pots, gamma, np.array(theta)), compute_uv=False)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(np.sort(np.concatenate([-sigma, sigma])) - want)) <= tol
        mirrored = np.linalg.svd(spectral._bloch_couplings(pots, gamma, np.array(-theta)), compute_uv=False)
        assert np.max(np.abs(mirrored - sigma)) <= tol

    # an independent dense scan of the symbol over the whole circle: every
    # scanned eigenvalue lies in the union, and every point of the union lies
    # within the grid's half step times max |dE/dtheta| <= ||dH/dtheta|| of a
    # scanned eigenvalue.  ||dH/dtheta|| = ||S|| = 1 + |gamma| for p >= 2, and
    # at p = 1, where both corners fall on the one block, |d(nu - 2 cos theta
    # + 2 i gamma sin theta)/dtheta| <= 2 max(1, |gamma|).  gamma = 0, where
    # branches meet at kinks, is included
    @settings(max_examples=40, deadline=None)
    @given(
        potential=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
        size=st.one_of(st.just(0.0), st.floats(0.0, 3.0).filter(lambda g: g != 1.0)),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_union_is_the_dense_symbol_scan(self, potential, size, sign):
        gamma = sign * size
        union = periodic_spectrum(potential, gamma)
        thetas = np.linspace(0.0, 2.0 * np.pi, 2001)
        scanned = np.linalg.eigvalsh(np.stack([floquet_symbol(potential, gamma, t) for t in thetas])).ravel()
        assert float(union.distance(scanned).max()) <= 1e-9
        grid = np.sort(scanned)
        slope = 2.0 * max(1.0, abs(gamma)) if len(potential) == 1 else 1.0 + abs(gamma)
        # the union's points farthest from the scan: its edges and the
        # midpoints of the scan's gaps that fall inside it
        mids = 0.5 * (grid[1:] + grid[:-1])
        points = np.concatenate([union.intervals.ravel(), mids[union.distance(mids) == 0.0]])
        right = np.clip(np.searchsorted(grid, points), 1, grid.size - 1)
        nearest = np.minimum(np.abs(points - grid[right - 1]), np.abs(points - grid[right]))
        assert float(nearest.max()) <= slope * np.pi / 2000 + 1e-9

    # the two facts the band search rests on.  prod_k (E^2 - sigma_k(theta)^2)
    # = det(E^2 - C C^H) is a polynomial of degree <= 2 in x = cos theta: its
    # interpolant at 9 Chebyshev points has no higher coefficients, up to the
    # rounding of the factors, each within a few eps of E^2 + max sigma^2.
    # So every sorted branch over [0, pi] turns at most once, here on a
    # dense grid, with steps below rounding ignored.
    @settings(max_examples=60, deadline=None)
    @given(
        potential=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
        gamma=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).filter(lambda g: abs(abs(g) - 1.0) > 1e-3)),
        energy=st.floats(0.0, 5.0),
    )
    def test_branches_are_quadratic_in_cos_theta_and_turn_at_most_once(self, potential, gamma, energy):
        pots = np.array(potential)
        x = np.cos(np.pi * (np.arange(9) + 0.5) / 9)
        sigma = np.linalg.svd(spectral._bloch_couplings(pots, gamma, np.arccos(x)), compute_uv=False)
        det = np.prod(energy**2 - sigma**2, axis=-1)
        coef = np.polynomial.chebyshev.chebfit(x, det, 8)
        scale = (energy**2 + float(sigma.max()) ** 2) ** pots.size
        assert np.max(np.abs(coef[3:])) <= 1e-12 * scale
        grid = np.linalg.svd(spectral._bloch_couplings(pots, gamma, np.linspace(0.0, np.pi, 2001)),
                             compute_uv=False)
        steps = np.diff(grid, axis=0)
        for k in range(pots.size):
            signs = np.sign(steps[np.abs(steps[:, k]) > 1e-12 * max(1.0, float(grid.max())), k])
            assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1

    # kinks leave no gap: sigma_1 touches 0 at gamma = 0, and at gamma = 2 two
    # branches of (0, 0, 1) cross at E = sqrt 7
    def test_kinks_leave_no_gap(self):
        assert periodic_spectrum([1.0], 0.0).intervals.tolist() == [[-3.0, 3.0]]
        union = periodic_spectrum([0.0, 0.0, 1.0], 2.0)
        assert union.intervals.shape == (4, 2)
        assert union.covers(np.sqrt(7.0) - 1e-3, np.sqrt(7.0) + 1e-3, 0.0)

    # slopes grow like |gamma|, so the product of two overflows past 1e154
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma", [1e155, -1e300])
    def test_huge_anisotropy_overflows_nothing(self, gamma):
        edge = 2.0 * abs(gamma)
        assert periodic_spectrum([1.0, -0.5], gamma).intervals.tolist() == [[-edge, -0.5], [0.5, edge]]
        rho = SingleSiteDistribution.uniform(-1.0, 1.0)
        assert almost_sure_spectrum_approx(rho, gamma, 2, 3).intervals.tolist() == [[-edge, edge]]

    def test_enumeration_size_guard(self, monkeypatch):
        rho = SingleSiteDistribution.uniform(-1.0, 1.0)
        # 3 support points up to period 2 enumerate 3 * 1 + 9 * 2 = 21 sites
        monkeypatch.setattr(spectral, "_MAX_APPROXIMANT_SITES", 21)
        almost_sure_spectrum_approx(rho, 0.5, max_period=2, samples_per_period=3)
        monkeypatch.setattr(spectral, "_MAX_APPROXIMANT_SITES", 20)
        with pytest.raises(ConfigError, match="20 sites"):
            almost_sure_spectrum_approx(rho, 0.5, max_period=2, samples_per_period=3)
