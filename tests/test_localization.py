import numpy as np
import pytest

from randblock import localization, spectral
from randblock.errors import ConfigError, NumericalFailure
from randblock.localization import (
    CorrelatorField,
    eigenfunction_correlator,
    ensemble_correlator,
    fit_decay,
    wegner_probe,
)
from randblock.model import (
    BlockJacobiMatrix,
    ModelParams,
    SingleSiteDistribution,
    assemble_block_jacobi,
    sample_disorder,
)
from randblock.spectral import SpectralData, eigensolve, window_eigensolve
from randblock.transfer import eigenvalue_counts


def evolution_block_norm(spec: SpectralData, window: tuple[float, float], j: int, k: int, t: float) -> float:
    """Operator norm of P_j exp(-itM) chi_J(M) P_k^* for one realization."""
    lo, hi = window
    mask = spec.window_mask(lo, hi)
    if not mask.any():
        return 0.0
    blocks = spec.eigenvectors.reshape(spec.n, spec.ell, -1)
    Wj, Wk = blocks[j][:, mask], blocks[k][:, mask]
    phases = np.exp(-1j * t * spec.eigenvalues[mask])
    return float(np.linalg.norm((Wj * phases) @ Wk.conj().T, 2))


def chiral_spectra(params, window, num_realizations, seed):
    """Eigenpairs in the window of realizations index = 0..num_realizations-1."""
    return [window_eigensolve(assemble_block_jacobi(params, sample_disorder(params, seed, index)), window)
            for index in range(num_realizations)]


class TestCorrelator:
    def test_window_without_eigenvalues_gives_zero_field(self, xy_params):
        p = xy_params(n=20)
        spec = eigensolve(assemble_block_jacobi(p, sample_disorder(p, 0)))
        field = eigenfunction_correlator(spec, (50.0, 60.0))
        assert field.empty
        assert np.all(field.Q == 0.0)

    def test_symmetric_and_nonnegative(self, xy_params):
        p = xy_params(n=25)
        spec = eigensolve(assemble_block_jacobi(p, sample_disorder(p, 1)))
        Q = eigenfunction_correlator(spec, (0.5, 1.5)).Q
        assert Q.shape == (25, 25)
        assert np.all(Q >= 0)
        assert np.abs(Q - Q.T).max() <= 1e-14

    # the window below 0 pins the column order of the sign -1 route: -sigma ascending
    @pytest.mark.parametrize("window", [(0.5, 1.5), (-1.5, -0.5)])
    def test_single_realization_mean_is_the_field(self, xy_params, window):
        p = xy_params(n=15)
        mean = ensemble_correlator(p, window, num_realizations=1, seed=9)
        spec = chiral_spectra(p, window, 1, seed=9)[0]
        single = eigenfunction_correlator(spec, window)
        assert np.array_equal(mean.Q, single.Q)
        assert mean.num_realizations == 1

    @pytest.mark.parametrize("window", [(0.5, 1.5), (-1.5, -0.5)])
    def test_mean_is_the_in_order_sum_of_single_fields(self, xy_params, window):
        p = xy_params(n=15)
        mean = ensemble_correlator(p, window, num_realizations=5, seed=9)
        specs = chiral_spectra(p, window, 5, seed=9)
        fields = [eigenfunction_correlator(s, window) for s in specs]
        assert np.array_equal(mean.Q, sum(f.Q for f in fields) / 5)
        assert mean.mean_window_count == np.mean([f.mean_window_count for f in fields])
        with pytest.raises(ConfigError, match="at least one realization"):
            ensemble_correlator(p, window, num_realizations=0, seed=9)

    def test_ensemble_never_builds_dense(self, xy_params, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built on the correlator path")

        monkeypatch.setattr(BlockJacobiMatrix, "dense", refuse)
        field = ensemble_correlator(xy_params(n=30), (0.5, 1.5), num_realizations=3, seed=4)
        assert field.Q.shape == (30, 30) and not field.empty

    def test_bench_window_never_takes_the_svd(self, monkeypatch):
        # the correlator job of the benchmark: every chain passes the window route's guard
        def refuse(*args, **kwargs):
            raise AssertionError("SVD taken for a window away from 0")

        monkeypatch.setattr(spectral.np.linalg, "svd", refuse)
        p = ModelParams(200, 0.5, SingleSiteDistribution.two_point(0.0, 1.0))
        field = ensemble_correlator(p, (0.5, 1.5), num_realizations=60, seed=1002)
        assert field.Q.shape == (200, 200) and not field.empty

    def test_disjoint_seed_batches_agree(self, xy_params):
        # entrywise agreement of two independent ensemble means, in units of
        # the combined standard error computed from the per-realization fields
        p = xy_params(n=60)
        window = (0.5, 1.5)

        def batch(seed):
            specs = chiral_spectra(p, window, 25, seed=seed)
            return np.stack([eigenfunction_correlator(s, window).Q for s in specs])

        qa, qb = batch(100), batch(900)
        pairs = [(3, 10), (10, 40), (20, 50), (40, 41), (0, 59)]
        for j, k in pairs:
            se = np.sqrt(
                qa[:, j, k].var(ddof=1) / qa.shape[0] + qb[:, j, k].var(ddof=1) / qb.shape[0]
            )
            assert abs(qa[:, j, k].mean() - qb[:, j, k].mean()) <= 3 * se


class TestDomination:
    def test_correlator_dominates_evolution_blocks(self, xy_params):
        # Q is an upper bound for every unitary-evolution block norm on the
        # window, uniformly in time
        p = xy_params(n=30)
        spec = eigensolve(assemble_block_jacobi(p, sample_disorder(p, 7)))
        window = (0.5, 2.0)
        Q = eigenfunction_correlator(spec, window).Q
        t_grid = np.linspace(0.0, 10.0, 200)
        rng = np.random.default_rng(3)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(40, 2))]
        for j, k in pairs:
            for t in t_grid:
                assert evolution_block_norm(spec, window, j, k, float(t)) <= Q[j, k] + 1e-12


class TestDecayFit:
    def synthetic_field(self, n=60, eta=0.08, zeta=0.9, C=1.0):
        d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        Q = C * np.exp(-eta * d.astype(float) ** zeta)
        return CorrelatorField(window=(0.0, 1.0), Q=Q, num_realizations=10, mean_window_count=5.0)

    def test_recovers_exact_stretched_exponential(self):
        fit = fit_decay(self.synthetic_field(), zeta=0.9)
        assert fit.eta == pytest.approx(0.08, abs=1e-10)
        assert fit.log_C == pytest.approx(0.0, abs=1e-9)

    def test_noisy_field_ci_covers_truth(self):
        # 5% multiplicative noise: the regime where bin scatter, not
        # fit micro-bias, sets the error bar.
        field = self.synthetic_field()
        rng = np.random.default_rng(9)
        field.Q *= np.exp(rng.normal(scale=0.05, size=field.Q.shape))
        fit = fit_decay(field, zeta=0.9)
        lo, hi = fit.eta_ci
        assert lo <= 0.08 <= hi
        assert fit.eta == pytest.approx(0.08, abs=2e-3)
        assert not fit.curvature_flag

    def test_boundary_sites_are_excluded(self):
        clean = self.synthetic_field()
        dirty = self.synthetic_field()
        dirty.Q[:5, :] = 7.0  # garbage outside the interior window
        dirty.Q[:, :5] = 7.0
        dirty.Q[-5:, :] = 7.0
        dirty.Q[:, -5:] = 7.0
        a = fit_decay(clean, zeta=0.9, boundary=5)
        b = fit_decay(dirty, zeta=0.9, boundary=5)
        assert a.eta == b.eta and a.log_C == b.log_C

    def test_mismatched_exponent_trips_curvature_flag(self):
        # data decays with zeta=1 but is fitted at zeta=0.5: strongly curved
        fit = fit_decay(self.synthetic_field(eta=0.15, zeta=1.0), zeta=0.5)
        assert fit.curvature_flag

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_three_bins_never_flag_curvature(self, xy_params, seed):
        # n = 17 less 5 sites at each end leaves 7 interior sites, so distances 1-3
        # have at least MIN_PAIRS_PER_BIN pairs: a quadratic through three bins is exact
        field = ensemble_correlator(xy_params(n=17), (0.5, 1.5), num_realizations=30, seed=seed)
        fit = fit_decay(field, zeta=0.9, boundary=5)
        assert fit.distances.tolist() == [1.0, 2.0, 3.0]
        assert np.isfinite(fit.curvature_se) and not fit.curvature_flag
        # a fourth bin gives the curvature a residual to be measured against again
        curved = fit_decay(self.synthetic_field(n=18, eta=0.15, zeta=1.0), zeta=0.5, boundary=5)
        assert curved.distances.size == 4 and curved.curvature_flag

    def test_needs_enough_distance_bins(self):
        field = self.synthetic_field(n=12)  # interior of 2 sites -> 1 distance
        with pytest.raises(NumericalFailure):
            fit_decay(field, zeta=0.9, boundary=5)

    def test_gapped_window_decay_is_positive(self):
        rho = SingleSiteDistribution.two_point(2.5, 3.5, 0.5)
        p = ModelParams(120, 0.5, rho)
        field = ensemble_correlator(p, (0.0, 8.0), num_realizations=30, seed=17)
        fit = fit_decay(field, zeta=0.9)
        assert fit.eta > 0
        assert fit.eta_ci[0] > 0


class TestWegner:
    def test_gap_keeps_probability_zero(self):
        rho = SingleSiteDistribution.two_point(2.5, 3.5, 0.5)
        p = ModelParams(20, 0.5, rho)
        # spectrum avoids (-0.5, 0.5) a.s.; eps = e^{-sqrt(L)} < 0.5 throughout
        for rec in wegner_probe(p, 0.0, [20, 40], beta=0.5, sigma=1.0, samples=30, seed=4):
            assert rec.hits == 0 and rec.probability == 0.0

    def test_huge_window_hits_everything(self, two_point_field):
        p = ModelParams(20, 0.5, two_point_field)
        recs = wegner_probe(p, 0.0, [10], beta=0.5, sigma=-1.0, samples=20, seed=2)
        assert recs[0].probability == 1.0

    @staticmethod
    def nearest_eigenvalue_hits(rho, E, L, eps, samples, seed):
        p_L = ModelParams(L, 0.5, rho)
        reals = [sample_disorder(p_L, seed, (L << 32) | s) for s in range(samples)]
        chains = [assemble_block_jacobi(p_L, real) for real in reals]
        return sum(np.min(np.abs(eigensolve(M, want_vectors=False).eigenvalues - E)) <= eps for M in chains)

    @pytest.mark.parametrize("E", [0.7, 1.011822, 1.3])
    def test_hits_equal_nearest_eigenvalue_reference(self, E):
        p = ModelParams(2, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
        L_list, beta, sigma, samples, seed = [50, 100, 200, 400], 0.5, 0.5, 12, 1003
        records = wegner_probe(p, E, L_list, beta=beta, sigma=sigma, samples=samples, seed=seed)
        for rec, L in zip(records, L_list):
            eps = np.exp(-sigma * L**beta)
            assert rec.eps == eps
            assert rec.hits == self.nearest_eigenvalue_hits(p.rho, E, L, eps, samples, seed)
        assert any(0 < rec.hits < samples for rec in records)

    def test_unresolved_counts_fall_back_to_the_eigensolve(self, two_point_field, monkeypatch):
        # eps < ulp(1) / 2, so E + eps rounds to E = 1: a chain with nu_1 = 1 has the singular first
        # pivot diag(0, -2) at the upper end and a near-singular one at the lower end
        p = ModelParams(2, 0.5, two_point_field)
        L, samples, seed = 1400, 6, 7
        eps = np.exp(-np.sqrt(L))
        assert 1.0 + eps == 1.0
        solved = []

        def traced(M, **kw):
            solved.append(M.V[0, 0, 0])
            return eigensolve(M, **kw)

        monkeypatch.setattr(spectral, "eigensolve", traced)  # the count owner's eigensolve
        (rec,) = wegner_probe(p, 1.0, [L], beta=0.5, sigma=1.0, samples=samples, seed=seed)
        p_L = ModelParams(L, 0.5, two_point_field)
        first = [sample_disorder(p_L, seed, (L << 32) | s).nu[0] for s in range(samples)]
        assert 0 < first.count(1.0) <= solved.count(1.0)  # every chain with nu_1 = 1 is eigensolved
        assert rec.hits == self.nearest_eigenvalue_hits(two_point_field, 1.0, L, eps, samples, seed)

    def test_batches_of_chains_give_the_same_hits(self, monkeypatch):
        # the probe sweeps every sample of one L at once; one sweep per chain must give the same hits
        p = ModelParams(2, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
        args = dict(E=0.7, L_list=[50, 200], beta=0.5, sigma=0.3, samples=7, seed=5)
        whole = wegner_probe(p, **args)

        def chain_by_chain(chains, x):
            counts, resolved = zip(*(eigenvalue_counts([M], x) for M in chains))
            return np.concatenate(counts), np.concatenate(resolved)

        monkeypatch.setattr(spectral, "eigenvalue_counts", chain_by_chain)  # the count owner's sweep
        assert wegner_probe(p, **args) == whole
        assert any(0 < rec.hits < 7 for rec in whole)

    def test_probability_decays_with_length(self, two_point_field):
        p = ModelParams(50, 0.5, two_point_field)
        recs = wegner_probe(p, 1.0, [20, 40, 80], beta=0.5, sigma=1.0, samples=60, seed=0)
        probs = [r.probability for r in recs]
        eps = [r.eps for r in recs]
        assert all(b <= a for a, b in zip(probs, probs[1:]))
        assert all(e == pytest.approx(np.exp(-np.sqrt(L))) for e, L in zip(eps, [20, 40, 80]))
        assert all(r.probability == r.hits / r.samples for r in recs)
