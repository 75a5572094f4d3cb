import numpy as np
import pytest
import scipy.linalg

from randblock.errors import ConfigError
from randblock.model import (
    DisorderRealization,
    ModelParams,
    SingleSiteDistribution,
    assemble_hat_form,
    sample_disorder,
)
from randblock.xy_oracle import (
    LOWERING,
    PAULI_Z,
    ManyBodyOperator,
    _fermionic_sup_commutator,
    _one_particle_rows,
    build_hamiltonian,
    build_jordan_wigner,
    free_fermion_spectrum,
    lr_commutator_stats,
    site_operator,
    slice_chain,
    verify_free_fermion_spectrum,
    verify_heisenberg_identity,
    verify_quadratic_form,
)


def uniform_params(n, gamma=0.5, half_width=1.5):
    return ModelParams.xy(n=n, gamma=gamma, rho=SingleSiteDistribution.uniform(-half_width, half_width))


class TestHamiltonian:
    def test_single_site_is_field_times_sz(self):
        params = uniform_params(2)
        real = sample_disorder(params, seed=3)
        H = build_hamiltonian(params, real, n=1)
        assert np.array_equal(H.matrix, real.nu[0] * PAULI_Z)

    def test_isotropic_two_site_spectrum_both_routes(self):
        # zero field, gamma=0, two sites: both the dense diagonalization
        # and the signed sums of one-particle levels give {-2, 0, 0, 2}
        params = ModelParams.xy(n=2, gamma=0.0, rho=SingleSiteDistribution.two_point(0.0, 1.0, 0.5))
        real = DisorderRealization(seed=0, index=0, nu=np.zeros(2))
        H = build_hamiltonian(params, real)
        dense = np.linalg.eigvalsh(H.matrix)
        signed = free_fermion_spectrum(assemble_hat_form(params, real))
        expected = np.array([-2.0, 0.0, 0.0, 2.0])
        np.testing.assert_allclose(dense, expected, atol=1e-12)
        np.testing.assert_allclose(signed, expected, atol=1e-12)

    def test_hermitian(self):
        params = uniform_params(5, gamma=0.8)
        H = build_hamiltonian(params, sample_disorder(params, seed=9))
        assert np.max(np.abs(H.matrix - H.matrix.conj().T)) == 0.0

    def test_qubit_cap(self):
        params = uniform_params(13)
        with pytest.raises(ConfigError):
            build_hamiltonian(params, sample_disorder(params, seed=0))
        with pytest.raises(ConfigError):
            build_jordan_wigner(13)

    def test_realization_too_short(self):
        params = uniform_params(4)
        real = sample_disorder(params, seed=0)
        with pytest.raises(ConfigError):
            build_hamiltonian(params, real, n=6)

    def test_site_operator_bounds(self):
        with pytest.raises(ConfigError):
            site_operator(PAULI_Z, 4, 4)

    def test_rejects_nonhermitian_operator(self):
        with pytest.raises(ConfigError):
            ManyBodyOperator(n=1, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestJordanWigner:
    def test_car_single_mode(self):
        fermions = build_jordan_wigner(1)
        c = fermions.c[0]
        assert np.array_equal(c @ c, np.zeros((2, 2)))
        assert np.array_equal(c @ c.conj().T + c.conj().T @ c, np.eye(2))
        assert fermions.car_defect() == 0.0

    def test_car_defect_eight_modes(self):
        assert build_jordan_wigner(8).car_defect() <= 1e-12


class TestQuadraticForm:
    def test_convention_is_identity(self):
        # H equals the fermionic quadratic form with no rescaling and no
        # constant offset; the report must say so, not just "matched".
        params = uniform_params(4, half_width=2.0)
        real = sample_disorder(params, seed=11)
        H = build_hamiltonian(params, real)
        report = verify_quadratic_form(H, assemble_hat_form(params, real))
        assert report.scale == 1.0
        assert report.shift_per_site == 0.0
        assert report.matched
        assert report.residual <= 1e-10 * max(1.0, float(np.max(np.abs(H.matrix))))

    def test_anisotropy_sweep(self):
        for gamma in (0.0, 0.5, 2.0):
            params = uniform_params(3, gamma=gamma)
            real = sample_disorder(params, seed=21)
            report = verify_quadratic_form(build_hamiltonian(params, real), assemble_hat_form(params, real))
            assert report.matched, f"gamma={gamma}: residual {report.residual:.3e}"


class TestFreeFermionSpectrum:
    def test_matches_dense_n4(self):
        params = uniform_params(4, half_width=2.0)
        real = sample_disorder(params, seed=11)
        H = build_hamiltonian(params, real)
        assert verify_free_fermion_spectrum(H, assemble_hat_form(params, real)) <= 1e-8

    def test_level_count(self):
        params = uniform_params(3)
        spec = free_fermion_spectrum(assemble_hat_form(params, sample_disorder(params, seed=2)))
        assert spec.shape == (8,)
        assert np.all(np.diff(spec) >= 0)
        # particle-hole symmetry of the signed sums
        np.testing.assert_allclose(spec, -spec[::-1], atol=1e-12)


class TestHeisenberg:
    def test_time_zero(self):
        params = uniform_params(4)
        report = verify_heisenberg_identity(params, sample_disorder(params, seed=7), 4, [0.0])
        assert report.max_residual <= 1e-12

    def test_single_qubit_closed_form(self):
        # one site: tau_t(c) = exp(-2 i nu t) c, the doubled time made visible
        params = uniform_params(2)
        nu = sample_disorder(params, seed=3).nu[0]
        c = LOWERING
        for t in (0.0, 0.7, 2.3):
            U = scipy.linalg.expm(1j * t * nu * PAULI_Z)
            lhs = U @ c @ U.conj().T
            assert np.max(np.abs(lhs - np.exp(-2j * nu * t) * c)) <= 1e-12

    def test_six_sites(self):
        params = uniform_params(6)
        report = verify_heisenberg_identity(params, sample_disorder(params, seed=7), 6, [0.5, 1.0, 2.0])
        assert report.max_residual <= 1e-8
        assert report.t_values.shape == (3,)

    def test_realization_sweep(self):
        params = uniform_params(5, gamma=2.0)
        for index in range(5):
            real = sample_disorder(params, seed=31, index=index)
            report = verify_heisenberg_identity(params, real, 5, [1.5, 5.0])
            assert report.max_residual <= 1e-8


class TestSliceChain:
    def test_full_length_is_identity(self):
        params = uniform_params(4)
        real = sample_disorder(params, seed=1)
        sp, sr = slice_chain(params, real, 4)
        assert sp is params and sr is real

    def test_prefix(self):
        params = uniform_params(6)
        real = sample_disorder(params, seed=1)
        sp, sr = slice_chain(params, real, 3)
        assert sp.n == 3
        np.testing.assert_array_equal(sr.nu, real.nu[:3])


class TestCommutatorStats:
    def test_eigh_route_matches_expm(self):
        params = uniform_params(5)
        Mhat = assemble_hat_form(params, sample_disorder(params, seed=12)).dense()
        n, ks = 5, [1, 2, 4]
        t_grid = np.linspace(0.0, 4.0, 30)
        rows = _one_particle_rows(Mhat, t_grid, n)
        expected = []
        for t, T in zip(t_grid, rows):
            ref = scipy.linalg.expm(-2j * t * Mhat)
            np.testing.assert_allclose(T, ref[:n], rtol=0, atol=1e-12)
            # the per-time, per-separation Majorana sum, with expm as reference
            w_m = np.real(ref[0, :n]) + np.real(ref[0, n:])
            w_mm = np.imag(ref[0, n:]) - np.imag(ref[0, :n])
            expected.append(
                [2.0 * np.sqrt(w_mm[k] ** 2 + np.sum(w_m[k + 1:] ** 2 + w_mm[k + 1:] ** 2)) for k in ks]
            )
        sups = _fermionic_sup_commutator(Mhat, n, ks, t_grid)
        np.testing.assert_allclose(sups, np.max(expected, axis=0), rtol=0, atol=1e-12)

    def test_fermionic_matches_dense(self):
        params = uniform_params(6)
        t_grid = np.linspace(0.0, 3.0, 25)
        kwargs = dict(n=6, j=0, ks=[2, 4], t_grid=t_grid, num_realizations=3, seed=5)
        fermionic = lr_commutator_stats(params, method="fermionic", **kwargs)
        dense = lr_commutator_stats(params, method="dense", **kwargs)
        for f, d in zip(fermionic, dense):
            assert f.separation == d.separation
            assert abs(f.mean_sup - d.mean_sup) <= 1e-12
            assert abs(f.se - d.se) <= 1e-12

    def test_separation_bookkeeping(self):
        params = uniform_params(6)
        stats = lr_commutator_stats(
            params, n=6, j=0, ks=[1, 3], t_grid=np.linspace(0.0, 1.0, 5), num_realizations=2, seed=0
        )
        assert [s.separation for s in stats] == [1, 3]
        assert all(s.num_realizations == 2 for s in stats)

    def test_validation(self):
        params = uniform_params(6)
        with pytest.raises(ConfigError):
            lr_commutator_stats(params, n=6, j=2, ks=[1], num_realizations=1)
        with pytest.raises(ConfigError):
            lr_commutator_stats(params, n=6, j=1, ks=[3], num_realizations=1, method="fermionic")
        with pytest.raises(ConfigError):
            lr_commutator_stats(params, n=6, j=0, ks=[3], num_realizations=1, method="grid")
