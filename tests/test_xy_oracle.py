from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from randblock.errors import ConfigError
from randblock.model import (
    DisorderRealization,
    HatBlockMatrix,
    ModelParams,
    SingleSiteDistribution,
    assemble_hat_form,
    sample_disorder,
)
from randblock.xy_oracle import (
    LOWERING,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    FermionSet,
    ManyBodyOperator,
    _dense_sup_commutator,
    _fermionic_sup_commutator,
    _one_particle_rows,
    _quadratic_form,
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
    return ModelParams(n=n, gamma=gamma, rho=SingleSiteDistribution.uniform(-half_width, half_width))


EYE_2 = np.eye(2, dtype=complex)


def kron_site(op, j, n):
    """Reference: op on qubit j of n as a kron chain, qubit 0 the leftmost factor."""
    return reduce(np.kron, [EYE_2] * j + [np.asarray(op, dtype=complex)] + [EYE_2] * (n - 1 - j))


def dense_car_defect(c):
    """Reference: the worst CAR violation by dense products."""
    worst = 0.0
    for i in range(len(c)):
        for j in range(i, len(c)):
            anti = c[i] @ c[j] + c[j] @ c[i]
            mixed = c[i] @ c[j].conj().T + c[j].conj().T @ c[i] - (np.eye(len(c[i])) if i == j else 0.0)
            worst = max(worst, float(np.max(np.abs(anti))), float(np.max(np.abs(mixed))))
    return worst


class TestHamiltonian:
    def test_single_site_is_field_times_sz(self):
        params = uniform_params(2)
        real = sample_disorder(params, seed=3)
        H = build_hamiltonian(params, real, n=1)
        assert np.array_equal(H.matrix, real.nu[0] * PAULI_Z)

    def test_isotropic_two_site_spectrum_both_routes(self):
        # zero field, gamma=0, two sites: both the dense diagonalization
        # and the signed sums of one-particle levels give {-2, 0, 0, 2}
        params = ModelParams(n=2, gamma=0.0, rho=SingleSiteDistribution.two_point(0.0, 1.0, 0.5))
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

    @pytest.mark.parametrize("op", [np.eye(3), np.ones(2), np.zeros((2, 2, 2))])
    def test_site_operator_must_be_2x2(self, op):
        with pytest.raises(ConfigError, match="2 x 2"):
            site_operator(op, 0, 2)

    def test_rejects_nonhermitian_operator(self):
        with pytest.raises(ConfigError):
            ManyBodyOperator(n=1, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKronReference:
    """The builders against kron chains of 2 x 2 factors, entry for entry."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_site_operator(self, n):
        rng = np.random.default_rng(n)
        random_op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for op in (PAULI_X, PAULI_Y, PAULI_Z, LOWERING, random_op):
            for j in range(n):
                assert np.array_equal(site_operator(op, j, n), kron_site(op, j, n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_jordan_wigner(self, n):
        for j, c in enumerate(build_jordan_wigner(n).c):
            assert np.array_equal(c, reduce(np.kron, [PAULI_Z] * j + [LOWERING] + [EYE_2] * (n - 1 - j)))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5])
    def test_hamiltonian(self, n, gamma):
        params = ModelParams(n=max(n, 2), gamma=gamma, rho=SingleSiteDistribution.uniform(-1.5, 1.5), mu=0.7)
        real = sample_disorder(params, seed=5)
        ref = np.zeros((2**n, 2**n), dtype=complex)
        for j in range(n - 1):
            sxsx = kron_site(PAULI_X, j, n) @ kron_site(PAULI_X, j + 1, n)
            sysy = kron_site(PAULI_Y, j, n) @ kron_site(PAULI_Y, j + 1, n)
            ref += params.mu * ((1.0 + gamma) * sxsx + (1.0 - gamma) * sysy)
        for j in range(n):
            ref += real.nu[j] * kron_site(PAULI_Z, j, n)
        assert np.array_equal(build_hamiltonian(params, real, n).matrix, ref)


class TestJordanWigner:
    def test_car_single_mode(self):
        fermions = build_jordan_wigner(1)
        c = fermions.c[0]
        assert np.array_equal(c @ c, np.zeros((2, 2)))
        assert np.array_equal(c @ c.conj().T + c.conj().T @ c, np.eye(2))
        assert fermions.car_defect() == 0.0

    def test_car_defect_eight_modes(self):
        assert build_jordan_wigner(8).car_defect() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_car_defect_matches_dense_products(self, n):
        fermions = build_jordan_wigner(n)
        assert fermions.car_defect() == dense_car_defect(fermions.c) == 0.0
        # hard-core bosons, the lowering operators without the strings, break the CAR
        bosons = [site_operator(LOWERING, j, n) for j in range(n)]
        expected = 0.0 if n == 1 else 2.0
        assert FermionSet(n=n, c=bosons).car_defect() == dense_car_defect(bosons) == expected

    def test_car_defect_rejects_non_permutations(self):
        c = build_jordan_wigner(2).c
        with pytest.raises(ConfigError, match="signed permutation"):
            FermionSet(n=2, c=[c[0] + c[1], c[1]]).car_defect()
        with pytest.raises(ConfigError, match="signed permutation"):
            FermionSet(n=2, c=[c[0], c[1] + c[1].conj().T @ c[1]]).car_defect()


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

    def test_doubled_hat_matrix_does_not_match(self):
        # scale 1 is the only convention, so H against 2 Mhat is a mismatch
        params = uniform_params(4, half_width=2.0)
        real = sample_disorder(params, seed=11)
        Mhat = assemble_hat_form(params, real)
        report = verify_quadratic_form(build_hamiltonian(params, real), HatBlockMatrix(2 * Mhat.A, 2 * Mhat.B))
        assert report.scale == 1.0
        assert not report.matched

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_form_matches_dense_products(self, n):
        params = uniform_params(n, gamma=0.7)
        Mhat = assemble_hat_form(params, sample_disorder(params, seed=n)).dense()
        fermions = build_jordan_wigner(n)
        modes = fermions.c + [c.conj().T for c in fermions.c]
        ref = np.zeros((2**n, 2**n), dtype=complex)
        for a in range(2 * n):
            for b in range(2 * n):
                if Mhat[a, b] != 0.0:
                    ref += Mhat[a, b] * (modes[a].conj().T @ modes[b])
        assert np.array_equal(_quadratic_form(fermions, Mhat), ref)

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

    def test_matches_dense_conjugation(self):
        n, t_values = 5, [0.5, 1.7]
        params = uniform_params(n, gamma=0.7)
        real = sample_disorder(params, seed=4)
        report = verify_heisenberg_identity(params, real, n, t_values)
        c = build_jordan_wigner(n).c
        rows = _one_particle_rows(assemble_hat_form(params, real).dense(), np.array(t_values), n)
        vals, vecs = np.linalg.eigh(build_hamiltonian(params, real).matrix)
        for t, T, residual in zip(t_values, rows, report.residuals):
            U = (vecs * np.exp(1j * vals * t)) @ vecs.conj().T
            worst = 0.0
            for j in range(n):
                rhs = sum(T[j, k] * c[k] + T[j, n + k] * c[k].conj().T for k in range(n))
                worst = max(worst, float(np.max(np.abs(U @ c[j] @ U.conj().T - rhs))))
            assert residual == worst

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
        ks = [2, 4]
        for index in range(3):
            real = sample_disorder(params, seed=5, index=index)
            Mhat = assemble_hat_form(params, real).dense()
            fermionic = _fermionic_sup_commutator(Mhat, 6, ks, t_grid)
            H = build_hamiltonian(params, real)
            Bs = [site_operator(PAULI_X, k, 6) for k in ks]
            dense = _dense_sup_commutator(H, site_operator(PAULI_X, 0, 6), Bs, t_grid)
            np.testing.assert_allclose(fermionic, dense, rtol=0, atol=1e-12)

    def test_dense_route_matches_per_separation_svd(self):
        params = uniform_params(5)
        real = sample_disorder(params, seed=8)
        H = build_hamiltonian(params, real)
        t_grid = np.linspace(0.0, 3.0, 20)
        A = site_operator(PAULI_Y, 1, 5)
        ks = [2, 3, 4]
        Bs = [site_operator(PAULI_X, k, 5) for k in ks]
        got = _dense_sup_commutator(H, A, Bs, t_grid)
        for k, B, sup in zip(ks, Bs, got):
            expected = 0.0
            for t in t_grid:
                U = scipy.linalg.expm(1j * t * H.matrix)
                At = U @ A @ U.conj().T
                expected = max(expected, np.linalg.norm(At @ B - B @ At, 2))
            assert abs(sup - expected) <= 1e-12, k

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
