import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyu

from randblock.errors import NumericalFailure
from randblock.model import (
    ModelParams,
    assemble_block_jacobi,
    assemble_general,
    random_instance,
    realization_rng,
    sample_disorder,
)
from randblock.spectral import eigensolve
from randblock.transfer import (
    GreenEvaluator,
    charpoly_identity_check,
    fundamental_solutions,
    qr_block,
    symplectic_form,
    transfer_factors,
    transfer_matrix,
    wronskian,
)


def scalar_instance(nu, hop=None):
    """ell=1 chain as a block matrix; hop defaults to all ones."""
    n = len(nu)
    hop = np.ones(n - 1) if hop is None else np.asarray(hop)
    return assemble_general(
        1, [np.array([[v]]) for v in nu], [np.array([[h]]) for h in hop]
    )


class TestTransferMatrix:
    def test_symplectic_invariant(self, rng):
        for ell in (1, 2, 3):
            V = rng.normal(size=(ell, ell))
            V = V + V.T
            S = rng.normal(size=(ell, ell)) + 2 * np.eye(ell)
            for E in (0.3, 1.0 + 0.5j):
                A = transfer_matrix(V, S, E)
                assert A.symplectic_defect() <= 1e-12 * max(1.0, np.abs(A.matrix).max() ** 2)

    def test_real_energy_stays_real(self):
        A = transfer_matrix(np.zeros((1, 1)), np.eye(1), complex(0.37, 0.0))
        assert A.matrix.dtype == np.float64

    def test_free_scalar_at_zero_energy_has_period_four(self):
        # A = [[0,1],[-1,0]] is a quarter rotation
        A = transfer_matrix(np.zeros((1, 1)), np.eye(1), 0.0)
        assert np.array_equal(np.linalg.matrix_power(A.matrix, 4), np.eye(2))
        assert np.array_equal(np.linalg.matrix_power(A.matrix, 2), -np.eye(2))


class TestTransferFactors:
    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.integers(1, 3),
        m=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        E_re=st.floats(-3.0, 3.0),
        E_im=st.sampled_from([0.0, 0.4, -1.1]),
        complex_type=st.booleans(),
    )
    def test_symplectic_and_matches_transfer_matrix(self, ell, m, seed, E_re, E_im, complex_type):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(m, ell, ell))
        V = V + np.swapaxes(V, 1, 2)
        S = rng.normal(size=(m, ell, ell)) + 3.0 * np.eye(ell)
        E = complex(E_re, E_im) if complex_type or E_im else E_re
        A = transfer_factors(V, S, E)
        assert A.shape == (m, 2 * ell, 2 * ell)
        assert A.dtype == (np.float64 if E_im == 0.0 else np.complex128)
        J = symplectic_form(ell)
        for k in range(m):
            defect = np.abs(A[k].T @ J @ A[k] - J).max()
            assert defect <= 1e-12 * max(1.0, np.abs(A[k]).max() ** 2)
            assert np.array_equal(A[k], transfer_matrix(V[k], S[k], E).matrix)


class TestQRBlock:
    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.integers(1, 3),
        tall=st.booleans(),
        complex_type=st.booleans(),
        nfactors=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lapack_step_is_a_qr_of_the_advanced_frame(self, ell, tall, complex_type, nfactors,
                                                        seed):
        rng = np.random.default_rng(seed)
        dim, cols = 2 * ell, ell if tall else 2 * ell

        def draw(*shape):
            a = rng.normal(size=shape)
            return a + 1j * rng.normal(size=shape) if complex_type else a

        X0, factors = draw(dim, cols), draw(nfactors, dim, dim)
        Y = X0
        for F in factors:
            Y = F @ Y
        Q, d = qr_block(X0, factors)
        assert Q.shape == (dim, cols) and d.shape == (cols,)
        assert Q.dtype == Y.dtype and d.dtype == Y.dtype
        assert np.abs(Q.conj().T @ Q - np.eye(cols)).max() <= 1e-13
        # Q^H Y is R up to roundoff; its upper triangle must rebuild Y
        scale = np.linalg.norm(Y)
        R = np.triu(Q.conj().T @ Y)
        assert np.abs(np.diagonal(R) - d).max() <= 1e-12 * scale
        assert np.linalg.norm(Q @ R - Y) <= 1e-12 * scale
        _, R_ref = np.linalg.qr(Y)
        np.testing.assert_allclose(
            np.abs(d), np.abs(np.diagonal(R_ref)), rtol=1e-12, atol=1e-15 * scale
        )


class TestFundamentalSolutions:
    def test_single_site_boundary_normalization(self):
        M = assemble_general(2, [np.diag([0.4, -0.4])], [])
        U, V = fundamental_solutions(M, 0.1)
        assert np.array_equal(U[0], np.zeros((2, 2)))
        assert np.array_equal(U[1], np.eye(2))
        assert np.array_equal(V[1], np.eye(2))
        assert np.array_equal(V[2], np.zeros((2, 2)))

    def test_constant_scalar_chain_is_chebyshev(self):
        # u(k+1) = (v-E) u(k) - u(k-1), u(0)=0, u(1)=1 => u(k) = U_{k-1}((v-E)/2)
        v, E, n = 0.7, 0.2, 12
        M = scalar_instance([v] * n)
        U, _ = fundamental_solutions(M, E)
        for k in range(n + 2):
            assert U[k][0, 0] == pytest.approx(eval_chebyu(k - 1, (v - E) / 2.0), abs=1e-10)

    def test_eigenvector_data_solves_recursion(self, xy_params):
        p = xy_params(n=8)
        M = assemble_block_jacobi(p, sample_disorder(p, 2))
        spec = eigensolve(M)
        lam = spec.eigenvalues[5]
        psi = spec.eigenvectors[:, 5].reshape(8, 2)
        pad = np.vstack([np.zeros(2), psi, np.zeros(2)])  # u(0) = u(n+1) = 0
        S = [np.eye(2), *M.S, np.eye(2)]
        worst = 0.0
        for k in range(1, 9):
            r = M.V[k - 1] @ pad[k] - S[k] @ pad[k + 1] - S[k - 1].T @ pad[k - 1] - lam * pad[k]
            worst = max(worst, np.abs(r).max())
        assert worst <= 1e-10

    def test_forward_solution_recursion_residual(self, rng):
        M = random_instance(rng, 2, 10)
        U, V = fundamental_solutions(M, 0.3)
        assert U.recursion_residual(M) <= 1e-10
        assert V.recursion_residual(M) <= 1e-10

    def test_real_z_given_as_complex_stays_real(self, rng):
        M = random_instance(rng, 2, 10)
        U, V = fundamental_solutions(M, complex(0.3, 0.0))
        ref_U, ref_V = fundamental_solutions(M, 0.3)
        assert U.values.dtype == V.values.dtype == np.float64
        np.testing.assert_array_equal(U.values, ref_U.values)
        np.testing.assert_array_equal(V.values, ref_V.values)


class TestWronskian:
    def test_self_wronskian_is_skew(self, rng):
        for ell in (1, 2, 3):
            M = random_instance(rng, ell, 7)
            U, _ = fundamental_solutions(M, 0.45)
            W = wronskian(U, U)
            assert np.abs(W + np.swapaxes(W, -1, -2)).max() <= 1e-12 * max(1.0, np.abs(W).max())

    def test_constancy_across_sites(self, rng):
        M = random_instance(rng, 2, 15)
        U, V = fundamental_solutions(M, 0.7 + 0.3j)
        W = wronskian(U, V)
        for k in range(1, 15):
            assert np.abs(W[k] - W[0]).max() <= 1e-10 * max(1.0, np.abs(W[0]).max())

    def test_stack_matches_single_sites(self, rng):
        M = random_instance(rng, 3, 9)
        U, V = fundamental_solutions(M, 0.2 + 0.4j)
        W = wronskian(U, V)
        assert W.shape == (10, 3, 3)
        S = U.hopping
        for k in range(10):
            single = V[k].T @ S[k] @ U[k + 1] - (S[k] @ V[k + 1]).T @ U[k]
            np.testing.assert_allclose(W[k], single, rtol=0, atol=1e-13 * np.abs(W).max())

    def test_scalar_chain_reduces_to_classical_wronskian(self):
        # ell=1, S=1: W = v(k) u(k+1) - v(k+1) u(k)
        M = scalar_instance([0.3, -0.2, 0.8, 0.1, 0.0])
        z = 0.15
        U, V = fundamental_solutions(M, z)
        W = wronskian(U, V)
        for k in range(3):
            classical = V[k][0, 0] * U[k + 1][0, 0] - V[k + 1][0, 0] * U[k][0, 0]
            assert W[k][0, 0] == pytest.approx(classical, abs=1e-12)


class TestGreen:
    def test_single_site_inverse(self):
        V1 = np.diag([0.4, -0.4])
        M = assemble_general(2, [V1], [])
        z = 0.1 + 0.2j
        G = GreenEvaluator(M, z).block(1, 1)
        assert np.allclose(G, np.linalg.inv(V1 - z * np.eye(2)), atol=1e-13)

    def test_matches_dense_inverse(self, rng):
        M = random_instance(rng, 2, 20)
        z = 0.7 + 0.3j
        dense = M.dense().astype(complex)
        R = np.linalg.inv(dense - z * np.eye(dense.shape[0]))
        scale = np.linalg.norm(R, 2)
        ev = GreenEvaluator(M, z)
        worst = 0.0
        for j in range(1, 21):
            for k in range(1, 21):
                blk = R[2 * (j - 1) : 2 * j, 2 * (k - 1) : 2 * k]
                worst = max(worst, np.abs(ev.block(j, k) - blk).max())
        assert worst <= 1e-8 * scale

    @pytest.mark.parametrize("ell, L", [(2, 150), (3, 75), (2, 300)])
    def test_long_chains_match_dense_inverse(self, ell, L):
        # long enough that the unscaled fundamental solutions lose all accuracy here:
        # their Wronskian has condition number 2e15 to 2e16
        rng = realization_rng(20260005, 1000 * ell + L)
        z = 0.7 + 0.3j
        for _ in range(3):
            M = random_instance(rng, ell, L)
            R = np.linalg.inv(M.dense() - z * np.eye(ell * L))
            reference = R.reshape(L, ell, L, ell).swapaxes(1, 2)
            err = np.abs(GreenEvaluator(M, z).blocks() - reference).max()
            assert err <= 1e-12 * np.linalg.norm(R, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.integers(1, 3),
        L=st.integers(1, 30),
        re_z=st.floats(-3.0, 3.0),
        im_z=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_invert_and_are_complex_symmetric(self, ell, L, re_z, im_z, seed):
        M = random_instance(np.random.default_rng(seed), ell, L)
        z = complex(re_z, im_z)
        ev = GreenEvaluator(M, z)
        G = ev.blocks()
        assert G.shape == (L, L, ell, ell)
        assert ev.pivot_cond <= 1e6
        dense_G = G.swapaxes(1, 2).reshape(L * ell, L * ell)
        A = M.dense() - z * np.eye(L * ell)
        scale = np.linalg.norm(A, 2) * np.linalg.norm(dense_G, 2)
        assert np.abs(A @ dense_G - np.eye(L * ell)).max() <= 1e-13 * scale
        assert np.abs(G - G.transpose(1, 0, 3, 2)).max() <= 1e-13 * np.abs(G).max()
        j, k = 1 + seed % L, 1 + (seed // L) % L
        assert np.array_equal(ev.block(j, k), G[j - 1, k - 1])

    @pytest.mark.parametrize("V1", [np.array([[0.4]]), np.diag([0.4, -0.4])])
    def test_exactly_singular_pivot_is_numerical_failure(self, V1):
        M = assemble_general(V1.shape[0], [V1], [])
        with pytest.raises(NumericalFailure, match="singular Schur pivot"):
            GreenEvaluator(M, 0.4)

    def test_block_outside_chain_rejected(self, rng):
        ev = GreenEvaluator(random_instance(rng, 2, 4), 0.3j)
        with pytest.raises(ValueError):
            ev.block(0, 2)
        with pytest.raises(ValueError):
            ev.block(2, 5)

    def test_real_energy_in_spectrum_rejected(self, xy_params):
        p = xy_params(n=12)
        M = assemble_block_jacobi(p, sample_disorder(p, 1))
        lam = eigensolve(M, want_vectors=False).eigenvalues[3]
        with pytest.raises(NumericalFailure):
            GreenEvaluator(M, lam)


class TestCharpoly:
    def test_single_site_identity(self, rng):
        for ell in (1, 2, 3):
            V1 = rng.normal(size=(ell, ell))
            V1 = V1 + V1.T
            M = assemble_general(ell, [V1], [])
            rep = charpoly_identity_check(M, 0.37)
            assert rep.residual <= 1e-12

    def test_random_instance_both_routes(self, rng):
        M = random_instance(rng, 2, 8)
        rep = charpoly_identity_check(M, 0.3)
        assert rep.identity_residual <= 1e-8
        assert rep.exterior_residual <= 1e-8

    def test_long_chain_stays_in_log_domain(self):
        # growth ~ e^{0.96 k} would overflow naive determinants by k ~ 700
        M = scalar_instance([0.0] * 2000)
        rep = charpoly_identity_check(M, 3.0)
        assert np.isfinite(rep.log_direct) and np.isfinite(rep.log_transfer)
        assert rep.log_direct > 600.0
        assert rep.residual <= 1e-8

    @pytest.mark.parametrize("L", [150, 300])
    @pytest.mark.parametrize("ell", [2, 3])
    def test_long_chains_with_wide_blocks(self, ell, L):
        # long enough for the ell columns of an unorthonormalized frame to
        # collapse onto the top growth direction
        rng = realization_rng(20260005, ell * 1000 + L)
        for _ in range(2):
            rep = charpoly_identity_check(random_instance(rng, ell, L), 0.37 + 0.2j)
            assert rep.identity_residual <= 1e-8
            assert rep.exterior_residual <= 1e-8


def test_symplectic_form_square():
    J = symplectic_form(2)
    assert np.array_equal(J @ J, -np.eye(4))
    assert np.array_equal(J.T, -J)
