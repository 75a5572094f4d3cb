import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyu

from randblock import transfer
from randblock.errors import NumericalFailure
from randblock.model import (
    BlockJacobiMatrix,
    DisorderRealization,
    ModelParams,
    SingleSiteDistribution,
    assemble_block_jacobi,
    random_instance,
    realization_rng,
    sample_disorder,
)
from randblock.spectral import eigensolve
from randblock.transfer import (
    COUNT_ROUNDING,
    OVERFLOW_LIMIT,
    STREAM_BLOCK,
    GreenEvaluator,
    charpoly_identity_check,
    eigenvalue_counts,
    fundamental_solutions,
    log_abs_det,
    qr_product,
    schur_sweep,
    symplectic_defect,
    symplectic_form,
    transfer_factors,
    transfer_matrix,
    wronskian,
)


def scalar_instance(nu, hop=None):
    """ell=1 chain as a block matrix; hop defaults to all ones."""
    n = len(nu)
    hop = np.ones(n - 1) if hop is None else np.asarray(hop)
    return BlockJacobiMatrix(np.asarray(nu, dtype=float).reshape(n, 1, 1), hop.reshape(n - 1, 1, 1))


class TestTransferMatrix:
    def test_symplectic_invariant(self, rng):
        for ell in (1, 2, 3):
            V = rng.normal(size=(ell, ell))
            V = V + V.T
            S = rng.normal(size=(ell, ell)) + 2 * np.eye(ell)
            for E in (0.3, 1.0 + 0.5j):
                A = transfer_matrix(V, S, E)
                assert symplectic_defect(A) <= 1e-12 * max(1.0, np.abs(A).max() ** 2)

    def test_real_energy_stays_real(self):
        A = transfer_matrix(np.zeros((1, 1)), np.eye(1), complex(0.37, 0.0))
        assert A.dtype == np.float64

    def test_free_scalar_at_zero_energy_has_period_four(self):
        # A = [[0,1],[-1,0]] is a quarter rotation
        A = transfer_matrix(np.zeros((1, 1)), np.eye(1), 0.0)
        assert np.array_equal(np.linalg.matrix_power(A, 4), np.eye(2))
        assert np.array_equal(np.linalg.matrix_power(A, 2), -np.eye(2))


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
        defect = symplectic_defect(A)
        assert defect.shape == (m,)
        assert np.all(defect <= 1e-12 * np.maximum(1.0, np.abs(A).max(axis=(1, 2)) ** 2))
        J = symplectic_form(ell)
        for k in range(m):
            assert defect[k] == np.abs(A[k].T @ J @ A[k] - J).max()
            assert np.array_equal(A[k], transfer_matrix(V[k], S[k], E))

    @pytest.mark.parametrize("E", [0.6, 0.6 + 0.3j])
    def test_shared_hopping_equals_its_stack(self, rng, E):
        V = rng.normal(size=(7, 2, 2))
        V = V + np.swapaxes(V, 1, 2)
        S = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        A = transfer_factors(V, S, E)
        assert np.array_equal(A, transfer_factors(V, np.broadcast_to(S, (7, 2, 2)), E))

    @pytest.mark.parametrize("E", [0.6, 0.6 + 0.3j])
    def test_shifted_block_is_v_minus_e_times_inverse_hopping(self, rng, E):
        # real E keeps the product (V - E) W; complex E forms V W - E W, equal up to rounding
        V = rng.normal(size=(9, 2, 2))
        S = rng.normal(size=(9, 2, 2)) + 3.0 * np.eye(2)
        shifted = (V - E * np.eye(2)) @ np.linalg.inv(S)
        A = transfer_factors(V, S, E)
        if isinstance(E, complex):
            np.testing.assert_allclose(A[:, 2:, 2:], shifted, rtol=0.0, atol=1e-15 * np.abs(shifted).max())
        else:
            assert np.array_equal(A[:, 2:, 2:], shifted)


class TestQRProduct:
    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.integers(1, 3),
        tall=st.booleans(),
        complex_type=st.booleans(),
        nfactors=st.integers(0, 7),
        reorth=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_block_is_a_qr_of_the_advanced_frame(self, ell, tall, complex_type, nfactors, reorth,
                                                      seed):
        rng = np.random.default_rng(seed)
        dim, cols = 2 * ell, ell if tall else 2 * ell

        def draw(*shape):
            a = rng.normal(size=shape)
            return a + 1j * rng.normal(size=shape) if complex_type else a

        X0, factors = draw(dim, cols), draw(nfactors, dim, dim)
        Q, d = qr_product(X0, factors, reorth)
        blocks = -(-nfactors // reorth)  # a short last block is padded with identities
        assert d.shape == (blocks, cols) and Q.shape == (dim, cols)
        if blocks == 0:
            assert np.array_equal(Q, X0)
            return
        assert Q.dtype == np.result_type(X0, factors) and d.dtype == Q.dtype
        # every block against the frame it starts from, advanced one factor at a time
        for b in range(blocks):
            start, _ = qr_product(X0, factors[:b * reorth], reorth)
            block = factors[b * reorth:(b + 1) * reorth]
            Y = start
            for F in block:
                Y = F @ Y
            _, R_ref = np.linalg.qr(Y)
            # the folded product rounds like the factors' norms multiplied, not like |Y|
            fold_scale = np.linalg.norm(start) * np.prod(np.linalg.norm(block, axis=(1, 2)))
            np.testing.assert_allclose(
                np.abs(d[b]), np.abs(np.diagonal(R_ref)), rtol=1e-12, atol=1e-14 * fold_scale
            )
        scale = np.linalg.norm(Y)
        assert np.abs(Q.conj().T @ Q - np.eye(cols)).max() <= 1e-13
        # Q^H Y is R up to roundoff; its upper triangle must rebuild the last advanced frame
        R = np.triu(Q.conj().T @ Y)
        assert np.abs(np.diagonal(R) - d[-1]).max() <= 1e-12 * scale
        assert np.linalg.norm(Q @ R - Y) <= 1e-12 * scale

    def test_no_factors_leave_the_frame_unchanged(self, rng):
        X0 = rng.normal(size=(4, 2))
        Q, d = qr_product(X0, np.empty((0, 4, 4)), 3)
        assert np.array_equal(Q, X0) and d.shape == (0, 2)

    @pytest.mark.parametrize("complex_type", [False, True])
    @pytest.mark.parametrize("reorth", [1, 3])
    def test_lanes_advance_like_single_frames(self, rng, complex_type, reorth):
        def draw(*shape):
            a = rng.normal(size=shape)
            return a + 1j * rng.normal(size=shape) if complex_type else a

        X0, factors = draw(3, 4, 2), draw(3, 7, 4, 4)
        Q, d = qr_product(X0, factors, reorth)
        assert Q.shape == (3, 4, 2) and d.shape == (3, -(-7 // reorth), 2)
        for lane in range(3):
            Q_ref, d_ref = qr_product(X0[lane], factors[lane], reorth)
            # a single frame runs as a stack of one lane, so each lane matches it bit for bit
            assert np.array_equal(d[lane], d_ref) and np.array_equal(Q[lane], Q_ref)

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.integers(1, 4),
        tall=st.booleans(),
        complex_type=st.booleans(),
        lanes=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 150]),
        nfactors=st.integers(1, 4),
        reorth=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_lane_is_a_qr_that_rounds_as_if_alone(self, ell, tall, complex_type, lanes, nfactors,
                                                        reorth, seed):
        rng = np.random.default_rng(seed)
        dim, cols = 2 * ell, ell if tall else 2 * ell

        def draw(*shape):
            a = rng.normal(size=shape)
            return a + 1j * rng.normal(size=shape) if complex_type else a

        X0, factors = draw(lanes, dim, cols), draw(lanes, nfactors, dim, dim)
        Q, d = qr_product(X0, factors, reorth)
        # the frames of the last block, advanced one factor at a time from the frame it starts from
        first = (-(-nfactors // reorth) - 1) * reorth
        Y, _ = qr_product(X0, factors[:, :first], reorth)
        for k in range(first, nfactors):
            Y = factors[:, k] @ Y
        scale = np.linalg.norm(Y, axis=(-2, -1))[:, None, None]
        QhY = np.swapaxes(Q.conj(), -1, -2) @ Y
        R = np.triu(QhY)
        assert np.abs(np.swapaxes(Q.conj(), -1, -2) @ Q - np.eye(cols)).max() <= 1e-13
        assert np.all(np.abs(QhY - R) <= 1e-13 * scale)  # Q^H Y is upper triangular
        assert np.all(np.abs(Q @ R - Y) <= 1e-13 * scale)
        assert np.all(np.abs(np.diagonal(R, axis1=-2, axis2=-1) - d[:, -1]) <= 1e-13 * scale[:, 0])
        for lane in {0, lanes // 2, lanes - 1}:
            Q_ref, d_ref = qr_product(X0[lane], factors[lane], reorth)
            assert np.array_equal(Q[lane], Q_ref) and np.array_equal(d[lane], d_ref)

    def test_columns_lost_to_rounding_are_redone_by_lapack(self):
        # ten steps of [[0, 1], [-1, c nu]] with nu = 1 at alpha = 8, c = 8 / sqrt(3/4), from the
        # identity: the second column keeps about 1e-18 of its norm.  A frame with equal columns
        # makes Gram-Schmidt alone divide 0 by 0.
        c = 8.0 / np.sqrt(0.75)
        alpha_8 = transfer_factors(np.full((10, 1, 1), c), np.ones((1, 1)), 0.0)
        for X0, factors, reorth in ((np.eye(2), alpha_8, 10), (np.ones((2, 2)), np.eye(2)[None], 1)):
            Q, d = qr_product(X0, factors, reorth)
            Q_ref, R_ref = np.linalg.qr(transfer.block_products(factors, reorth)[0] @ X0)
            assert np.all(np.isfinite(Q)) and np.all(np.isfinite(d))
            assert np.array_equal(Q, Q_ref) and np.array_equal(d[0], np.diagonal(R_ref))

    @pytest.mark.parametrize("complex_type", [False, True])
    @pytest.mark.parametrize("size", [1e200, 1e-160])
    def test_squared_norms_out_of_range_stay_finite(self, rng, complex_type, size):
        # lane 1 has entries near size, whose squares overflow or are subnormal; np.linalg.qr, which
        # scales its norms, stays finite there, and so must the lane.  The other lanes are untouched.
        def draw(*shape):
            a = rng.normal(size=shape)
            return a + 1j * rng.normal(size=shape) if complex_type else a

        X0, factors = draw(3, 4, 4), draw(3, 5, 4, 4)
        factors[1] *= size
        Q, d = qr_product(X0, factors, 1)
        assert np.all(np.isfinite(Q)) and np.all(np.isfinite(d))
        X, d_ref = X0[1], []
        for F in factors[1]:
            X, R = np.linalg.qr(F @ X)
            d_ref.append(np.diagonal(R))
        np.testing.assert_allclose(np.abs(d[1]), np.abs(np.array(d_ref)), rtol=1e-12)
        assert np.abs(Q[1].conj().T @ Q[1] - np.eye(4)).max() <= 1e-13
        for lane in (0, 2):
            Q_ref, d_lane = qr_product(X0[lane], factors[lane], 1)
            assert np.array_equal(Q[lane], Q_ref) and np.array_equal(d[lane], d_lane)

    @pytest.mark.parametrize("reorth", [2, 3, 10])
    def test_complex_blocks_fold_like_complex_products(self, rng, reorth):
        factors = rng.normal(size=(2, 11, 4, 4)) + 1j * rng.normal(size=(2, 11, 4, 4))
        P = transfer.block_products(factors, reorth)
        assert P.shape == (2, -(-11 // reorth), 4, 4) and P.dtype == np.complex128
        for b in range(P.shape[1]):
            ref = np.eye(4)
            for F in factors[:, b * reorth:(b + 1) * reorth].swapaxes(0, 1):
                ref = F @ ref
            np.testing.assert_allclose(P[:, b], ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())

    def test_short_last_block_is_padded_with_identities(self, rng):
        X0, factors = rng.normal(size=(4, 4)), rng.normal(size=(5, 4, 4))
        padded = np.concatenate([factors, np.eye(4)[None]])
        Q, d = qr_product(X0, factors, 3)
        Q_pad, d_pad = qr_product(X0, padded, 3)
        assert np.array_equal(Q, Q_pad) and np.array_equal(d, d_pad)


class TestFundamentalSolutions:
    def test_single_site_boundary_normalization(self):
        M = BlockJacobiMatrix(np.diag([0.4, -0.4])[None], np.zeros((0, 2, 2)))
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
        z = 0.3
        S = np.concatenate([np.eye(2)[None], M.S, np.eye(2)[None]])
        for X in fundamental_solutions(M, z):
            # S_k X(k+1) + S_{k-1}^t X(k-1) = (V_k - z) X(k) at every site k = 1..L
            for k in range(1, M.n + 1):
                lhs = S[k] @ X[k + 1] + S[k - 1].T @ X[k - 1]
                rhs = (M.V[k - 1] - z * np.eye(2)) @ X[k]
                assert np.abs(lhs - rhs).max() <= 1e-10

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2, 7, 30])
    @pytest.mark.parametrize("z", [0.3, 0.3 + 0.2j])
    def test_backward_solution_is_the_reversed_forward_solution(self, ell, L, z):
        M = random_instance(np.random.default_rng(100 * ell + L), ell, L)
        reversed_chain = BlockJacobiMatrix(M.V[::-1], np.swapaxes(M.S[::-1], -1, -2))
        _, V = fundamental_solutions(M, z)
        U_reversed, _ = fundamental_solutions(reversed_chain, z)
        assert V.shape == U_reversed.shape == (L + 2, ell, ell)
        np.testing.assert_array_equal(V, U_reversed[::-1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ell, scale", [(1, 1e30), (2, 1e20), (3, 1e12)])
    def test_overflow_names_the_first_site_without_warnings(self, ell, scale):
        M = random_instance(np.random.default_rng(ell), ell, 40)
        M = BlockJacobiMatrix(scale * M.V, M.S)
        z = 0.3 + 0.1j
        # reference: the step-by-step forward sweep, stopped at the first site over the limit
        S = np.concatenate([np.eye(ell)[None], M.S, np.eye(ell)[None]])
        U = [np.zeros((ell, ell)), np.eye(ell)]
        for k in range(1, M.n + 1):
            U.append(np.linalg.solve(S[k], (M.V[k - 1] - z * np.eye(ell)) @ U[k] - S[k - 1].T @ U[k - 1]))
            if np.max(np.abs(U[k + 1])) > OVERFLOW_LIMIT:
                break
        assert k < M.n  # the sweep runs on past the overflow, to inf and nan
        with pytest.raises(NumericalFailure, match=f"forward solution overflowed at site {k + 1}$"):
            fundamental_solutions(M, z)

    def test_real_z_given_as_complex_stays_real(self, rng):
        M = random_instance(rng, 2, 10)
        U, V = fundamental_solutions(M, complex(0.3, 0.0))
        ref_U, ref_V = fundamental_solutions(M, 0.3)
        assert U.dtype == V.dtype == np.float64
        np.testing.assert_array_equal(U, ref_U)
        np.testing.assert_array_equal(V, ref_V)


class TestWronskian:
    def test_self_wronskian_is_skew(self, rng):
        for ell in (1, 2, 3):
            M = random_instance(rng, ell, 7)
            U, _ = fundamental_solutions(M, 0.45)
            W = wronskian(M, U, U)
            assert np.abs(W + np.swapaxes(W, -1, -2)).max() <= 1e-12 * max(1.0, np.abs(W).max())

    def test_constancy_across_sites(self, rng):
        M = random_instance(rng, 2, 15)
        U, V = fundamental_solutions(M, 0.7 + 0.3j)
        W = wronskian(M, U, V)
        for k in range(1, 15):
            assert np.abs(W[k] - W[0]).max() <= 1e-10 * max(1.0, np.abs(W[0]).max())

    def test_stack_matches_single_sites(self, rng):
        M = random_instance(rng, 3, 9)
        U, V = fundamental_solutions(M, 0.2 + 0.4j)
        W = wronskian(M, U, V)
        assert W.shape == (10, 3, 3)
        S = np.concatenate([np.eye(3)[None], M.S, np.eye(3)[None]])
        for k in range(10):
            single = V[k].T @ S[k] @ U[k + 1] - (S[k] @ V[k + 1]).T @ U[k]
            np.testing.assert_allclose(W[k], single, rtol=0, atol=1e-13 * np.abs(W).max())

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(1, 3),
        L=st.integers(1, 30),
        re_z=st.floats(-3.0, 3.0),
        im_z=st.floats(-1.0, 1.0),
    )
    def test_constancy_invariant(self, seed, ell, L, re_z, im_z):
        M = random_instance(np.random.default_rng(seed), ell, L)
        U, V = fundamental_solutions(M, complex(re_z, im_z))
        W = wronskian(M, U, V)
        assert np.array_equal(W[0], V[0].T)  # S_0 = U(1) = I and U(0) = 0
        # roundoff relative to the two terms of W(k), which grow with the solutions
        u, v = (np.abs(X).max(axis=(-2, -1)) for X in (U, V))
        scale = max(1.0, float(np.max(v[:-1] * u[1:] + v[1:] * u[:-1])))
        assert np.abs(W - W[0]).max() <= 1e-13 * scale

    def test_scalar_chain_reduces_to_classical_wronskian(self):
        # ell=1, S=1: W = v(k) u(k+1) - v(k+1) u(k)
        M = scalar_instance([0.3, -0.2, 0.8, 0.1, 0.0])
        z = 0.15
        U, V = fundamental_solutions(M, z)
        W = wronskian(M, U, V)
        for k in range(3):
            classical = V[k][0, 0] * U[k + 1][0, 0] - V[k + 1][0, 0] * U[k][0, 0]
            assert W[k][0, 0] == pytest.approx(classical, abs=1e-12)


class TestGreen:
    def test_single_site_inverse(self):
        V1 = np.diag([0.4, -0.4])
        M = BlockJacobiMatrix(V1[None], np.zeros((0, 2, 2)))
        z = 0.1 + 0.2j
        G = GreenEvaluator(M, z).block(1, 1)
        assert np.allclose(G, np.linalg.inv(V1 - z * np.eye(2)), atol=1e-13)

    def test_real_z_given_as_complex_stays_real(self, rng):
        M = random_instance(rng, 2, 12)
        got, ref = GreenEvaluator(M, complex(0.3, 0.0)).blocks(), GreenEvaluator(M, 0.3).blocks()
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, ref)

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
        M = BlockJacobiMatrix(V1[None], np.zeros((0,) + V1.shape))
        with pytest.raises(NumericalFailure, match="singular Schur pivot"):
            GreenEvaluator(M, 0.4)

    def test_blocks_invert_near_and_on_the_real_axis(self):
        # a third of the energies real, the rest at Im z = 10^-8 .. 10^-1; every evaluator that
        # passes its condition guard must invert M - z to rounding
        rng = np.random.default_rng(20261019)
        worst, evaluated = 0.0, {True: 0, False: 0}
        for i in range(600):
            ell, L = 1 + i % 3, int(rng.integers(1, 31))
            M = random_instance(rng, ell, L)
            re_z, log_im = rng.uniform(-3.0, 3.0), rng.uniform(-8.0, -1.0)
            z = complex(re_z, 0.0 if i % 3 == 0 else 10.0**log_im)
            try:
                G = GreenEvaluator(M, z).blocks()
            except NumericalFailure:
                continue
            evaluated[z.imag == 0.0] += 1
            dense_G = G.swapaxes(1, 2).reshape(L * ell, L * ell)
            A = M.dense() - z * np.eye(L * ell)
            scale = np.linalg.norm(A, 2) * np.linalg.norm(dense_G, 2)
            worst = max(worst, np.abs(A @ dense_G - np.eye(L * ell)).max() / scale)
        assert evaluated[True] >= 150 and evaluated[False] >= 350
        assert worst <= 1e-12

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


class TestSchurLogDet:
    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.integers(1, 3),
        L=st.integers(1, 40),
        re_z=st.floats(-3.0, 3.0),
        im_z=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_slogdet(self, ell, L, re_z, im_z, seed):
        rng = np.random.default_rng(seed)
        chains = [random_instance(rng, ell, L) for _ in range(2)]
        z = [complex(re_z, im_z), complex(-re_z, 2.0 * im_z)]
        got = log_abs_det(chains, z)
        assert got.shape == (2, 2)
        for r, M in enumerate(chains):
            for j, zj in enumerate(z):
                _, ref = np.linalg.slogdet(M.dense() - zj * np.eye(L * ell))
                assert got[r, j] == pytest.approx(ref, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_batched_sweep_equals_per_chain_sweeps(self, ell):
        rng = realization_rng(20260011, ell)
        L, z = 25, np.array([0.3 + 0.2j, -1.1 + 0.05j, 2.0 + 1.0j])
        chains = [random_instance(rng, ell, L) for _ in range(4)]
        V = np.stack([M.V for M in chains], axis=1)
        B = -np.stack([M.S for M in chains], axis=1)[:, :, None]
        P, g = schur_sweep(V[:, :, None] - z[:, None, None] * np.eye(ell), B)
        assert P.shape == g.shape == (L, 4, 3, ell, ell)
        for r, M in enumerate(chains):
            for j in range(z.size):
                P1, g1 = schur_sweep(M.V - z[j] * np.eye(ell), -M.S)
                assert np.array_equal(P[:, r, j], P1)
                assert np.array_equal(g[:, r, j], g1)

    def test_real_energies_stay_real(self, rng):
        chains = [random_instance(rng, 2, 9) for _ in range(3)]
        got = log_abs_det(chains, [complex(0.37, 0.0), 1.9])
        assert got.dtype == np.float64
        for r, M in enumerate(chains):
            for j, E in enumerate([0.37, 1.9]):
                assert got[r, j] == pytest.approx(np.linalg.slogdet(M.dense() - E * np.eye(18))[1], abs=1e-10)

    def test_exactly_singular_pivot_is_numerical_failure(self):
        # V_1 = 0.4 and E = 0.4: the first pivot is exactly zero
        chains = [scalar_instance([0.4, -0.2, 0.1])]
        with pytest.raises(NumericalFailure, match="singular Schur pivot"):
            log_abs_det(chains, [0.4])


class TestEigenvalueCounts:
    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.integers(1, 3),
        L=st.integers(1, 40),
        x=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_eigvalsh_counts(self, ell, L, x, seed):
        rng = np.random.default_rng(seed)
        chains = [random_instance(rng, ell, L) for _ in range(2)]
        spectra = [np.linalg.eigvalsh(M.dense()) for M in chains]
        assume(all(np.min(np.abs(w[:, None] - np.array(x))) >= 1e-8 for w in spectra))
        got, resolved = eigenvalue_counts(chains, x)
        assert got.shape == resolved.shape == (2, len(x))
        assert resolved.all()
        for r, w in enumerate(spectra):
            assert got[r].tolist() == [int(np.sum(w < xj)) for xj in x]

    def test_vanishing_first_pivot_is_floored(self):
        # P_0 = 0.5 - 0.5 = 0 exactly and is floored; the eigenvalues are 0.1 -+ sqrt(1.16)
        M = scalar_instance([0.5, -0.3])
        counts, resolved = eigenvalue_counts([M], [0.5])
        assert counts.tolist() == [[1]] and resolved.all()
        assert int(np.sum(np.linalg.eigvalsh(M.dense()) < 0.5)) == 1

    def test_zero_atom_at_zero_energy_matches_dense_count(self):
        # nu_1 = 0 makes the first 2x2 pivot vanish at E = 0; nu_2 = 0 then meets its floored inverse
        p = ModelParams(30, 0.5, SingleSiteDistribution.two_point(0.0, 1.0, 0.5))
        nu = sample_disorder(p, 2).nu.copy()
        nu[:2] = 0.0
        M = assemble_block_jacobi(p, DisorderRealization(seed=2, index=0, nu=nu))
        with pytest.raises(NumericalFailure, match="singular Schur pivot"):
            log_abs_det([M], [0.0])
        w = np.linalg.eigvalsh(M.dense())
        assert np.min(np.abs(w)) > 1e-10  # the dense count is unambiguous
        counts, resolved = eigenvalue_counts([M], [0.0])
        assert counts.tolist() == [[int(np.sum(w < 0.0))]] and resolved.all()

    @pytest.mark.parametrize("seed", range(4))
    def test_floored_pivot_does_not_overflow_the_next_determinant(self, seed):
        # gamma = 2: after the floor -PIVOT_FLOOR I at nu_1 = 0, the next pivot has entries near
        # 5 / PIVOT_FLOOR = 3e154, whose 2x2 determinant overflows unless the pivot is scaled
        p = ModelParams(40, 2.0, SingleSiteDistribution.two_point(0.0, 1.0, 0.5))
        nu = sample_disorder(p, seed).nu.copy()
        nu[0] = 0.0
        M = assemble_block_jacobi(p, DisorderRealization(seed=seed, index=0, nu=nu))
        w = np.linalg.eigvalsh(M.dense())
        assert np.min(np.abs(w)) > 1e-10
        counts, resolved = eigenvalue_counts([M], [0.0])
        assert resolved.all() and counts.tolist() == [[int(np.sum(w < 0.0))]]

    def test_rank_deficient_block_pivot_is_unresolved(self):
        # P_0 = 0.5 sigma_z - 0.5 = diag(0, -1): singular, but not within the floor; the other
        # chains of the sweep are still counted
        p = ModelParams(6, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
        M = assemble_block_jacobi(p, DisorderRealization(seed=0, index=0, nu=np.full(6, 0.5)))
        other = assemble_block_jacobi(p, sample_disorder(p, 3))
        counts, resolved = eigenvalue_counts([M, other, M], [0.5, 0.2])
        assert resolved.tolist() == [[False, True], [True, True], [False, True]]
        for r, N in enumerate([M, other, M]):
            assert counts[r, 1] == np.sum(np.linalg.eigvalsh(N.dense()) < 0.2)
        assert counts[1, 0] == np.sum(np.linalg.eigvalsh(other.dense()) < 0.5)

    def test_near_singular_leading_pivot_is_unresolved(self):
        # at x one ulp below nu_1 = 1, P_0 = diag(1.1e-16, -2): the next pivot's small eigenvalue is lost
        p = ModelParams(8, 0.5, SingleSiteDistribution.uniform(-1.0, 1.0))
        nu = np.array([1.0, 0.3, -0.2, 0.9, -0.7, 0.1, 0.6, -0.4])
        M = assemble_block_jacobi(p, DisorderRealization(seed=0, index=0, nu=nu))
        _, resolved = eigenvalue_counts([M], [np.nextafter(1.0, -np.inf), 1.0, 0.5])
        assert resolved.tolist() == [[False, False, True]]

    def test_overflowing_pivot_is_unresolved(self):
        # P_1 = 0.2 - 1e300^2 / 0.5 overflows; the second chain is counted as usual
        big, small = scalar_instance([0.5, 0.2, -0.1], hop=[1e300, 1.0]), scalar_instance([0.5, 0.2, -0.1])
        counts, resolved = eigenvalue_counts([big, small], [0.0])
        assert resolved.tolist() == [[False], [True]]
        assert counts[1, 0] == np.sum(np.linalg.eigvalsh(small.dense()) < 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        gamma=st.sampled_from([0.0, 0.3, 0.5, 2.0]),
        nu=st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=30),
        x=st.sampled_from([1.0, float(np.nextafter(1.0, -np.inf)), float(np.nextafter(1.0, np.inf)),
                           0.0, -1.0, 1.0 - 1e-14, 1.0 + 1e-13]),
    )
    def test_resolved_counts_at_atoms_match_dense(self, gamma, nu, x):
        # potentials on the atoms of a two-point law put x at or within rounding of
        # sub-chain eigenvalues; a resolved count must still be the dense count
        p = ModelParams(len(nu), gamma, SingleSiteDistribution.two_point(0.0, 1.0, 0.5))
        M = assemble_block_jacobi(p, DisorderRealization(seed=0, index=0, nu=np.array(nu)))
        w = np.linalg.eigvalsh(M.dense())
        assume(np.min(np.abs(w - x)) >= 1e-8)
        counts, resolved = eigenvalue_counts([M], [x])
        if resolved[0, 0]:
            assert counts[0, 0] == np.sum(w < x)

    def test_complex_energy_is_refused(self, rng):
        with pytest.raises(ValueError, match="real energies"):
            eigenvalue_counts([random_instance(rng, 2, 5)], [0.3 + 0.1j])

    def test_real_energy_given_as_complex_is_counted(self, rng):
        M = random_instance(rng, 2, 5)
        got, ref = eigenvalue_counts([M], [complex(0.3, 0.0), -1.0]), eigenvalue_counts([M], [0.3, -1.0])
        assert got[0].tolist() == ref[0].tolist() and got[1].tolist() == ref[1].tolist()

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_stream_equals_the_stored_sweep_across_blocks(self, ell):
        # reference: every pivot kept by schur_sweep, its inertia from eigvalsh, the resolved rule on
        # the whole stack
        rng = realization_rng(20260017, ell)
        L, x = 2 * STREAM_BLOCK + 7, np.array([-1.3, 0.0, 0.4, 2.2])
        chains = [random_instance(rng, ell, L) for _ in range(3)]
        D = np.stack([M.V for M in chains], axis=1)[:, :, None] - x[:, None, None] * np.eye(ell)
        B = -np.stack([M.S for M in chains], axis=1)[:, :, None]
        w = np.linalg.eigvalsh(schur_sweep(D, B)[0])
        smallest = np.abs(w).min(axis=-1)
        formed_from = np.sqrt(np.square(D).sum(axis=(-2, -1)))
        formed_from[1:] += np.square(B).sum(axis=(-2, -1)) / smallest[:-1]
        counts, resolved = eigenvalue_counts(chains, x)
        assert counts.tolist() == np.count_nonzero(w < 0.0, axis=(0, -1)).tolist()
        assert resolved.tolist() == (smallest > COUNT_ROUNDING * formed_from).all(axis=0).tolist()
        for r, M in enumerate(chains):
            assert counts[r].tolist() == [int(np.sum(np.linalg.eigvalsh(M.dense()) < xj)) for xj in x]

    def test_resolved_rule_carries_across_a_block_boundary(self):
        # the last pivot of the first block gets a small eigenvalue 1e-12, so the first pivot of
        # the next one is formed from terms of size |B|^2 1e12 and its other eigenvalue 1e-3 is
        # within their rounding: unresolved, though 1e-3 is far above the rounding of D alone
        rng = realization_rng(20260018, 2)
        M, x, k = random_instance(rng, 2, STREAM_BLOCK + 20), 0.3, STREAM_BLOCK
        for site, target in ((k - 1, 1e-12), (k, 1e-3)):
            P, _ = schur_sweep(M.V - x * np.eye(2), -M.S)
            lam, U = np.linalg.eigh(P[site])
            j = np.argmin(np.abs(lam))
            M.V[site] += (target - lam[j]) * np.outer(U[:, j], U[:, j])
        P, _ = schur_sweep(M.V - x * np.eye(2), -M.S)
        assert np.min(np.abs(np.linalg.eigvalsh(P[k - 1]))) == pytest.approx(1e-12, rel=1e-3)
        _, resolved = eigenvalue_counts([M], [x])
        assert resolved.tolist() == [[False]]
        _, resolved = eigenvalue_counts([M], [x + 1e-6])  # away from the tuned pivots
        assert resolved.tolist() == [[True]]

    def test_wide_sweep_holds_a_bounded_block(self):
        # 4 chains x 5,001 energies: blocks of STREAM_BLOCK sites would hold about 31 MB per array
        rng = realization_rng(20261019, 2)
        chains = [random_instance(rng, 2, 100) for _ in range(4)]
        x = np.linspace(-3.5, 3.5, 5001)
        tracemalloc.start()
        try:
            counts, resolved = eigenvalue_counts(chains, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert resolved.all()
        for r, M in enumerate(chains):
            assert counts[r].tolist() == np.searchsorted(np.linalg.eigvalsh(M.dense()), x).tolist()

    def test_sweep_holds_one_block_at_a_time(self):
        # 4 chains x 51 energies: a sweep of 8 blocks peaks near a sweep of 1, so no block is kept alive
        # while the stream builds the next one (keeping one more block reads about 1.5 times)
        def peak(reader, chains, energies):
            tracemalloc.start()
            try:
                reader(chains, energies)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rng = realization_rng(20261020, 2)
        short = [random_instance(rng, 2, STREAM_BLOCK) for _ in range(4)]
        long = [random_instance(rng, 2, 8 * STREAM_BLOCK) for _ in range(4)]
        x = np.linspace(-3.5, 3.5, 51)
        for reader, energies in ((eigenvalue_counts, x), (log_abs_det, x + 0.1j)):
            assert peak(reader, long, energies) <= 1.35 * peak(reader, short, energies), reader.__name__

    def test_block_size_changes_no_count_or_flag(self, monkeypatch):
        # near the atoms of a two-point law many pivots are near singular, so the resolved rule
        # at the first site of a block depends on the last pivot of the block before it
        p = ModelParams(150, 2.0, SingleSiteDistribution.two_point(0.0, 1.0, 0.5))
        chains = [assemble_block_jacobi(p, sample_disorder(p, 11, r)) for r in range(8)]
        x = [0.0, 1.0, float(np.nextafter(1.0, -np.inf)), 1.0 - 1e-14, 0.5]
        z = [0.3 + 0.2j, -1.0 + 0.05j]
        whole, logs = eigenvalue_counts(chains, x), log_abs_det(chains, z)
        assert not whole[1].all() and whole[1].any()
        for block in (1, 3, 64):
            monkeypatch.setattr(transfer, "STREAM_BLOCK", block)
            counts, resolved = eigenvalue_counts(chains, x)
            assert np.array_equal(counts, whole[0]) and np.array_equal(resolved, whole[1])
            np.testing.assert_allclose(log_abs_det(chains, z), logs, rtol=1e-13)


class TestCharpoly:
    def test_single_site_identity(self, rng):
        for ell in (1, 2, 3):
            V1 = rng.normal(size=(ell, ell))
            V1 = V1 + V1.T
            M = BlockJacobiMatrix(V1[None], np.zeros((0, ell, ell)))
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

    @pytest.mark.filterwarnings("error")
    def test_overflow_within_one_block_is_numerical_failure(self):
        # ten steps of growth 1e40 overflow before the frame is re-orthonormalized
        M = scalar_instance([1e40] * 30)
        with pytest.raises(NumericalFailure, match="overflowed"):
            charpoly_identity_check(M, 0.3)

    @pytest.mark.parametrize("L", [1, 10, 11])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_single_full_and_ragged_last_blocks(self, ell, L):
        # with DEFAULT_REORTH = 10 factors per block, L = 1 is one short block, L = 10 one
        # full block, and L = 11 a full block then a last block of one factor and nine identities
        rng = realization_rng(20260018, ell * 100 + L)
        for E in (0.37, 0.37 + 0.2j):
            rep = charpoly_identity_check(random_instance(rng, ell, L), E)
            assert rep.identity_residual <= 1e-10
            assert rep.exterior_residual <= 1e-10

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


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestBatches:
    """A sequence of chains with one ell runs as lanes of one pass, each chain bit for bit as alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.sampled_from([1, 2, 3]),
        lengths=st.lists(st.integers(2, 60), min_size=1, max_size=5),
        re_z=st.floats(-3.0, 3.0),
        im_z=st.sampled_from([0.0, 1e-3]) | st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_chain_of_a_batch_equals_its_lone_call(self, ell, lengths, re_z, im_z, seed):
        rng = np.random.default_rng(seed)
        chains = [random_instance(rng, ell, L) for L in lengths]
        z = complex(re_z, im_z) if im_z else re_z
        try:
            alone = [(GreenEvaluator(M, z), fundamental_solutions(M, z), charpoly_identity_check(M, z))
                     for M in chains]
        except NumericalFailure:
            assume(False)
        evaluator = GreenEvaluator(chains, z)
        U, V = fundamental_solutions(chains, z)
        W = wronskian(chains, U, V)
        reports = charpoly_identity_check(chains, z)
        assert len(evaluator.blocks()) == len(U) == len(V) == len(W) == len(reports) == len(chains)
        for r, (M, (lone, (U_r, V_r), report)) in enumerate(zip(chains, alone)):
            assert_same_bits(evaluator.blocks()[r], lone.blocks())
            assert_same_bits(evaluator.pivot_cond[r], lone.pivot_cond)
            assert_same_bits(evaluator.block(1, 2)[r], lone.block(1, 2))
            assert_same_bits(U[r], U_r)
            assert_same_bits(V[r], V_r)
            assert_same_bits(W[r], wronskian(M, U_r, V_r))
            for field in dataclasses.fields(report):
                assert_same_bits(getattr(reports[r], field.name), getattr(report, field.name))

    def test_block_of_a_batch_lies_in_its_shortest_chain(self, rng):
        evaluator = GreenEvaluator([random_instance(rng, 2, 5), random_instance(rng, 2, 3)], 0.3j)
        assert len(evaluator.block(3, 1)) == 2
        with pytest.raises(ValueError, match="1..3"):
            evaluator.block(4, 1)

    def test_chains_of_different_ell_are_refused(self, rng):
        with pytest.raises(ValueError, match="same ell"):
            GreenEvaluator([random_instance(rng, 1, 4), random_instance(rng, 2, 4)], 0.3j)
        with pytest.raises(ValueError, match="same ell"):
            charpoly_identity_check([], 0.3)

    # the two-site chain V = (0.5, -0.3), S = 1: at z = 0.5 its first forward pivot is exactly 0
    SINGULAR_FIRST_PIVOT = ([0.5, -0.3], 0.5)

    def good(self, ell=1):
        return random_instance(np.random.default_rng(7), ell, 6)

    def test_singular_pivot_names_its_chain(self):
        nu, z = self.SINGULAR_FIRST_PIVOT
        with pytest.raises(NumericalFailure, match="exactly singular Schur pivot") as exc:
            GreenEvaluator([self.good(), scalar_instance(nu)], z)
        assert exc.value.chain == 1

    def test_pivot_condition_names_its_chain(self):
        # its first pivot at z = 0.5 + 1e-13 is diag(-1e-13, 1.5); an ell = 1 pivot has condition 1 at any z
        M = BlockJacobiMatrix(np.stack([np.diag([0.5, 2.0]), np.diag([-0.3, 1.0])]), np.eye(2)[None])
        with pytest.raises(NumericalFailure, match="condition number") as exc:
            GreenEvaluator([self.good(2), M, self.good(2)], 0.5 + 1e-13)
        assert exc.value.chain == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ell, scale", [(1, 1e30), (3, 1e12)])
    def test_overflowed_solution_names_its_chain_and_site(self, ell, scale):
        M = random_instance(np.random.default_rng(ell), ell, 40)
        M = BlockJacobiMatrix(scale * M.V, M.S)
        good = random_instance(np.random.default_rng(7), ell, 50)
        with pytest.raises(NumericalFailure) as alone:
            fundamental_solutions(M, 0.3 + 0.1j)
        with pytest.raises(NumericalFailure) as batch:
            fundamental_solutions([good, M], 0.3 + 0.1j)
        assert str(batch.value) == str(alone.value)
        assert "overflowed at site" in str(batch.value)
        assert batch.value.chain == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ell, scale", [(1, 1e30), (3, 1e12)])
    def test_overflow_is_reported_in_chain_order_not_lane_order(self, ell, scale):
        # the lanes run longest first, so the shorter first chain runs in the second lane
        short, long = (random_instance(np.random.default_rng(ell + k), ell, L) for k, L in ((0, 40), (10, 60)))
        short, long = (BlockJacobiMatrix(scale * M.V, M.S) for M in (short, long))
        with pytest.raises(NumericalFailure) as alone:
            fundamental_solutions(short, 0.3 + 0.1j)
        with pytest.raises(NumericalFailure) as batch:
            fundamental_solutions([short, long], 0.3 + 0.1j)
        assert str(batch.value) == str(alone.value) and batch.value.chain == 0

    def test_eigenvalue_names_its_chain(self):
        # the two-site chain V = 0, S = 1 has the eigenvalues +-1, and its LU at E = 1 ends on an exact 0
        with pytest.raises(NumericalFailure, match="E is an eigenvalue") as exc:
            charpoly_identity_check([self.good(), scalar_instance([0.0, 0.0])], 1.0)
        assert exc.value.chain == 1

    @pytest.mark.filterwarnings("error")
    def test_frame_overflow_names_its_chain(self):
        with pytest.raises(NumericalFailure, match="overflowed") as exc:
            charpoly_identity_check([self.good(), scalar_instance([1e40] * 30)], 0.3)
        assert exc.value.chain == 1

    def test_singular_bottom_block_names_its_chain(self, monkeypatch):
        qr = transfer.qr_product

        def bottom_of_chain_1_zeroed(X, F, reorth):
            X, d = qr(X, F, reorth)
            X = X.copy()
            X[:, 1, X.shape[-1]:] = 0.0  # the bottom ell rows of both routes of chain 1
            return X, d

        monkeypatch.setattr(transfer, "qr_product", bottom_of_chain_1_zeroed)
        with pytest.raises(NumericalFailure, match="bottom block") as exc:
            charpoly_identity_check([self.good(), self.good()], 0.3)
        assert exc.value.chain == 1


def test_symplectic_form_square():
    J = symplectic_form(2)
    assert np.array_equal(J @ J, -np.eye(4))
    assert np.array_equal(J.T, -J)


def test_symplectic_defect_of_a_non_symplectic_stack():
    # diag(a, b, 1/a, 1/b) is symplectic, diag(2, 1, 1, 1) has defect |2 * 1 - 1| = 1
    A = np.stack([np.diag([2.0, 3.0, 0.5, 1.0 / 3.0]), np.diag([2.0, 1.0, 1.0, 1.0])])
    np.testing.assert_allclose(symplectic_defect(A), [0.0, 1.0], rtol=0, atol=1e-15)
