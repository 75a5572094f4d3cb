import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from randblock.errors import ConfigError
from randblock.furstenberg import (
    _P_SPLIT,
    _SP2_COORDS,
    CERTIFICATE_TOL,
    J4,
    RANK_TOL,
    UU,
    U_HADAMARD,
    Sp2Element,
    build_A0,
    build_M,
    lie_closure_dimension,
    site_transfer,
    zero_energy_reducibility_certificate,
    zero_energy_split_blocks,
)
from randblock.model import SIGMA_Z, anisotropy_block
from randblock.transfer import symplectic_defect, transfer_matrix

GRID = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


class TestGenerators:
    def test_hadamard_frame_is_block_diagonal_bit_for_bit(self):
        # built without scipy; signed zeros included, so every product with it is unchanged
        assert UU.tobytes() == scipy.linalg.block_diag(U_HADAMARD, U_HADAMARD).tobytes()

    def test_site_transfer_cross_checks_transfer_module(self):
        A = site_transfer(1.0, 1.0, 0.5)
        B = transfer_matrix(SIGMA_Z * 1.0, anisotropy_block(0.5), 1.0)
        assert np.abs(A.matrix - B).max() <= 1e-14

    def test_zero_field_zero_energy_site_is_A0(self):
        A = site_transfer(0.0, 0.0, 0.5)
        A0 = build_A0(0.0, 0.5)
        assert np.array_equal(A.matrix, A0.matrix)
        assert symplectic_defect(A.matrix) <= 1e-12

    def test_build_M_shape(self):
        M = build_M(0.7 * SIGMA_Z)
        # unipotent lower-triangular with Q in the bottom-left corner
        assert np.array_equal(M.matrix[:2, :2], np.eye(2))
        assert np.array_equal(M.matrix[2:, 2:], np.eye(2))
        assert np.array_equal(M.matrix[2:, :2], 0.7 * SIGMA_Z)
        assert np.array_equal(M.matrix[:2, 2:], np.zeros((2, 2)))

    def test_cancellation_with_equal_fields_is_identity(self):
        A = site_transfer(0.8, 1.3, 0.5)
        assert np.abs(A.matrix @ A.inv() - np.eye(4)).max() <= 1e-12

    def test_cancellation_leaves_field_difference(self, rng):
        # A_a A_b^{-1} = M((a-b) sigma_z): the potential-free step cancels exactly
        for _ in range(10):
            a, b = rng.normal(size=2)
            E = rng.uniform(-2, 2)
            gamma = rng.uniform(0.1, 0.9)
            G = Sp2Element(matrix=site_transfer(a, E, gamma).matrix @ site_transfer(b, E, gamma).inv())
            lhs = site_transfer(a, E, gamma).matrix @ np.linalg.inv(
                site_transfer(b, E, gamma).matrix
            )
            assert np.abs(G.matrix - lhs).max() <= 1e-10
            expected = build_M((a - b) * SIGMA_Z).matrix
            assert np.abs(G.matrix - expected).max() <= 1e-10

    def test_sp2_membership_guard(self):
        with pytest.raises(ConfigError):
            Sp2Element(matrix=np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_sp2_membership_guard_rejects_nan(self):
        # the NaN defect must fail the bound, not slip past a `defect > bound` test
        with pytest.raises(ConfigError, match="not symplectic"):
            Sp2Element(matrix=np.full((4, 4), np.nan))

    @pytest.mark.parametrize("E, gamma", [(np.nan, 0.5), (np.inf, 0.5), (0.5, np.nan), (0.5, -np.inf)])
    def test_A0_rejects_non_finite_input(self, E, gamma):
        with pytest.raises(ConfigError, match="finite"):
            build_A0(E, gamma)


def reference_closure_rank(E, gamma):
    """Closure rank from a plain Gram-Schmidt fixed point on flattened 4x4 matrices in the original frame."""
    A0 = build_A0(E, gamma).matrix
    A0i = np.linalg.inv(A0)
    seed = np.zeros((4, 4))
    seed[2:, :2] = SIGMA_Z
    span = [seed.ravel() / np.linalg.norm(seed)]
    grew = True
    while grew and len(span) < 10:
        grew = False
        elements = [v.reshape(4, 4) for v in span]
        candidates = [A0 @ X @ A0i for X in elements] + [A0i @ X @ A0 for X in elements]
        candidates += [X @ Y - Y @ X for k, X in enumerate(elements) for Y in elements[k + 1:]]
        for Z in candidates:
            if np.linalg.norm(Z) == 0.0:
                continue
            v = Z.ravel() / np.linalg.norm(Z)
            for _ in range(2):
                for u in span:
                    v = v - (u @ v) * u
            if np.linalg.norm(v) > RANK_TOL and len(span) < 10:
                span.append(v / np.linalg.norm(v))
                grew = True
    return np.linalg.matrix_rank(np.array(span))


class TestClosureRank:
    def test_full_rank_at_reference_point(self):
        res = lie_closure_dimension(1.0, 0.5)
        assert res.dimension == 10
        assert not res.deficient
        assert not res.marginal

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0])
    def test_full_rank_on_grid(self, gamma):
        for res in [lie_closure_dimension(E, gamma) for E in GRID]:
            assert res.dimension == 10, f"E={res.E}"
            assert not res.marginal

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0, 0.8, 0.9, 0.95, 1.1, 1.5])
    def test_zero_energy_is_deficient(self, gamma):
        # the zero-energy certificate splits the cocycle for every gamma != 1; near
        # gamma = 1 the rank must not pick up roundoff directions
        res = lie_closure_dimension(0.0, gamma)
        assert res.deficient
        assert res.dimension == 3
        assert not res.marginal

    def test_sweep_flags_exactly_zero(self):
        results = [lie_closure_dimension(E, 0.5) for E in [-1.0, 0.0, 1.0]]
        flags = [r.deficient for r in results]
        assert flags == [False, True, False]

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0])
    def test_rank_matches_plain_fixed_point(self, gamma):
        # the criterion-5 grid and E = 0
        for E in [*np.linspace(-2.4, 2.4, 20), 0.0]:
            assert lie_closure_dimension(E, gamma).dimension == reference_closure_rank(E, gamma), f"E={E}"

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 3.0)),
        E=st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(-10.0, -0.01)),
        data=st.data(),
    )
    def test_basis_spans_a_closed_subalgebra(self, gamma, E, data):
        res = lie_closure_dimension(E, gamma)
        B = res.basis
        assert B.shape == (res.dimension, 10)
        assert np.abs(B @ B.T - np.eye(res.dimension)).max() <= 1e-12
        A0 = UU @ build_A0(E, gamma).matrix @ UU
        A0i = np.linalg.inv(A0)

        def element(coeffs):
            X = np.zeros((4, 4))
            X[_SP2_COORDS] = np.asarray(coeffs) @ B
            X[1, 2], X[3, 0] = X[0, 3], X[2, 1]
            X[2:, 2:] = -X[:2, :2].T
            assert np.abs(X.T @ J4 + J4 @ X).max() == 0.0
            return X

        coeffs = st.lists(st.floats(-1.0, 1.0), min_size=res.dimension, max_size=res.dimension)
        X, Y = element(data.draw(coeffs)), element(data.draw(coeffs))
        for Z in (X @ Y - Y @ X, A0 @ X @ A0i, A0i @ X @ A0):
            z = Z[_SP2_COORDS]
            assert np.linalg.norm(z - B.T @ (B @ z)) <= 1e-10 * max(1.0, np.linalg.norm(z))


class TestZeroEnergyReduction:
    def test_split_blocks_formulas(self):
        nu, gamma = 0.7, 0.5
        D, F = zero_energy_split_blocks(nu, gamma)
        assert np.allclose(D, [[0.0, 1.0 / 1.5], [-0.5, nu / 1.5]], atol=1e-14)
        assert np.allclose(F, [[0.0, 1.0 / 0.5], [-1.5, nu / 0.5]], atol=1e-14)
        assert np.linalg.det(D) * np.linalg.det(F) == pytest.approx(1.0, abs=1e-12)

    def test_conjugation_block_diagonalizes(self, rng):
        for gamma in (0.5, 2.0):
            for nu in rng.normal(size=5):
                A = site_transfer(nu, 0.0, gamma).matrix
                B = UU @ A @ UU
                C = np.linalg.inv(_P_SPLIT) @ B @ _P_SPLIT
                D, F = zero_energy_split_blocks(nu, gamma)
                assert np.abs(C[:2, 2:]).max() <= 1e-12
                assert np.abs(C[2:, :2]).max() <= 1e-12
                assert np.abs(C[:2, :2] - D).max() <= 1e-12
                assert np.abs(C[2:, 2:] - F).max() <= 1e-12

    def test_certificate_inner_branch(self):
        rng = np.random.default_rng(5)
        rep = zero_energy_reducibility_certificate(0.5, rng.uniform(-2, 2, 100))
        assert rep.passed and rep.branch == "unit_determinant"
        assert rep.num_samples == 100
        # det D = (1-gamma)/(1+gamma) = 1/3 > 0 on this branch
        D, _ = zero_energy_split_blocks(0.3, 0.5)
        assert np.linalg.det(D) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_certificate_two_step_branch(self):
        rng = np.random.default_rng(6)
        rep = zero_energy_reducibility_certificate(2.0, rng.uniform(-2, 2, 100))
        assert rep.passed and rep.branch == "negative_determinant_two_step"
        # negative determinant forces the doubled step
        D, F = zero_energy_split_blocks(0.3, 2.0)
        assert np.linalg.det(D) == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert np.linalg.det(F) == pytest.approx(-3.0, abs=1e-13)

    def test_certificate_gamma_domain(self):
        with pytest.raises(ConfigError):
            zero_energy_reducibility_certificate(1.0, [0.1])
        with pytest.raises(ConfigError):
            zero_energy_reducibility_certificate(-0.5, [0.1])

    @pytest.mark.parametrize("nu", [[], np.zeros((2, 3)), [0.3, np.nan], [np.inf]])
    def test_certificate_rejects_empty_or_non_finite_samples(self, nu):
        with pytest.raises(ConfigError):
            zero_energy_reducibility_certificate(0.5, nu)

    @settings(max_examples=40, deadline=None)
    @given(
        gamma=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)),
        nu=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30),
    )
    def test_certificate_matches_per_sample_loop(self, gamma, nu):
        rep = zero_energy_reducibility_certificate(gamma, nu)
        Pinv = np.linalg.inv(_P_SPLIT)
        d = (1.0 - gamma) / (1.0 + gamma)
        pattern = block = det = 0.0
        for v in nu:
            B = Pinv @ (UU @ site_transfer(v, 0.0, gamma).matrix @ UU) @ _P_SPLIT
            D, F = zero_energy_split_blocks(v, gamma)
            pattern = max(pattern, np.abs(B[:2, 2:]).max(), np.abs(B[2:, :2]).max())
            block = max(block, np.abs(B[:2, :2] - D).max(), np.abs(B[2:, 2:] - F).max())
            det = max(det, abs(np.linalg.det(B[:2, :2]) - d), abs(np.linalg.det(B[2:, 2:]) - 1.0 / d))
        scale = max(1.0, max(abs(v) for v in nu), 1.0 / abs(1.0 - gamma)) ** 2
        passed = max(pattern, block) <= CERTIFICATE_TOL * scale and det <= CERTIFICATE_TOL * scale * 10
        assert (rep.pattern_max_dev, rep.block_max_dev, rep.det_max_dev) == (pattern, block, det)
        assert rep.passed == passed and rep.num_samples == len(nu)
