import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randblock import furstenberg
from randblock.errors import ConfigError
from randblock.furstenberg import (
    _P_SPLIT,
    _SP2_COORDS,
    CERTIFICATE_TOL,
    COMMUTATOR_DISCARD,
    J4,
    MAX_CLOSURE_DEPTH,
    UU,
    Sp2Element,
    _closure_coordinates,
    build_A0,
    build_M,
    energy_sweep_rank,
    lie_closure_dimension,
    site_transfer,
    zero_energy_reducibility_certificate,
    zero_energy_split_blocks,
)
from randblock.model import SIGMA_Z, anisotropy_block
from randblock.transfer import transfer_matrix

GRID = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


class TestGenerators:
    def test_site_transfer_cross_checks_transfer_module(self):
        A = site_transfer(1.0, 1.0, 0.5)
        B = transfer_matrix(SIGMA_Z * 1.0, anisotropy_block(0.5), 1.0)
        assert np.abs(A.matrix - B.matrix).max() <= 1e-14

    def test_zero_field_zero_energy_site_is_A0(self):
        A = site_transfer(0.0, 0.0, 0.5)
        A0 = build_A0(0.0, 0.5)
        assert np.array_equal(A.matrix, A0.matrix)
        assert A.symplectic_defect() <= 1e-12

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


class TestClosureRank:
    def test_full_rank_at_reference_point(self):
        res = lie_closure_dimension(1.0, 0.5, depth=2)
        assert res.dimension == 10
        assert not res.deficient
        assert not res.marginal

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0])
    def test_full_rank_on_grid(self, gamma):
        for res in energy_sweep_rank(gamma, GRID, depth=3):
            assert res.dimension == 10, f"E={res.E}"
            assert not res.marginal

    def test_zero_energy_is_deficient(self):
        # the measured closure dimension at E=0 is pinned as a regression
        # value; the structural claim is only that it falls below 10
        for gamma in (0.3, 0.5, 2.0):
            res = lie_closure_dimension(0.0, gamma, depth=3)
            assert res.deficient
            assert res.dimension == 3

    @pytest.mark.parametrize(
        "E, gamma, pins",
        [
            (1.0, 0.5, [(1, 1), (4, 5), (10, 35), (10, 740)]),
            (-1.7, 2.0, [(1, 1), (4, 5), (10, 35), (10, 740)]),
            (0.0, 0.5, [(1, 1), (2, 5), (3, 31), (3, 461)]),
            (0.0, 2.0, [(1, 1), (2, 5), (3, 31), (3, 461)]),
        ],
    )
    def test_dimension_and_element_count_per_depth(self, E, gamma, pins):
        # regression pins (dimension, num_elements) at depths 0..3; the element
        # count depends on which commutators pass the discard rule
        for depth, (dimension, num_elements) in enumerate(pins):
            res = lie_closure_dimension(E, gamma, depth=depth)
            assert (res.dimension, res.marginal, res.num_elements) == (dimension, False, num_elements)

    @pytest.mark.parametrize("E, gamma", [(1.0, 0.5), (0.0, 2.0)])
    def test_stacked_growth_matches_elementwise_loop(self, E, gamma):
        A0 = build_A0(E, gamma).matrix
        A0i = np.linalg.inv(A0)
        powers = [A0, A0i, A0 @ A0, A0i @ A0i]
        conj = [(UU @ P @ UU, UU @ np.linalg.inv(P) @ UU) for P in powers]
        seed = np.zeros((4, 4))
        seed[2:, :2] = SIGMA_Z
        X0 = UU @ seed @ UU
        elements = [X0 / np.linalg.norm(X0)]
        for _ in range(2):
            fresh = [C @ X @ Ci / np.linalg.norm(C @ X @ Ci) for X in elements for C, Ci in conj]
            for i, X in enumerate(elements):
                for Y in elements[i + 1:]:
                    Z = X @ Y - Y @ X
                    if np.linalg.norm(Z) > COMMUTATOR_DISCARD * np.linalg.norm(X) * np.linalg.norm(Y):
                        fresh.append(Z / np.linalg.norm(Z))
            elements += fresh
        for X in elements:
            assert np.abs(X.T @ J4 + J4 @ X).max() <= 1e-14
        expected = np.array([[X[i, j] for i, j in zip(*_SP2_COORDS)] for X in elements])
        got = _closure_coordinates(E, gamma, 2)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-14

    @pytest.mark.parametrize("depth", [MAX_CLOSURE_DEPTH + 1, 7, -1])
    def test_depth_outside_range_is_refused_before_any_element(self, depth, monkeypatch):
        # depth 5 would need about 3.7e10 elements
        def fail(*args):
            raise AssertionError("closure elements were built")

        monkeypatch.setattr(furstenberg, "_closure_coordinates", fail)
        with pytest.raises(ConfigError, match="depth"):
            lie_closure_dimension(1.0, 0.5, depth=depth)

    def test_sweep_flags_exactly_zero(self):
        results = energy_sweep_rank(0.5, [-1.0, 0.0, 1.0], depth=3)
        flags = [r.deficient for r in results]
        assert flags == [False, True, False]


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
