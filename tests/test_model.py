import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randblock import model
from randblock.errors import ConfigError
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
    params_from_config,
    random_instance,
    realization_rng,
    rho_from_config,
    sample_disorder,
    write_dense_csv,
)


def test_anisotropy_block_entries_and_determinant():
    for g in (0.0, 0.3, 0.5, 2.0, -1.7):
        S = anisotropy_block(g)
        assert np.array_equal(S, [[1.0, g], [-g, -1.0]])
        assert np.linalg.det(S) == pytest.approx(g * g - 1.0, abs=1e-14)
    # singular exactly at the isotropic points
    assert abs(np.linalg.det(anisotropy_block(1.0))) < 1e-14
    assert abs(np.linalg.det(anisotropy_block(-1.0))) < 1e-14


class TestSingleSiteDistribution:
    def test_two_point_sampling_convention(self):
        # P(value = a) = p, values drawn only from {a, b}
        rho = SingleSiteDistribution.two_point(0.0, 1.0, 0.3)
        draws = rho.sample(np.random.default_rng(0), 200_000)
        assert set(np.unique(draws)) == {0.0, 1.0}
        freq_a = np.mean(draws == 0.0)
        assert abs(freq_a - 0.3) < 4 * np.sqrt(0.3 * 0.7 / draws.size)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1), size=st.integers(0, 500))
    def test_two_point_draws_are_the_threshold_rule(self, p, seed, size):
        # the discrete law on (a, b) with weights (p, 1 - p) draws bit for bit as u < p ? a : b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrivialDisorderWarning)
            rho = SingleSiteDistribution.two_point(-0.5, 2.0, p)
        rng, ref_rng = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(2))
        draws = rho.sample(rng, size)
        ref = np.where(ref_rng.random(size) < p, -0.5, 2.0)
        assert draws.dtype == ref.dtype and np.array_equal(draws, ref)
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)

    def test_uniform_support_and_range(self):
        rho = SingleSiteDistribution.uniform(-1.0, 2.0)
        lo, hi = rho.support()
        assert (lo, hi) == (-1.0, 2.0)
        lattice = rho.support_lattice(7)
        assert lattice[0] == -1.0 and lattice[-1] == 2.0 and lattice.size == 7
        draws = rho.sample(np.random.default_rng(1), 1000)
        assert draws.min() >= -1.0 and draws.max() <= 2.0

    def test_discrete_atoms_exact(self):
        rho = SingleSiteDistribution.discrete([2.5, 3.0, 3.5], [0.25, 0.5, 0.25])
        assert np.array_equal(rho.support_lattice(99), [2.5, 3.0, 3.5])
        draws = rho.sample(np.random.default_rng(2), 5000)
        assert set(np.unique(draws)) <= {2.5, 3.0, 3.5}
        # unsorted, repeated and zero-weight atoms: the sorted distinct live atoms, as np.unique gives them
        rho = SingleSiteDistribution.discrete([3.0, -1.0, 3.0, 0.5, 2.0, -0.0], [0.2, 0.3, 0.1, 0.3, 0.0, 0.1])
        lattice = rho.support_lattice(5)
        want = np.unique([3.0, -1.0, 3.0, 0.5, -0.0])
        assert lattice.dtype == want.dtype and lattice.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SingleSiteDistribution.two_point(0.0, 1.0, 1.5)
        with pytest.raises(ConfigError):
            SingleSiteDistribution.uniform(2.0, 1.0)
        with pytest.raises(ConfigError):
            SingleSiteDistribution.discrete([0.0, 1.0], [0.7, 0.7])

    def test_trivial_disorder_warns(self):
        with pytest.warns(TrivialDisorderWarning):
            SingleSiteDistribution.two_point(0.0, 1.0, 1.0)
        with pytest.warns(TrivialDisorderWarning):
            SingleSiteDistribution.discrete([4.0], [1.0])


class TestModelParams:
    def test_broadcast_and_fields(self, two_point_field):
        # one mu and one gamma, as floats, serve all n - 1 bonds of the assembled chain
        p = ModelParams(5, 0, two_point_field, mu=-2)
        assert (p.n, p.gamma, p.mu) == (5, 0.0, -2.0)
        assert type(p.gamma) is float and type(p.mu) is float
        q = ModelParams(5, 0.5, two_point_field, mu=-2)
        S = assemble_block_jacobi(q, sample_disorder(q, 0)).S
        assert S.shape == (4, 2, 2)
        assert np.array_equal(S, np.broadcast_to(-2.0 * anisotropy_block(0.5), (4, 2, 2)))

    def test_rejects_bad_couplings(self, two_point_field):
        with pytest.raises(ConfigError):
            ModelParams(1, 0.5, two_point_field)
        with pytest.raises(ConfigError):
            ModelParams(5, 1.0, two_point_field)  # singular hopping
        with pytest.raises(ConfigError):
            ModelParams(5, -1.0, two_point_field)
        with pytest.raises(ConfigError):
            ModelParams(5, 0.5, two_point_field, mu=0.0)
        for bad in (True, [0.5, 0.5, 0.5, 0.5], "const:0.5", np.array([0.5]), np.nan):
            with pytest.raises(ConfigError):
                ModelParams(5, bad, two_point_field)
            with pytest.raises(ConfigError):
                ModelParams(5, 0.5, two_point_field, mu=bad)


def test_realization_determinism(xy_params):
    p = xy_params(n=30)
    a = sample_disorder(p, seed=7, index=3)
    b = sample_disorder(p, seed=7, index=3)
    c = sample_disorder(p, seed=7, index=4)
    assert np.array_equal(a.nu, b.nu)
    assert not np.array_equal(a.nu, c.nu)
    assert set(np.unique(a.nu)) <= {0.0, 1.0}


def test_realization_rng_streams_are_independent():
    x = realization_rng(1, 0).random(4)
    y = realization_rng(1, 1).random(4)
    z = realization_rng(2, 0).random(4)
    assert not np.array_equal(x, y) and not np.array_equal(x, z)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), index=st.integers(0, 2**63 - 1))
def test_realization_rng_keeps_every_nonnegative_stream(seed, index):
    # below 2^63 the key array built from a plain list is exact, bit for bit
    reference = np.random.Generator(np.random.Philox(key=[seed, index]))
    assert np.array_equal(realization_rng(seed, index).integers(0, 2**63, 8), reference.integers(0, 2**63, 8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seeds", [(-1, -2), (2**64 - 1024, 2**64 - 1000)])
def test_realization_rng_keeps_large_and_negative_seeds_apart(seeds):
    x, y = (realization_rng(seed, 0).random(4) for seed in seeds)
    assert not np.array_equal(x, y)


def test_interleave_permutation_explicit():
    assert np.array_equal(interleave_permutation(3), [0, 3, 1, 4, 2, 5])


def test_dense_fixture_n2():
    # n=2, gamma=1/2, nu=(1,2): every entry of the 4x4 block layout
    p = ModelParams(2, 0.5, SingleSiteDistribution.discrete([1.0, 2.0], [0.5, 0.5]))
    real = DisorderRealization(seed=0, index=0, nu=np.array([1.0, 2.0]))
    M = assemble_block_jacobi(p, real).dense()
    expected = np.array(
        [
            [1.0, 0.0, -1.0, -0.5],
            [0.0, -1.0, 0.5, 1.0],
            [-1.0, 0.5, 2.0, 0.0],
            [-0.5, 1.0, 0.0, -2.0],
        ]
    )
    assert np.array_equal(M, expected)


def test_hat_form_matches_dense_under_interleaving(xy_params):
    for n, seed in [(2, 0), (7, 1), (24, 5)]:
        p = xy_params(n=n)
        real = sample_disorder(p, seed)
        M = assemble_block_jacobi(p, real).dense()
        hat = assemble_hat_form(p, real).dense()
        perm = interleave_permutation(n)
        assert np.array_equal(M, hat[np.ix_(perm, perm)])


def test_hat_blocks_structure(xy_params):
    p = xy_params(n=6)
    real = sample_disorder(p, 11)
    hat = assemble_hat_form(p, real)
    assert np.array_equal(np.diag(hat.A), real.nu)
    assert np.array_equal(np.diag(hat.A, 1), np.full(5, -p.mu))
    assert np.array_equal(np.diag(hat.B, 1), np.full(5, -p.mu * p.gamma))
    assert np.array_equal(hat.B, -hat.B.T)
    dense = hat.dense()
    assert np.array_equal(dense[:6, :6], hat.A)
    assert np.array_equal(dense[6:, 6:], -hat.A)


def test_block_matrix_validation():
    with pytest.raises(ConfigError):
        # nonsymmetric diagonal block
        BlockJacobiMatrix(np.tile([[0.0, 1.0], [0.0, 0.0]], (2, 1, 1)), np.eye(2)[None])
    with pytest.raises(ConfigError):
        # singular hopping block
        BlockJacobiMatrix(np.zeros((2, 2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(ConfigError, match="S has shape"):
        BlockJacobiMatrix(np.zeros((3, 2, 2)), np.eye(2)[None])  # length mismatch
    for V in (np.zeros((0, 2, 2)), np.zeros((2, 2, 3)), np.zeros((2, 2))):
        with pytest.raises(ConfigError, match="V has shape"):
            BlockJacobiMatrix(V, np.zeros((1, 2, 2)))


def test_block_matrix_sizes_are_read_off_the_blocks():
    M = BlockJacobiMatrix(np.zeros((4, 3, 3)), np.tile(np.eye(3), (3, 1, 1)))
    assert (M.n, M.ell) == (4, 3)
    one_site = BlockJacobiMatrix(np.ones((1, 1, 1)), np.zeros((0, 1, 1)))
    assert (one_site.n, one_site.ell) == (1, 1)
    assert np.array_equal(one_site.dense(), [[1.0]])



def test_hat_matrix_size_is_read_off_the_blocks():
    hat = HatBlockMatrix(np.eye(3), np.zeros((3, 3)))
    assert hat.n == 3
    assert hat.dense().shape == (6, 6)
    for A in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(ConfigError, match="A has shape"):
            HatBlockMatrix(A, A)
    with pytest.raises(ConfigError, match="B has shape"):
        HatBlockMatrix(np.eye(3), np.zeros((2, 2)))

def test_random_instance_respects_constraints(rng):
    for ell in (1, 2, 3):
        M = random_instance(rng, ell, 12)
        assert M.ell == ell and M.n == 12
        for V in M.V:
            assert np.array_equal(V, V.T)
        for S in M.S:
            assert abs(np.linalg.det(S)) >= model._MIN_HOPPING_DET


def _one_at_a_time_instance(rng, ell, n, min_hopping_det):
    """Reference draw: one V block at a time, then one candidate hopping at a time."""
    V = []
    for _ in range(n):
        raw = rng.uniform(-1.5, 1.5, (ell, ell))
        V.append(0.5 * (raw + raw.T))
    S = []
    while len(S) < n - 1:
        raw = rng.uniform(-1.2, 1.2, (ell, ell))
        if abs(np.linalg.det(raw)) >= min_hopping_det:
            S.append(raw)
    return np.array(V), np.array(S).reshape(n - 1, ell, ell)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ell=st.integers(1, 3),
    n=st.integers(1, 40),
    min_hopping_det=st.one_of(st.floats(0.0, 0.9), st.floats(0.9, 0.99)),
)
def test_batched_random_instance_keeps_the_random_stream(seed, ell, n, min_hopping_det):
    # a threshold near 1 rejects most candidates, so the draw takes many rounds
    batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(model, "_MIN_HOPPING_DET", min_hopping_det):
        M = random_instance(batched, ell, n)
    V, S = _one_at_a_time_instance(reference, ell, n, min_hopping_det)
    assert np.array_equal(M.V, V)
    assert np.array_equal(M.S, S)
    assert batched.random() == reference.random()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ell=st.integers(1, 3), n=st.integers(1, 30))
def test_dense_equals_per_site_fill_and_band(seed, ell, n):
    M = random_instance(np.random.default_rng(seed), ell, n)
    expected = np.zeros((n * ell, n * ell))
    for k in range(n):
        expected[k * ell:(k + 1) * ell, k * ell:(k + 1) * ell] = M.V[k]
    for k in range(n - 1):
        expected[k * ell:(k + 1) * ell, (k + 1) * ell:(k + 2) * ell] = -M.S[k]
        expected[(k + 1) * ell:(k + 2) * ell, k * ell:(k + 1) * ell] = -M.S[k].T
    dense = M.dense()
    assert np.array_equal(dense, expected)
    band = M.band()
    for k in range(2 * ell):
        assert np.array_equal(band[k, : max(n * ell - k, 0)], np.diagonal(dense, -k))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_assembled_hoppings_equal_the_per_site_stack(seed, n):
    rng = np.random.default_rng(seed)
    gamma = float(rng.choice([0.0, -0.5, 2.0]) * rng.uniform(0.1, 0.9))
    mu = float(rng.uniform(-3.0, 3.0))
    p = ModelParams(n=n, gamma=gamma, rho=SingleSiteDistribution.uniform(-1.0, 1.0), mu=mu)
    S = assemble_block_jacobi(p, sample_disorder(p, seed)).S
    stack = anisotropy_block(np.full(n - 1, gamma))
    assert stack.tobytes() == np.array([anisotropy_block(gamma)] * (n - 1)).tobytes()
    expected = np.array([mu * anisotropy_block(gamma) for _ in range(n - 1)])
    assert np.array_equal(S, expected)
    assert S.tobytes() == expected.tobytes()  # signed zeros too


def test_write_dense_csv_round_trip(tmp_path, xy_params):
    p = xy_params(n=4)
    M = assemble_block_jacobi(p, sample_disorder(p, 9))
    path = tmp_path / "m.csv"
    write_dense_csv(M, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# randblock matrix n=4 ell=2"
    back = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    assert np.array_equal(back, M.dense())


def test_params_from_config_rejects_bad_input():
    base = {"n": 6, "gamma": 0.5, "rho": {"kind": "two_point", "a": 0.0, "b": 1.0, "p": 0.5}}
    with pytest.raises(ConfigError):
        params_from_config({**base, "ell": 3})
    with pytest.raises(ConfigError):
        params_from_config({k: v for k, v in base.items() if k != "rho"})
    for bad in ([1.0] * 5, "const:1.0", True):  # per-bond lists and "const:" strings are gone
        with pytest.raises(ConfigError):
            params_from_config({**base, "mu": bad})
        with pytest.raises(ConfigError):
            params_from_config({**base, "gamma": bad})
    p = params_from_config({**base, "mu": 2})
    assert (p.n, p.gamma, p.mu) == (6, 0.5, 2.0)
    with pytest.raises(ConfigError):
        rho_from_config({"kind": "gaussian"})


@pytest.mark.parametrize("change", [
    {"n": 10**7}, {"n": 2.5}, {"n": 1}, {"ell": 2.5}, {"mu": 0.0}, {"gamma": 1.0},
    {"rho": {"kind": "uniform", "b": 1.0}}, {"rho": {"kind": "uniform", "a": "x", "b": 1.0}},
    {"rho": {"kind": "two_point", "a": 0.0, "b": 1.0, "p": [0.5]}}, {"rho": {"kind": ["uniform"]}},
    {"rho": {"kind": "discrete", "points": [], "weights": []}}, {"rho": "uniform"},
])
def test_params_from_config_refuses_what_the_cli_refuses(change):
    base = {"n": 6, "gamma": 0.5, "rho": {"kind": "uniform", "a": -1.0, "b": 1.0}}
    with pytest.raises(ConfigError):
        params_from_config({**base, **change})


def test_config_parsing_leaves_the_config_as_it_is():
    rho = {"kind": "two_point", "a": 0.0, "b": 1.0}
    cfg = {"n": 6, "gamma": 0.5, "rho": rho, "method": "fermionic"}  # an undeclared key is not refused
    assert params_from_config(cfg).rho == rho_from_config(rho) == SingleSiteDistribution.two_point(0.0, 1.0)
    assert cfg == {"n": 6, "gamma": 0.5, "rho": {"kind": "two_point", "a": 0.0, "b": 1.0}, "method": "fermionic"}
