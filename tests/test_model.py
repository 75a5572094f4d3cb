import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randblock.errors import ConfigError
from randblock.model import (
    BlockJacobiMatrix,
    DisorderRealization,
    ModelParams,
    SingleSiteDistribution,
    TrivialDisorderWarning,
    anisotropy_block,
    assemble_block_jacobi,
    assemble_general,
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
        p = ModelParams.xy(5, 0.5, two_point_field)
        assert p.ell == 2
        assert np.array_equal(p.mu, np.ones(4))
        assert np.array_equal(p.gamma, np.full(4, 0.5))

    def test_rejects_bad_couplings(self, two_point_field):
        with pytest.raises(ConfigError):
            ModelParams.xy(1, 0.5, two_point_field)
        with pytest.raises(ConfigError):
            ModelParams.xy(5, 1.0, two_point_field)  # singular hopping
        with pytest.raises(ConfigError):
            ModelParams.xy(5, -1.0, two_point_field)
        with pytest.raises(ConfigError):
            ModelParams.xy(5, 0.5, two_point_field, mu=0.0)


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


def test_interleave_permutation_explicit():
    assert np.array_equal(interleave_permutation(3), [0, 3, 1, 4, 2, 5])


def test_dense_fixture_n2():
    # n=2, gamma=1/2, nu=(1,2): every entry of the 4x4 block layout
    p = ModelParams.xy(2, 0.5, SingleSiteDistribution.discrete([1.0, 2.0], [0.5, 0.5]))
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
    assert np.array_equal(np.diag(hat.A, 1), -p.mu)
    assert np.array_equal(np.diag(hat.B, 1), -p.mu * p.gamma)
    assert np.array_equal(hat.B, -hat.B.T)
    dense = hat.dense()
    assert np.array_equal(dense[:6, :6], hat.A)
    assert np.array_equal(dense[6:, 6:], -hat.A)


def test_block_matrix_validation():
    with pytest.raises(ConfigError):
        # nonsymmetric diagonal block
        assemble_general(2, [np.array([[0.0, 1.0], [0.0, 0.0]])] * 2, [np.eye(2)])
    with pytest.raises(ConfigError):
        # singular hopping block
        assemble_general(2, [np.zeros((2, 2))] * 2, [np.zeros((2, 2))])
    with pytest.raises(ConfigError):
        assemble_general(2, [np.zeros((2, 2))] * 3, [np.eye(2)])  # length mismatch


def test_fingerprint_is_stable_and_sensitive(xy_params):
    p = xy_params(n=10)
    M1 = assemble_block_jacobi(p, sample_disorder(p, 1))
    M2 = assemble_block_jacobi(p, sample_disorder(p, 1))
    M3 = assemble_block_jacobi(p, sample_disorder(p, 2))
    assert M1.fingerprint() == M2.fingerprint()
    assert M1.fingerprint() != M3.fingerprint()
    assert len(M1.fingerprint()) == 12


def test_random_instance_respects_constraints(rng):
    for ell in (1, 2, 3):
        M = random_instance(rng, ell, 12, min_hopping_det=0.3)
        assert M.ell == ell and M.n == 12
        for V in M.V:
            assert np.array_equal(V, V.T)
        for S in M.S:
            assert abs(np.linalg.det(S)) >= 0.3


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
    M = random_instance(batched, ell, n, min_hopping_det=min_hopping_det)
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


def test_write_dense_csv_round_trip(tmp_path, xy_params):
    p = xy_params(n=4)
    M = assemble_block_jacobi(p, sample_disorder(p, 9))
    path = tmp_path / "m.csv"
    write_dense_csv(M, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# randblock matrix n=4 ell=2"
    back = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    assert np.array_equal(back, M.dense())


def test_params_from_config_round_trip(two_point_field):
    cfg = {
        "n": 6,
        "gamma": 0.5,
        "mu": "const:1.0",
        "rho": {"kind": "two_point", "a": 0.0, "b": 1.0, "p": 0.5},
        "ell": 2,
    }
    p = params_from_config(cfg)
    assert p.n == 6 and np.array_equal(p.gamma, np.full(5, 0.5))
    q = params_from_config(p.to_config())
    assert np.array_equal(q.mu, p.mu) and np.array_equal(q.gamma, p.gamma)
    assert q.rho.to_config() == p.rho.to_config()


def test_params_from_config_rejects_bad_input():
    base = {"n": 6, "gamma": 0.5, "rho": {"kind": "two_point", "a": 0.0, "b": 1.0, "p": 0.5}}
    with pytest.raises(ConfigError):
        params_from_config({**base, "ell": 3})
    with pytest.raises(ConfigError):
        params_from_config({k: v for k, v in base.items() if k != "rho"})
    with pytest.raises(ConfigError):
        params_from_config({**base, "mu": [1.0, 1.0]})  # needs n-1 entries
    with pytest.raises(ConfigError):
        rho_from_config({"kind": "gaussian"})
