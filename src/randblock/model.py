"""Random block Jacobi matrices with 2x2 anisotropic hopping.

The operator acts on vectors u = (u(1), ..., u(n)) with u(k) in C^ell as

    (M u)(k) = V_k u(k) - S_k u(k+1) - S_{k-1}^t u(k-1),

i.e. the dense matrix carries V_k on the diagonal and -S_k / -S_k^t on the
off-diagonals.  The anisotropic single-band chain is the special case
ell = 2, V_k = nu_k sigma_z, S_k = mu S(gamma) with

    S(gamma) = [[1, gamma], [-gamma, -1]],   det S(gamma) = gamma^2 - 1.

An equivalent "hat" layout groups the two internal components into two
scalar chains coupled by an antisymmetric band; `assemble_hat_form` builds
it and `interleave_permutation` maps it back onto the block layout.  The
chain is chiral: Gamma = diag(sigma_x, ..., sigma_x) anticommutes with M, so
the per-site rotation (1/sqrt2) [[1, 1], [1, -1]] turns M into
[[0, C], [C^t, 0]] with the n x n tridiagonal coupling C = A - B of the hat
form (Lieb, Schultz and Mattis 1961); `chiral_coupling` builds C.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

SIGMA_Z = np.diag([1.0, -1.0])


class TrivialDisorderWarning(UserWarning):
    """Raised when a disorder distribution is almost surely constant."""


def anisotropy_block(gamma: float | np.ndarray) -> np.ndarray:
    """Hopping block S(gamma) = [[1, gamma], [-gamma, -1]].

    An array of gamma gives the stack of blocks, shape gamma.shape + (2, 2).
    """
    gamma = np.asarray(gamma, dtype=float)
    S = np.empty(gamma.shape + (2, 2))
    S[..., 0, 0] = 1.0
    S[..., 0, 1] = gamma
    S[..., 1, 0] = -gamma
    S[..., 1, 1] = -1.0
    return S


def check_gamma(gamma: float) -> None:
    """ConfigError unless the anisotropy gamma is finite with |gamma| != 1.

    |gamma| = 1 makes every hopping block singular and the transfer matrix
    formalism meaningless, so it is rejected outright.
    """
    if not np.isfinite(gamma):
        raise ConfigError(f"anisotropy gamma must be finite, got {gamma!r}")
    if abs(gamma) == 1.0:
        raise ConfigError("anisotropy gamma = +-1 gives singular hopping blocks")


def _check_zero_energy_gamma(gamma: float, subject: str) -> None:
    """ConfigError "<subject> gamma in (0, 1) or (1, inf)" outside the zero-energy domain; NaN and inf pass."""
    if gamma <= 0.0 or gamma == 1.0:
        raise ConfigError(f"{subject} gamma in (0, 1) or (1, inf)")


# ---------------------------------------------------------------------------
# single-site disorder distributions


@dataclass
class SingleSiteDistribution:
    """Distribution of one potential entry nu_k.

    Supported kinds:
      uniform    Lebesgue on [a, b]
      discrete   finitely many atoms with explicit weights, two_point among them
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    points: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "discrete"):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if not np.all(np.isfinite([self.a, self.b, *self.points, *self.weights])):
            raise ConfigError("distribution parameters must be finite numbers")
        if self.kind == "uniform" and self.b < self.a:
            raise ConfigError(f"uniform endpoints out of order: [{self.a}, {self.b}]")
        if self.kind == "discrete":
            if len(self.points) == 0 or len(self.points) != len(self.weights):
                raise ConfigError("discrete distribution needs matching points/weights")
            if any(w < 0 for w in self.weights):
                raise ConfigError("discrete weights must be nonnegative")
            total = float(sum(self.weights))
            if abs(total - 1.0) > 1e-12:
                raise ConfigError(f"discrete weights sum to {total}, expected 1")
        if self.is_trivial:
            warnings.warn(
                "disorder distribution is almost surely constant",
                TrivialDisorderWarning,
                stacklevel=2,
            )

    @classmethod
    def two_point(cls, a: float, b: float, p: float = 0.5) -> "SingleSiteDistribution":
        """The discrete law P(nu = a) = p, P(nu = b) = 1 - p.

        Its draws are np.where(rng.random(size) < p, a, b) bit for bit:
        Generator.choice draws one random() per sample and picks a below the
        first cumulative weight, which is p, as p + fl(1 - p) rounds to 1.0.
        """
        return cls.discrete((a, b), (p, 1.0 - float(p)))

    @classmethod
    def uniform(cls, a: float, b: float) -> "SingleSiteDistribution":
        return cls(kind="uniform", a=float(a), b=float(b))

    @classmethod
    def discrete(cls, points: Sequence[float], weights: Sequence[float]) -> "SingleSiteDistribution":
        return cls(
            kind="discrete",
            points=tuple(float(x) for x in points),
            weights=tuple(float(w) for w in weights),
        )

    @property
    def is_trivial(self) -> bool:
        if self.kind == "uniform":
            return self.a == self.b
        live = {x for x, w in zip(self.points, self.weights) if w > 0.0}
        return len(live) <= 1

    def support(self) -> tuple[float, float]:
        """Closed hull [min, max] of the support."""
        if self.kind == "discrete":
            live = [x for x, w in zip(self.points, self.weights) if w > 0.0]
            return min(live), max(live)
        return self.a, self.b

    def support_lattice(self, samples: int) -> np.ndarray:
        """Deterministic grid of support points used for periodic approximants.

        Atomic distributions return their atoms exactly; the uniform kind
        returns an evenly spaced grid including both endpoints.
        """
        if self.kind == "discrete":
            # sorted(set()), not np.unique, whose first call imports numpy.ma
            return np.array(sorted({x for x, w in zip(self.points, self.weights) if w > 0.0}))
        if samples < 2 or self.a == self.b:
            return np.array([0.5 * (self.a + self.b)])
        return np.linspace(self.a, self.b, samples)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size)
        return rng.choice(np.asarray(self.points), size=size, p=np.asarray(self.weights))


# ---------------------------------------------------------------------------
# model parameters and disorder realizations


@dataclass
class ModelParams:
    """Parameters of the ell = 2 anisotropic chain on n sites.

    One hopping strength `mu` and one anisotropy `gamma` serve every bond;
    `rho` is the common law of the i.i.d. diagonal potential entries
    nu_1, ..., nu_n.  Both couplings are stored as floats; a bool or a
    non-number, a non-finite value, mu = 0 and |gamma| = 1 are ConfigErrors.
    """

    n: int
    gamma: float
    rho: SingleSiteDistribution
    mu: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError(f"need at least 2 sites, got n={self.n}")
        for name in ("mu", "gamma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            setattr(self, name, float(value))
        if not (np.isfinite(self.mu) and self.mu != 0.0):
            raise ConfigError(f"hopping strength mu must be finite and nonzero, got {self.mu!r}")
        check_gamma(self.gamma)


@dataclass
class DisorderRealization:
    """One sampled potential sequence, tagged by its counter-mode RNG key."""

    seed: int
    index: int
    nu: np.ndarray


_U64 = (1 << 64) - 1


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for realization `index` of stream `seed`.

    Philox keyed on (seed, index) makes every realization independently
    addressable: ensembles can be evaluated in any order or in parallel
    without changing a single sample.
    """
    # a list holding a value of 2^63 or more would pass through float64 and merge seeds
    key = np.array([int(seed) & _U64, int(index) & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_disorder(params: ModelParams, seed: int, index: int = 0) -> DisorderRealization:
    """Draw the n diagonal entries nu_k ~ rho, i.i.d., for one realization."""
    rng = realization_rng(seed, index)
    nu = params.rho.sample(rng, params.n)
    return DisorderRealization(seed=int(seed), index=int(index), nu=np.asarray(nu, dtype=float))


# ---------------------------------------------------------------------------
# assembled matrices


@dataclass
class BlockJacobiMatrix:
    """Block tridiagonal matrix given by diagonal blocks V and hoppings S.

    V has shape (n, ell, ell) with n >= 1 and V_k symmetric, S has shape
    (n-1, ell, ell) with every det S_k nonzero; n and ell are read off V.
    `dense()` realizes the n*ell square matrix with the sign convention
    stated in the module docstring.
    """

    V: np.ndarray
    S: np.ndarray

    def __post_init__(self) -> None:
        self.V = np.asarray(self.V, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        if self.V.ndim != 3 or self.V.shape[0] < 1 or self.V.shape[1] != self.V.shape[2]:
            raise ConfigError(f"V has shape {self.V.shape}, expected (n, ell, ell) with n >= 1")
        if self.S.shape != (self.n - 1, self.ell, self.ell):
            raise ConfigError(f"S has shape {self.S.shape}, expected {(self.n - 1, self.ell, self.ell)}")
        asym = np.max(np.abs(self.V - np.transpose(self.V, (0, 2, 1))))
        if asym != 0.0:
            raise ConfigError(f"diagonal blocks must be exactly symmetric, max asymmetry {asym}")
        # the slogdet sign is 0 exactly at a singular block, at any scale of S
        signs, _ = np.linalg.slogdet(self.S)
        if not np.all(signs != 0.0):
            raise ConfigError("hopping blocks must be invertible")

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def ell(self) -> int:
        return self.V.shape[-1]

    def dense(self) -> np.ndarray:
        """The n ell x n ell matrix, filled by fancy indexing on its (n, ell, n, ell) view."""
        ell, n = self.ell, self.n
        M = np.zeros((n, ell, n, ell))
        k = np.arange(n)
        M[k, :, k, :] = self.V
        M[k[:-1], :, k[1:], :] = -self.S
        M[k[1:], :, k[:-1], :] = -np.swapaxes(self.S, 1, 2)
        return M.reshape(n * ell, n * ell)

    def band(self) -> np.ndarray:
        """LAPACK lower band storage, shape (2 ell, n ell): band[k, j] = dense[j + k, j].

        The lower bandwidth is 2 ell - 1: column j = b ell + c holds the
        lower triangle of V_b in rows 0..ell-1-c and -S_b^t in rows
        ell-c..2ell-1-c.  Entries past the end of the matrix stay zero.
        """
        ell, n = self.ell, self.n
        out = np.zeros((2 * ell, n * ell))
        r, c = np.tril_indices(ell)
        out[r - c, np.arange(n)[:, None] * ell + c] = self.V[:, r, c]
        r, c = (idx.ravel() for idx in np.indices((ell, ell)))
        out[ell + r - c, np.arange(n - 1)[:, None] * ell + c] = -self.S[:, c, r]
        return out

    def chiral_coupling(self) -> np.ndarray:
        """The n x n coupling C of the chiral form [[0, C], [C^t, 0]] of M.

        Needs ell = 2 and blocks that anticommute with sigma_x exactly:
        V_k[0, 0] + V_k[1, 1] = 0, V_k[0, 1] = 0, S_k[0, 0] + S_k[1, 1] = 0 and
        S_k[0, 1] + S_k[1, 0] = 0; raises ConfigError otherwise.  With
        H = [[1, 1], [1, -1]] the entries are those of H X H / 2 at (0, 1)
        and (1, 0): C_kk = V_k[0, 0], C_{k,k+1} = -(S_k[0, 0] - S_k[0, 1]) and
        C_{k+1,k} = -(S_k[0, 0] + S_k[0, 1]).  An eigenpair of M is
        psi_+-(k) = (u_k +- v_k, u_k -+ v_k) / 2 at +-sigma for every
        singular triple C v = sigma u.
        """
        V, S = self.V, self.S
        chiral = (
            self.ell == 2
            and not np.any(V[:, 0, 0] + V[:, 1, 1])
            and not np.any(V[:, 0, 1])
            and not np.any(S[:, 0, 0] + S[:, 1, 1])
            and not np.any(S[:, 0, 1] + S[:, 1, 0])
        )
        if not chiral:
            raise ConfigError("not a chiral ell = 2 chain: the blocks do not anticommute with sigma_x")
        n = self.n
        C = np.zeros((n, n))
        k = np.arange(n - 1)
        C[np.arange(n), np.arange(n)] = V[:, 0, 0]
        C[k, k + 1] = -(S[:, 0, 0] - S[:, 0, 1])
        C[k + 1, k] = -(S[:, 0, 0] + S[:, 0, 1])
        return C


@dataclass
class HatBlockMatrix:
    """Same operator in the two-chain layout [[A, B], [-B, -A]].

    A is the symmetric tridiagonal single-band part (diagonal nu, off
    diagonal -mu) and B the antisymmetric anisotropy band with
    B[j, j+1] = -mu gamma; both are (n, n), and n is read off A.
    Conjugating `dense()` by the interleaving permutation recovers the
    block Jacobi dense matrix exactly.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] < 1 or self.A.shape[0] != self.A.shape[1]:
            raise ConfigError(f"A has shape {self.A.shape}, expected (n, n) with n >= 1")
        if self.B.shape != self.A.shape:
            raise ConfigError(f"B has shape {self.B.shape}, expected {self.A.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def dense(self) -> np.ndarray:
        return np.block([[self.A, self.B], [-self.B, -self.A]])


def interleave_permutation(n: int) -> np.ndarray:
    """Permutation p with p[2k] = k, p[2k+1] = n + k (hat -> block order)."""
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = n + np.arange(n)
    return perm


def assemble_block_jacobi(params: ModelParams, real: DisorderRealization) -> BlockJacobiMatrix:
    """Build the ell = 2 chain matrix for one disorder realization."""
    if real.nu.shape != (params.n,):
        raise ConfigError(f"realization has {real.nu.shape[0]} potential entries, expected {params.n}")
    V = real.nu[:, None, None] * SIGMA_Z[None, :, :]
    S = np.repeat(params.mu * anisotropy_block(params.gamma)[None], params.n - 1, axis=0)
    return BlockJacobiMatrix(V, S)


def assemble_hat_form(params: ModelParams, real: DisorderRealization) -> HatBlockMatrix:
    """Build the interleaved two-chain layout of the same realization."""
    if real.nu.shape != (params.n,):
        raise ConfigError(f"realization has {real.nu.shape[0]} potential entries, expected {params.n}")
    n = params.n
    hop = np.full(n - 1, params.mu)
    band = hop * params.gamma
    A = np.diag(real.nu) + np.diag(-hop, 1) + np.diag(-hop, -1)
    B = np.diag(-band, 1) + np.diag(band, -1)
    return HatBlockMatrix(A, B)


# random_instance draws V entries in +-_POTENTIAL_SCALE (then symmetrizes) and
# S entries in +-_HOPPING_SCALE
_POTENTIAL_SCALE = 1.5
_HOPPING_SCALE = 1.2
_MIN_HOPPING_DET = 0.3


def random_instance(rng: np.random.Generator, ell: int, n: int) -> BlockJacobiMatrix:
    """Generic random instance: symmetric V blocks, invertible dense S blocks.

    All V blocks come from one draw.  Hopping blocks are redrawn until their
    |determinant| clears _MIN_HOPPING_DET, which keeps transfer matrices well
    conditioned: each round draws exactly as many candidates as hoppings are
    still missing and keeps those that clear it, in order.  No round draws
    past the last accepted candidate, so the chain and the generator state
    afterwards equal those of drawing one candidate at a time.
    """
    raw = rng.uniform(-_POTENTIAL_SCALE, _POTENTIAL_SCALE, (n, ell, ell))
    V = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    S = np.empty((0, ell, ell))
    while S.shape[0] < n - 1:
        raw = rng.uniform(-_HOPPING_SCALE, _HOPPING_SCALE, (n - 1 - S.shape[0], ell, ell))
        S = np.concatenate([S, raw[np.abs(np.linalg.det(raw)) >= _MIN_HOPPING_DET]])
    return BlockJacobiMatrix(V, S)


def write_dense_csv(matrix: BlockJacobiMatrix, path) -> None:
    """Dump the dense matrix as CSV with a dimension header line."""
    dense = matrix.dense()
    with open(path, "w") as fh:
        fh.write(f"# randblock matrix n={matrix.n} ell={matrix.ell}\n")
        for row in dense:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


# ---------------------------------------------------------------------------
# JSON config parsing (shared by the CLI)


def rho_from_config(cfg: dict) -> SingleSiteDistribution:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("rho must be an object with a 'kind' field")
    kind = cfg["kind"]
    try:
        if kind == "two_point":
            return SingleSiteDistribution.two_point(cfg["a"], cfg["b"], cfg.get("p", 0.5))
        if kind == "uniform":
            return SingleSiteDistribution.uniform(cfg["a"], cfg["b"])
        if kind == "discrete":
            return SingleSiteDistribution.discrete(cfg["points"], cfg["weights"])
    except KeyError as exc:
        raise ConfigError(f"rho config missing field {exc}") from exc
    except ConfigError:  # a ValueError subclass; keep its own message
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rho value: {exc}") from exc
    raise ConfigError(f"unknown rho kind {kind!r}")


def params_from_config(cfg: dict) -> ModelParams:
    """Parse the model section of a run config into ModelParams.

    `gamma` and the optional `mu` (default 1.0) are single numbers;
    ModelParams rejects every other form, a per-bond list included.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("n", "gamma", "rho"):
        if key not in cfg:
            raise ConfigError(f"config missing required field {key!r}")
    ell = cfg.get("ell", 2)
    if ell != 2:
        raise ConfigError("scalar-anisotropy configs describe ell=2 chains; build BlockJacobiMatrix(V, S) otherwise")
    n = cfg["n"]
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"n must be an integer >= 2, got {n!r}")
    return ModelParams(n=n, gamma=cfg["gamma"], rho=rho_from_config(cfg["rho"]), mu=cfg.get("mu", 1.0))
