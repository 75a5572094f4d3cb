"""Finite-chain spectra, symmetry and gap checks, periodic approximants, and DOS.

Finite chains are diagonalized exactly and no dense matrix is built:
eigenvalues alone from the band storage of the operator, eigenvectors of
the chiral XY chain from one SVD of its n x n coupling C (the
Lieb-Schultz-Mattis reduction, see `BlockJacobiMatrix.chiral_coupling`).
The spectrum of a periodic chain is computed from its Bloch symbol, a
Hermitian 2p x 2p matrix family over the angle theta, whose sorted
eigenvalue branches sweep out the bands.  The Bloch scan is batched: a
stack of same-period potentials gets one stacked symbol build and one
stacked eigvalsh over the angle grid, and then every branch extremum is
refined by golden-section search in lockstep, one stacked eigvalsh per
step.  Unions of bands are kept as sorted disjoint closed intervals with
exact Hausdorff distance evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericalFailure
from .model import (
    BlockJacobiMatrix,
    ModelParams,
    SingleSiteDistribution,
    anisotropy_block,
    assemble_block_jacobi,
    sample_disorder,
)
from .parallel import parallel_map

EIGEN_RESIDUAL_TOL = 1e-8
BAND_EDGE_TOL = 1e-8
BAND_MERGE_TOL = 1e-9
BASE_THETA_GRID = 512
SYMMETRY_TOL = 1e-10


# ---------------------------------------------------------------------------
# finite chains


@dataclass
class SpectralData:
    """Eigenvalues (ascending) and optional orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    ell: int
    n: int

    def site_amplitudes(self) -> np.ndarray:
        """Matrix R with R[j, i] = euclidean norm of eigenvector i on site j."""
        if self.eigenvectors is None:
            raise ValueError("eigenvectors were not requested")
        m = self.eigenvectors.shape[1]
        blocks = self.eigenvectors.reshape(self.n, self.ell, m)
        return np.linalg.norm(blocks, axis=1)

    def window_mask(self, lo: float, hi: float) -> np.ndarray:
        return (self.eigenvalues >= lo) & (self.eigenvalues <= hi)


def eigensolve(M: BlockJacobiMatrix, want_vectors: bool = True) -> SpectralData:
    """Diagonalize a block Jacobi matrix without building its dense form.

    Eigenvalues alone come from its band storage (bandwidth 2 ell - 1).
    Eigenvectors need a chiral chain (ConfigError otherwise) and come from
    one SVD C v_i = sigma_i u_i of its n x n coupling `M.chiral_coupling()`:
    the eigenvalues are -sigma then +sigma, ascending and exactly +- paired,
    with psi_+-(k) = (u_k +- v_k, u_k -+ v_k) / 2.  Raises NumericalFailure
    if the residual max_i |M psi_i - lambda_i psi_i| exceeds
    EIGEN_RESIDUAL_TOL relative to max(1, max |lambda|).
    """
    if not want_vectors:
        vals = scipy.linalg.eig_banded(M.band(), lower=True, eigvals_only=True)
        return SpectralData(eigenvalues=vals, eigenvectors=None, ell=M.ell, n=M.n)
    C = M.chiral_coupling()
    U, sigma, Vt = np.linalg.svd(C)
    V = Vt.T
    # psi_+- is a per-site rotation of (u, +-v) / sqrt2, so with r_u = C v - sigma u
    # and r_v = C^t u - sigma v the entries of M psi_+- -+ sigma psi_+- are
    # (r_u +- r_v) / 2 and (r_u -+ r_v) / 2: their largest modulus is (|r_u| + |r_v|) / 2
    r_u, r_v = C @ V - U * sigma, C.T @ U - V * sigma
    residual = 0.5 * float(np.max(np.abs(r_u) + np.abs(r_v)))
    if residual > EIGEN_RESIDUAL_TOL * max(1.0, float(sigma[0])):
        raise NumericalFailure(f"eigensolve residual {residual:.3e} exceeds tolerance")
    n = M.n
    plus, minus = 0.5 * (U + V), 0.5 * (U - V)
    # sigma descends, so -sigma ascends and +sigma ascends reversed
    vals = np.concatenate([-sigma, sigma[::-1]])
    vecs = np.empty((n, 2, 2 * n))
    vecs[:, 0, :n], vecs[:, 1, :n] = minus, plus
    vecs[:, 0, n:], vecs[:, 1, n:] = plus[:, ::-1], minus[:, ::-1]
    return SpectralData(eigenvalues=vals, eigenvectors=vecs.reshape(2 * n, 2 * n), ell=M.ell, n=n)


@dataclass
class SymmetryReport:
    max_deviation: float
    passed: bool


def check_spectral_symmetry(spec: SpectralData) -> SymmetryReport:
    """Check that the spectrum is symmetric about zero, lambda <-> -lambda, to SYMMETRY_TOL."""
    vals = np.sort(spec.eigenvalues)
    dev = float(np.max(np.abs(vals + vals[::-1]))) if vals.size else 0.0
    return SymmetryReport(max_deviation=dev, passed=dev <= SYMMETRY_TOL)


def check_gap(spec: SpectralData, lam: float) -> bool:
    """True iff no eigenvalue lies in the open window (-lam, lam)."""
    return not bool(np.any(np.abs(spec.eigenvalues) < lam))


def ensemble_spectra(
    params: ModelParams,
    num_realizations: int,
    seed: int,
    want_vectors: bool = False,
    threads: int | None = None,
) -> list[SpectralData]:
    """Diagonalize independent realizations index = 0..num_realizations-1."""

    def one(index: int) -> SpectralData:
        real = sample_disorder(params, seed, index)
        return eigensolve(assemble_block_jacobi(params, real), want_vectors=want_vectors)

    return parallel_map(one, range(num_realizations), threads=threads)


# ---------------------------------------------------------------------------
# interval unions


@dataclass
class IntervalUnion:
    """Union of finitely many closed intervals, stored sorted and disjoint."""

    intervals: np.ndarray

    @classmethod
    def from_intervals(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalUnion":
        """Sorted union of the pairs; intervals closer than BAND_MERGE_TOL are merged."""
        items = sorted((float(lo), float(hi)) for lo, hi in pairs)
        if not items:
            return cls(intervals=np.zeros((0, 2)))
        merged = [list(items[0])]
        for lo, hi in items[1:]:
            if lo <= merged[-1][1] + BAND_MERGE_TOL:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(intervals=np.array(merged))

    def __iter__(self):
        return iter(map(tuple, self.intervals))

    @property
    def hull(self) -> tuple[float, float]:
        if self.intervals.shape[0] == 0:
            raise ValueError("empty interval union has no hull")
        return float(self.intervals[0, 0]), float(self.intervals[-1, 1])

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        pairs = list(map(tuple, self.intervals)) + list(map(tuple, other.intervals))
        return IntervalUnion.from_intervals(pairs)

    def distance(self, points: np.ndarray | float) -> np.ndarray:
        """Distance from each point to the union (0 inside)."""
        x = np.atleast_1d(np.asarray(points, dtype=float))
        if self.intervals.shape[0] == 0:
            raise ValueError("distance to an empty union is undefined")
        lo = self.intervals[:, 0][None, :]
        hi = self.intervals[:, 1][None, :]
        xx = x[:, None]
        per_interval = np.maximum(np.maximum(lo - xx, xx - hi), 0.0)
        return per_interval.min(axis=1)

    def _gap_midpoints(self) -> np.ndarray:
        if self.intervals.shape[0] < 2:
            return np.zeros(0)
        return 0.5 * (self.intervals[1:, 0] + self.intervals[:-1, 1])

    def directed_hausdorff(self, other: "IntervalUnion") -> float:
        """sup over x in self of dist(x, other); exact for interval unions.

        The supremum is attained either at an endpoint of self or at a gap
        midpoint of other that lies inside self, so checking those finitely
        many candidates is exact.
        """
        candidates = [self.intervals.ravel()]
        mids = other._gap_midpoints()
        if mids.size:
            inside = self.distance(mids) == 0.0
            candidates.append(mids[inside])
        pts = np.concatenate(candidates)
        return float(other.distance(pts).max()) if pts.size else 0.0

    def hausdorff(self, other: "IntervalUnion") -> float:
        return max(self.directed_hausdorff(other), other.directed_hausdorff(self))

    def covers(self, lo: float, hi: float, tol: float) -> bool:
        """True iff every point of [lo, hi] lies within tol of the union."""
        segment = IntervalUnion(intervals=np.array([[lo, hi]]))
        return segment.directed_hausdorff(self) <= tol


# ---------------------------------------------------------------------------
# periodic chains via the Bloch symbol


def _bloch_symbols(pots: np.ndarray, gamma: float, thetas: np.ndarray) -> np.ndarray:
    """Symbols H(theta) of period-p potentials, shape (..., 2p, 2p).

    pots has shape (..., p) and thetas shape (...); their leading shapes
    broadcast.  Entry by entry this is the same floating-point arithmetic
    as a one-matrix build, so a stacked symbol is bit-identical to a
    single one.
    """
    p = pots.shape[-1]
    S = anisotropy_block(gamma)
    sz = np.diag([1.0, -1.0])
    back = np.exp(-1j * thetas)[..., None, None]
    ahead = np.exp(1j * thetas)[..., None, None]
    if p == 1:
        return (pots[..., 0, None, None] * sz).astype(complex) - S * back - S.T * ahead
    lead = np.broadcast_shapes(pots.shape[:-1], np.shape(thetas))
    H = np.zeros(lead + (2 * p, 2 * p), dtype=complex)
    for j in range(p):
        H[..., 2 * j:2 * j + 2, 2 * j:2 * j + 2] = pots[..., j, None, None] * sz
    for j in range(p - 1):
        H[..., 2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] = -S
        H[..., 2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] = -S.T
    H[..., 0:2, 2 * p - 2:2 * p] += -S.T * back
    H[..., 2 * p - 2:2 * p, 0:2] += -S * ahead
    return H


def floquet_symbol(potential: Sequence[float], gamma: float, theta: float) -> np.ndarray:
    """Hermitian 2p x 2p symbol of the period-p chain at angle theta."""
    return _bloch_symbols(np.asarray(potential, dtype=float), gamma, np.asarray(theta, dtype=float))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# symbols held by one stacked angle scan; it bounds memory, never results
_SCAN_SYMBOLS = 4096
# sites of all potentials almost_sure_spectrum_approx may enumerate, the sum
# over periods p of p * len(lattice) ** p (about 210,000 for period 3 at 41
# samples); above it the enumeration alone would run for minutes
_MAX_APPROXIMANT_SITES = 1_000_000


def _band_edges(pots: np.ndarray, gamma: float) -> np.ndarray:
    """[min, max] of every sorted symbol branch of K period-p potentials, (K, 2p, 2).

    Each branch is scanned on a uniform grid of BASE_THETA_GRID angles, then
    its grid minimum and maximum are refined by golden-section search on the
    bracket of one grid step either side.  All K * 2p * 2 searches advance
    in lockstep: each step evaluates the searches still running with one
    stacked eigvalsh, and each search stops by its own rule, once its
    extremal value moves by less than BAND_EDGE_TOL and its bracket is
    shorter than 1e-4.
    """
    K, p = pots.shape
    thetas = np.linspace(0.0, 2.0 * np.pi, BASE_THETA_GRID, endpoint=False)
    step = thetas[1] - thetas[0]
    values = np.linalg.eigvalsh(_bloch_symbols(pots[:, None, :], gamma, thetas))  # (K, T, 2p)
    j_ext = np.stack([np.argmin(values, axis=1), np.argmax(values, axis=1)], axis=-1)  # (K, 2p, 2)
    grid_ext = values[np.arange(K)[:, None, None], j_ext, np.arange(2 * p)[:, None]]

    # one search per (potential, branch, min/max); sign +1 seeks the minimum
    pot_of, branch, side = (ix.ravel() for ix in np.indices((K, 2 * p, 2)))
    sign = np.where(side == 0, 1.0, -1.0)
    centre = thetas[j_ext.ravel()]
    a, b = centre - step, centre + step
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)

    def f(idx: np.ndarray, angles: np.ndarray) -> np.ndarray:
        vals = np.linalg.eigvalsh(_bloch_symbols(pots[pot_of[idx]], gamma, angles))
        return sign[idx] * vals[np.arange(idx.size), branch[idx]]

    live = np.arange(sign.size)  # the searches still running
    fc, fd = f(live, c), f(live, d)
    prev = np.where(fd < fc, fd, fc)  # min(fc, fd) as Python takes it, fc on ties and signed zeros
    best = np.empty(sign.size)
    for _ in range(200):
        left = fc < fd  # keep [a, d] and probe a new c, else keep [c, b] and probe a new d
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - _GOLDEN * (b - a), d), np.where(left, c, a + _GOLDEN * (b - a))
        fresh = f(live, np.where(left, c, d))
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
        now = np.where(fd < fc, fd, fc)
        done = (np.abs(prev - now) < BAND_EDGE_TOL) & ((b - a) < 1e-4)
        best[live[done]] = now[done]
        live, a, b, c, d, fc, fd, prev = (x[~done] for x in (live, a, b, c, d, fc, fd, now))
        if live.size == 0:
            break
    best[live] = np.where(fd < fc, fd, fc)
    refined = (sign * best).reshape(K, 2 * p, 2)
    lo = np.where(grid_ext[..., 0] < refined[..., 0], grid_ext[..., 0], refined[..., 0])
    hi = np.where(grid_ext[..., 1] > refined[..., 1], grid_ext[..., 1], refined[..., 1])
    return np.stack([lo, hi], axis=-1)


def _check_gamma(gamma: float) -> None:
    if not np.isfinite(gamma):
        raise ConfigError(f"anisotropy gamma must be finite, got {gamma!r}")
    if abs(gamma) == 1.0:
        raise ConfigError("anisotropy gamma = +-1 gives singular hopping blocks")


def periodic_spectrum(potential: Sequence[float], gamma: float) -> IntervalUnion:
    """Band spectrum of the periodic chain with the given one-period potential.

    Each sorted eigenvalue branch of the symbol is scanned on a uniform
    angle grid and its extrema are refined by golden-section search; the
    union over branches of [min, max] is exact even through band crossings
    because sorted branches are continuous and cover the same set.
    """
    _check_gamma(gamma)
    try:
        pot = np.asarray(potential, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"potential must be a list of numbers, got {potential!r}") from exc
    if pot.ndim != 1 or pot.size == 0 or not np.all(np.isfinite(pot)):
        raise ConfigError(f"potential must be a non-empty list of finite numbers, got {potential!r}")
    return IntervalUnion.from_intervals(_band_edges(pot[None, :], gamma)[0])


def _minimal_period(pot: tuple) -> int:
    p = len(pot)
    for d in range(1, p):
        if p % d == 0 and pot == pot[:d] * (p // d):
            return d
    return p


def almost_sure_spectrum_approx(
    rho: SingleSiteDistribution,
    gamma: float,
    max_period: int = 2,
    samples_per_period: int = 41,
) -> IntervalUnion:
    """Union of periodic spectra over support-valued potentials up to max_period.

    Periodic approximants with entries in supp(rho) fill out the almost sure
    spectrum as the period grows; atoms are enumerated exactly and continuous
    support is sampled on a deterministic lattice.  One potential per
    rotation class of each minimal period is kept, and the potentials of a
    period go through _band_edges in chunks of _SCAN_SYMBOLS symbols.  An
    enumeration of more than _MAX_APPROXIMANT_SITES sites is a ConfigError.
    """
    _check_gamma(gamma)
    if max_period < 1 or samples_per_period < 1:
        raise ConfigError("max_period and samples_per_period must be >= 1, "
                          f"got {max_period} and {samples_per_period}")
    lattice = rho.support_lattice(samples_per_period)
    sites = 0
    for p in range(1, max_period + 1):
        sites += p * len(lattice) ** p
        if sites > _MAX_APPROXIMANT_SITES:
            raise ConfigError(f"{len(lattice)} support points up to period {max_period} give more than "
                              f"{_MAX_APPROXIMANT_SITES} sites of periodic approximants to enumerate")
    chunk = max(1, _SCAN_SYMBOLS // BASE_THETA_GRID)
    bands: list[np.ndarray] = []
    seen: set[tuple] = set()
    for p in range(1, max_period + 1):
        pots = []
        for pot in product(lattice, repeat=p):
            if _minimal_period(pot) != p:
                continue
            key = min(pot[i:] + pot[:i] for i in range(p))  # rotation class
            if key in seen:
                continue
            seen.add(key)
            pots.append(pot)
        pots = np.array(pots, dtype=float).reshape(-1, p)
        for k in range(0, pots.shape[0], chunk):
            edges = _band_edges(pots[k:k + chunk], gamma)
            bands.extend(edges.reshape(-1, 2))
    return IntervalUnion.from_intervals(bands)


# ---------------------------------------------------------------------------
# density of states


@dataclass
class DOSHistogram:
    """Normalized eigenvalue histogram across an ensemble."""

    edges: np.ndarray
    mass: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def cumulative(self, energies: np.ndarray | float) -> np.ndarray:
        """Piecewise linear integrated DOS N(E), 0 below and 1 above."""
        cdf = np.concatenate([[0.0], np.cumsum(self.mass)])
        return np.interp(np.asarray(energies, dtype=float), self.edges, cdf, left=0.0, right=cdf[-1])


def dos_histogram(ensemble: Sequence[SpectralData], bins: int | np.ndarray = 50) -> DOSHistogram:
    """Aggregate ensemble eigenvalues into a histogram of total mass 1.

    With an integer bin count the range is the eigenvalue range padded
    slightly, so boundary eigenvalues always land inside a bin; an array
    gives the bin edges.
    """
    if not ensemble:
        raise ValueError("empty ensemble")
    all_vals = np.concatenate([spec.eigenvalues for spec in ensemble])
    window = None
    if isinstance(bins, int):
        lo, hi = float(all_vals.min()), float(all_vals.max())
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        window = (lo - pad, hi + pad)
    counts, edges = np.histogram(all_vals, bins=bins, range=window)
    return DOSHistogram(edges=edges, mass=counts / all_vals.size)
