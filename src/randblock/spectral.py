"""Finite-chain spectra, symmetry and gap checks, periodic approximants, and DOS.

Finite chains are diagonalized exactly: eigenvalues alone from the band
storage of the operator, eigenvectors from the dense matrix.  The spectrum
of a periodic chain is computed from its Bloch symbol, a Hermitian 2p x 2p
matrix family over the angle theta, whose sorted eigenvalue branches sweep
out the bands.  Unions of bands are kept as sorted disjoint closed
intervals with exact Hausdorff distance evaluation.
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


def eigensolve(M: BlockJacobiMatrix | np.ndarray, want_vectors: bool = True) -> SpectralData:
    """Diagonalize a block Jacobi matrix (or any symmetric dense array).

    Eigenvalues alone of a block Jacobi matrix come from its band storage
    (bandwidth 2 ell - 1), so no dense matrix is built.  With eigenvectors,
    raises NumericalFailure if the reconstructed residual max_i |M v_i -
    lambda_i v_i| exceeds EIGEN_RESIDUAL_TOL relative to the matrix norm.
    """
    if isinstance(M, BlockJacobiMatrix):
        ell, n = M.ell, M.n
        if not want_vectors:
            vals = scipy.linalg.eig_banded(M.band(), lower=True, eigvals_only=True)
            return SpectralData(eigenvalues=vals, eigenvectors=None, ell=ell, n=n)
        dense = M.dense()
    else:
        dense = np.asarray(M, dtype=float)
        ell, n = 1, dense.shape[0]
        if not want_vectors:
            vals = np.linalg.eigvalsh(dense)
            return SpectralData(eigenvalues=vals, eigenvectors=None, ell=ell, n=n)
    vals, vecs = np.linalg.eigh(dense)
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    residual = float(np.max(np.abs(dense @ vecs - vecs * vals)))
    if residual > EIGEN_RESIDUAL_TOL * scale:
        raise NumericalFailure(f"eigensolve residual {residual:.3e} exceeds tolerance")
    return SpectralData(eigenvalues=vals, eigenvectors=vecs, ell=ell, n=n)


@dataclass
class SymmetryReport:
    max_deviation: float
    tol: float
    passed: bool


def check_spectral_symmetry(spec: SpectralData, tol: float = 1e-10) -> SymmetryReport:
    """Check that the spectrum is symmetric about zero, lambda <-> -lambda."""
    vals = np.sort(spec.eigenvalues)
    dev = float(np.max(np.abs(vals + vals[::-1]))) if vals.size else 0.0
    return SymmetryReport(max_deviation=dev, tol=tol, passed=dev <= tol)


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
    def from_intervals(
        cls,
        pairs: Iterable[tuple[float, float]],
        merge_tol: float = BAND_MERGE_TOL,
    ) -> "IntervalUnion":
        items = sorted((float(lo), float(hi)) for lo, hi in pairs)
        if not items:
            return cls(intervals=np.zeros((0, 2)))
        merged = [list(items[0])]
        for lo, hi in items[1:]:
            if lo <= merged[-1][1] + merge_tol:
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

    def union(self, other: "IntervalUnion", merge_tol: float = BAND_MERGE_TOL) -> "IntervalUnion":
        pairs = list(map(tuple, self.intervals)) + list(map(tuple, other.intervals))
        return IntervalUnion.from_intervals(pairs, merge_tol=merge_tol)

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


def floquet_symbol(potential: Sequence[float], gamma: float, theta: float) -> np.ndarray:
    """Hermitian 2p x 2p symbol of the period-p chain at angle theta."""
    pot = np.asarray(potential, dtype=float)
    p = pot.size
    S = anisotropy_block(gamma)
    sz = np.diag([1.0, -1.0])
    if p == 1:
        return (pot[0] * sz).astype(complex) - S * np.exp(-1j * theta) - S.T * np.exp(1j * theta)
    H = np.zeros((2 * p, 2 * p), dtype=complex)
    for j in range(p):
        H[2 * j:2 * j + 2, 2 * j:2 * j + 2] = pot[j] * sz
    for j in range(p - 1):
        H[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] = -S
        H[2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] = -S.T
    H[0:2, 2 * p - 2:2 * p] += -S.T * np.exp(-1j * theta)
    H[2 * p - 2:2 * p, 0:2] += -S * np.exp(1j * theta)
    return H


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_extremum(fun, lo: float, hi: float, sign: float, edge_tol: float) -> float:
    """Golden-section search for min (sign=+1) or max (sign=-1) of fun.

    Iterates until the extremal value moves by less than edge_tol between
    steps, which is the documented band edge stopping rule.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = sign * fun(c), sign * fun(d)
    best_prev = min(fc, fd)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * fun(d)
        best = min(fc, fd)
        if abs(best_prev - best) < edge_tol and (b - a) < 1e-4:
            break
        best_prev = best
    return sign * min(fc, fd)


def periodic_spectrum(
    potential: Sequence[float],
    gamma: float,
    base_grid: int = BASE_THETA_GRID,
    edge_tol: float = BAND_EDGE_TOL,
    merge_tol: float = BAND_MERGE_TOL,
) -> IntervalUnion:
    """Band spectrum of the periodic chain with the given one-period potential.

    Each sorted eigenvalue branch of the symbol is scanned on a uniform
    angle grid and its extrema are refined by golden-section search; the
    union over branches of [min, max] is exact even through band crossings
    because sorted branches are continuous and cover the same set.
    """
    if abs(gamma) == 1.0:
        raise ConfigError("anisotropy gamma = +-1 gives singular hopping blocks")
    pot = np.asarray(potential, dtype=float)
    if pot.size == 0:
        raise ValueError("potential must contain at least one site")
    thetas = np.linspace(0.0, 2.0 * np.pi, base_grid, endpoint=False)
    symbols = np.stack([floquet_symbol(pot, gamma, t) for t in thetas])
    branches = np.linalg.eigvalsh(symbols)  # (base_grid, 2p), ascending rows
    step = thetas[1] - thetas[0]
    bands = []
    for i in range(branches.shape[1]):
        values = branches[:, i]

        def branch(theta: float, _i: int = i) -> float:
            return float(np.linalg.eigvalsh(floquet_symbol(pot, gamma, theta))[_i])

        j_min = int(np.argmin(values))
        j_max = int(np.argmax(values))
        lo = _golden_extremum(branch, thetas[j_min] - step, thetas[j_min] + step, +1.0, edge_tol)
        hi = _golden_extremum(branch, thetas[j_max] - step, thetas[j_max] + step, -1.0, edge_tol)
        bands.append((min(lo, float(values[j_min])), max(hi, float(values[j_max]))))
    return IntervalUnion.from_intervals(bands, merge_tol=merge_tol)


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
    merge_tol: float = BAND_MERGE_TOL,
) -> IntervalUnion:
    """Union of periodic spectra over support-valued potentials up to max_period.

    Periodic approximants with entries in supp(rho) fill out the almost sure
    spectrum as the period grows; atoms are enumerated exactly and continuous
    support is sampled on a deterministic lattice.
    """
    lattice = rho.support_lattice(samples_per_period)
    bands: list[tuple[float, float]] = []
    seen: set[tuple] = set()
    for p in range(1, max_period + 1):
        for pot in product(lattice, repeat=p):
            if _minimal_period(pot) != p:
                continue
            key = min(pot[i:] + pot[:i] for i in range(p))  # rotation class
            if key in seen:
                continue
            seen.add(key)
            bands.extend(periodic_spectrum(pot, gamma, merge_tol=merge_tol))
    return IntervalUnion.from_intervals(bands, merge_tol=merge_tol)


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

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def cumulative(self, energies: np.ndarray | float) -> np.ndarray:
        """Piecewise linear integrated DOS N(E), 0 below and 1 above."""
        cdf = np.concatenate([[0.0], np.cumsum(self.mass)])
        return np.interp(np.asarray(energies, dtype=float), self.edges, cdf, left=0.0, right=cdf[-1])

    def log_abs_moment(self, z: complex) -> float:
        """Integral of log|z - lambda| dN(lambda) via bin midpoints.

        Safe for z off the real axis; for real z avoid hitting a midpoint.
        """
        return float(np.sum(self.mass * np.log(np.abs(z - self.midpoints))))


def dos_histogram(
    ensemble: Sequence[SpectralData],
    bins: int | np.ndarray = 50,
    window: tuple[float, float] | None = None,
) -> DOSHistogram:
    """Aggregate ensemble eigenvalues into a histogram of total mass 1.

    When no window is given the range is padded slightly so boundary
    eigenvalues always land inside a bin.
    """
    if not ensemble:
        raise ValueError("empty ensemble")
    all_vals = np.concatenate([spec.eigenvalues for spec in ensemble])
    if window is None and isinstance(bins, int):
        lo, hi = float(all_vals.min()), float(all_vals.max())
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        window = (lo - pad, hi + pad)
    counts, edges = np.histogram(all_vals, bins=bins, range=window)
    return DOSHistogram(edges=edges, mass=counts / all_vals.size)
