"""Finite-chain spectra, a gap check, periodic approximants, and DOS.

Finite chains are diagonalized exactly and no dense matrix of the operator
is built: eigenvalues alone from the band storage of the operator (scipy's
eig_banded, the one route here that imports scipy, on its first call),
eigenvectors of the chiral XY chain from one SVD of its n x n coupling C
(the Lieb-Schultz-Mattis reduction, see `BlockJacobiMatrix.chiral_coupling`).
The eigenpairs in a window that excludes 0 come from one eigh of the
pentadiagonal Gram matrix C^t C instead (`window_eigensolve`); a chain
that fails its checks is recomputed by the SVD.
The spectrum of a periodic chain is swept out by the sorted eigenvalue
branches of its Bloch symbol H(theta), a Hermitian 2p x 2p matrix family
over the angle theta.  The symbol is chiral like the chain, so its
eigenvalues are exactly +-sigma, the singular values of the p x p complex
coupling C(theta), and sigma is even in theta.  det(E - H(theta)) is
quadratic in cos theta, so each branch sigma_k over theta in [0, pi] is
monotone or turns once, and no angle grid is scanned: slopes at three
probe angles locate the turn, and one bracketed slope search per branch
closes on it or on a kink (`_band_edges`), for a stack of same-period
potentials in lockstep, one stacked SVD of C per step.  `floquet_symbol`
builds H itself and is off that route.  Unions of bands are kept as
sorted disjoint closed intervals with exact Hausdorff distance
evaluation.  The DOS histogram and localization.wegner_probe read exact
eigenvalue counts from one owner, `_exact_counts`: one
transfer.eigenvalue_counts sweep, and a banded eigensolve only for a chain
that the sweep leaves unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import (
    BlockJacobiMatrix,
    ModelParams,
    SingleSiteDistribution,
    anisotropy_block,
    assemble_block_jacobi,
    check_gamma,
    sample_disorder,
)
from .transfer import eigenvalue_counts

EIGEN_RESIDUAL_TOL = 1e-8
# the window route's Q departs from the SVD route's by about max |U^t U - I|
# relative to max Q, so this bounds that departure
WINDOW_ORTHONORMALITY_TOL = 1e-10
BAND_MERGE_TOL = 1e-9


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
        import scipy.linalg  # here, so the routes that need no scipy start without it

        vals = scipy.linalg.eig_banded(M.band(), lower=True, eigvals_only=True)
        return SpectralData(eigenvalues=vals, eigenvectors=None, ell=M.ell, n=M.n)
    C = M.chiral_coupling()
    U, sigma, Vt = np.linalg.svd(C)
    spec, residual = _chiral_eigenpairs(M, C, U, sigma, Vt.T, signs=(-1, 1))
    if residual > EIGEN_RESIDUAL_TOL:
        raise NumericalFailure(f"eigensolve residual {residual:.3e} exceeds tolerance")
    return spec


def _exact_counts(chains: Sequence[BlockJacobiMatrix], x: Sequence[float]) -> np.ndarray:
    """Counts N(x_j) = #{eigenvalues of M_r below x_j} of equal-length chains M_r, shape (R, K), each exact.

    One transfer.eigenvalue_counts sweep counts every chain at every x.  A
    chain with an unresolved count gets one banded eigensolve, and all its
    counts are taken from np.searchsorted on those eigenvalues.  This is the
    one tie rule of the count routes: a closed window [a, b] holds
    N(next(b)) - N(a) eigenvalues, next(b) the double above b.  An
    eigenvalue within rounding of an x may count on either side of it.
    """
    counts, resolved = eigenvalue_counts(chains, x)
    for r in np.flatnonzero(~resolved.all(axis=1)):
        counts[r] = np.searchsorted(eigensolve(chains[r], want_vectors=False).eigenvalues, x)
    return counts


def _chiral_eigenpairs(M: BlockJacobiMatrix, C: np.ndarray, U: np.ndarray, sigma: np.ndarray,
                       V: np.ndarray, signs: tuple[int, ...]) -> tuple[SpectralData, float]:
    """Eigenpairs of the chiral chain M from triples C v_i = sigma_i u_i, sigma descending.

    Sign -1 gives the eigenvalues -sigma in the given order and sign +1 gives
    +sigma reversed, so each ascends, with psi_+-(k) = (u_k +- v_k, u_k -+ v_k) / 2;
    the sign -1 block comes first.  Also returns the residual
    max_i |M psi_i - lambda_i psi_i| relative to max(1, max sigma).
    """
    # psi_+- is a per-site rotation of (u, +-v) / sqrt2, so with r_u = C v - sigma u
    # and r_v = C^t u - sigma v the entries of M psi_+- -+ sigma psi_+- are
    # (r_u +- r_v) / 2 and (r_u -+ r_v) / 2: their largest modulus is (|r_u| + |r_v|) / 2
    r_u, r_v = C @ V - U * sigma, C.T @ U - V * sigma
    residual = 0.5 * float(np.max(np.abs(r_u) + np.abs(r_v), initial=0.0))
    residual /= max(1.0, float(np.max(sigma, initial=0.0)))
    n, m = U.shape
    plus, minus = 0.5 * (U + V), 0.5 * (U - V)
    vals = np.concatenate([sigma[::-1] if s > 0 else -sigma for s in signs])
    vecs = np.empty((n, 2, len(signs) * m))
    for i, s in enumerate(signs):
        cols = slice(i * m, (i + 1) * m)
        if s > 0:
            vecs[:, 0, cols], vecs[:, 1, cols] = plus[:, ::-1], minus[:, ::-1]
        else:
            vecs[:, 0, cols], vecs[:, 1, cols] = minus, plus
    spec = SpectralData(eigenvalues=vals, eigenvectors=vecs.reshape(2 * n, len(signs) * m), ell=M.ell, n=n)
    return spec, residual


def window_eigensolve(M: BlockJacobiMatrix, window: tuple[float, float]) -> SpectralData:
    """The eigenpairs of a chiral chain with eigenvalue in the closed window, ascending.

    A window [lo, hi] that excludes 0 holds eigenvalues of one sign only,
    lambda = +sigma for lo > 0 and -sigma for hi < 0, so it needs only the
    singular triples C v = sigma u with sigma in the window.  They come from
    one dense eigh of the pentadiagonal Gram matrix G = C^t C, built in
    O(n) from the three diagonals of C: sigma = sqrt(max(w, 0)) for each
    eigenvalue w of G, and u = C v / sigma.  The eigenpairs are assembled as
    in `eigensolve`.  The Gram route squares the condition number, so it is
    checked, and a chain is recomputed by the SVD route when its residual
    (the formula of `eigensolve`) exceeds EIGEN_RESIDUAL_TOL, when
    max |U^t U - I| exceeds WINDOW_ORTHONORMALITY_TOL, or when an
    eigenvalue of G lies within n eps ||G|| of the square of a window end,
    where the Gram route cannot tell which side sigma is on (it may show a
    sigma of 1e-13 as 1e-8, or drop a sigma of 3e-9 as a negative w).  A
    window that reaches 0, where open chains have edge modes near 1e-15,
    always takes the SVD route: `eigensolve`, whose guard raises
    NumericalFailure, with the eigenpairs outside the window dropped.
    Tie rule: an eigenvalue within rounding of a window end may be kept by
    one route and dropped by the other.
    """
    lo, hi = float(window[0]), float(window[1])
    if lo > 0.0 or hi < 0.0:
        sign = 1 if lo > 0.0 else -1
        C = M.chiral_coupling()
        d, e, f = np.diagonal(C), np.diagonal(C, 1), np.diagonal(C, -1)
        # column j of C holds e[j-1], d[j], f[j] in rows j-1, j, j+1
        diag = d**2
        diag[1:] += e**2
        diag[:-1] += f**2
        G = np.diag(diag)
        k = np.arange(M.n)
        G[k[:-1], k[1:]] = G[k[1:], k[:-1]] = d[:-1] * e + f * d[1:]
        G[k[:-2], k[2:]] = G[k[2:], k[:-2]] = f[:-1] * e[1:]
        w, V = np.linalg.eigh(G)
        # w is off by up to about n eps ||G||: near 0 far more than the rounding of sigma
        near_end = np.abs(w[:, None] - np.array([lo, hi]) ** 2) <= M.n * np.finfo(float).eps * w[-1]
        sigma = np.sqrt(np.maximum(w, 0.0))
        lam = sign * sigma
        keep = np.flatnonzero((lam >= lo) & (lam <= hi))[::-1]  # sigma descending
        sigma, V = sigma[keep], V[:, keep]
        U = C @ V / sigma
        spec, residual = _chiral_eigenpairs(M, C, U, sigma, V, signs=(sign,))
        orthonormality = float(np.max(np.abs(U.T @ U - np.eye(sigma.size)), initial=0.0))
        checks = residual <= EIGEN_RESIDUAL_TOL and orthonormality <= WINDOW_ORTHONORMALITY_TOL
        if checks and not near_end.any():
            return spec
    spec = eigensolve(M)
    mask = spec.window_mask(lo, hi)
    return SpectralData(eigenvalues=spec.eigenvalues[mask], eigenvectors=spec.eigenvectors[:, mask],
                        ell=spec.ell, n=spec.n)


def check_gap(spec: SpectralData, lam: float) -> bool:
    """True iff no eigenvalue lies in the open window (-lam, lam)."""
    return not bool(np.any(np.abs(spec.eigenvalues) < lam))


def ensemble_spectra(params: ModelParams, num_realizations: int, seed: int) -> list[SpectralData]:
    """Eigenvalues of independent realizations index = 0..num_realizations-1, in that order."""
    return [
        eigensolve(assemble_block_jacobi(params, sample_disorder(params, seed, index)), want_vectors=False)
        for index in range(num_realizations)
    ]


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
    """Hermitian 2p x 2p symbol of the period-p chain at angle theta.

    The band search does not build it: it runs on the chiral coupling of
    `_bloch_couplings`, whose signed singular values are this symbol's
    eigenvalues.
    """
    return _bloch_symbols(np.asarray(potential, dtype=float), gamma, np.asarray(theta, dtype=float))


def _bloch_couplings(pots: np.ndarray, gamma: float, thetas: np.ndarray) -> np.ndarray:
    """Chiral couplings C(theta) of period-p potentials, shape (..., p, p).

    The symbol is unitarily [[0, C], [C^H, 0]] (the per-site rotation of
    `BlockJacobiMatrix.chiral_coupling`), so its eigenvalues are exactly
    +-sigma, the singular values of C: C_jj = nu_j, C_{j,j+1} = -(1 - gamma)
    and C_{j+1,j} = -(1 + gamma), with the corners C_{p-1,0} += -(1 - gamma)
    e^{i theta} and C_{0,p-1} += -(1 + gamma) e^{-i theta}; for p = 1 this is
    nu - 2 cos theta + 2 i gamma sin theta.  C(-theta) = conj C(theta), so
    sigma is even in theta.  pots has shape (..., p) and thetas shape (...);
    their leading shapes broadcast, and a stacked coupling is bit-identical
    to a single one.
    """
    p = pots.shape[-1]
    lead = np.broadcast_shapes(pots.shape[:-1], np.shape(thetas))
    C = np.zeros(lead + (p, p), dtype=complex)
    j = np.arange(p)
    C[..., j, j] = pots
    C[..., j[:-1], j[1:]] = -(1.0 - gamma)
    C[..., j[1:], j[:-1]] = -(1.0 + gamma)
    C[..., p - 1, 0] += -(1.0 - gamma) * np.exp(1j * thetas)
    C[..., 0, p - 1] += -(1.0 + gamma) * np.exp(-1j * thetas)
    return C


# the ends and the probes eps, pi/2, pi - eps of _band_edges (sigma is even, so a
# turning point within eps of an end moves an edge by O(eps^2) only)
_PROBES = np.array([0.0, 1e-6, 0.5 * np.pi, np.pi - 1e-6, np.pi])
# coupling entries of one stacked probe solve; it bounds memory, never results
_CHUNK_ENTRIES = 2**16
# sites of all potentials almost_sure_spectrum_approx may enumerate, the sum
# over periods p of p * len(lattice) ** p (about 210,000 for period 3 at 41
# samples); above it the enumeration alone would run for minutes
_MAX_APPROXIMANT_SITES = 1_000_000


def _branches(pots: np.ndarray, gamma: float, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending singular values sigma_k(theta) of `_bloch_couplings` and their slopes, each (..., p).

    The slope is Re(u_k^H C' v_k) for C v_k = sigma_k u_k (Hellmann-Feynman);
    its sign jumps at a kink, where sigma_k is 0 or meets another branch.
    """
    p = pots.shape[-1]
    U, sigma, Vh = np.linalg.svd(_bloch_couplings(pots, gamma, thetas))
    phase = np.exp(1j * np.asarray(thetas))[..., None]
    # Re(conj(u_i) C'_ij conj(Vh_kj)) = Re(u_i conj(C'_ij) Vh_kj), with
    # C'_{p-1,0} = -i (1 - gamma) e^{i theta} and C'_{0,p-1} = i (1 + gamma) e^{-i theta}
    slope = (1j * ((1.0 - gamma) * U[..., p - 1, :] * Vh[..., :, 0] / phase
                   - (1.0 + gamma) * U[..., 0, :] * Vh[..., :, p - 1] * phase)).real
    return sigma[..., ::-1], slope[..., ::-1]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is the NumericalFailure below
def _band_edges(pots: np.ndarray, gamma: float) -> np.ndarray:
    """[min, max] of every sorted symbol branch of K period-p potentials, (K, 2p, 2).

    Each band is +-[min sigma_k, max sigma_k] over theta in [0, pi], where
    sigma_k is monotone or turns once (det(E - H) is quadratic in cos
    theta).  Where the slope changes sign between the _PROBES eps and pi/2
    or pi/2 and pi - eps, a regula-falsi search closes on its zero or on the
    kink where it jumps, all in lockstep, one stacked solve per step: Illinois
    steps, but bisection while the bracket ends at eps or pi - eps (a slope
    near 0 by evenness says nothing of the distance to the zero) or has not
    halved in three steps, until the bracket is below 1e-12 or a step below
    1e-14.  The band is [min, max] of every sigma_k evaluated, so each edge
    is a value the branch reaches.  An edge that is not finite, as where
    |gamma| near the largest double overflows the coupling's SVD, is a
    NumericalFailure.
    """
    K, p = pots.shape
    sigma, slope = _branches(pots[:, None, :], gamma, _PROBES)  # (K, _PROBES.size, p)
    lo, hi = sigma.min(axis=1), sigma.max(axis=1)
    # one search per (potential, probe interval, branch) whose end slopes differ in sign
    inner = slope[:, 1:4]
    pot_of, half, branch = np.nonzero(np.sign(inner[:, :-1]) * np.sign(inner[:, 1:]) < 0.0)
    a, b = _PROBES[1 + half], _PROBES[2 + half]
    ga, gb = inner[pot_of, half, branch], inner[pot_of, half + 1, branch]
    live = np.arange(pot_of.size)  # the searches still running
    moved = np.zeros(live.size)  # +1 after a step that moved a, -1 after one that moved b
    # the bracket widths one, two and three steps back, and the last iterate
    back1 = back2 = back3 = last = np.full(live.size, np.inf)
    found = [(live[:0], np.zeros(0))]  # (searches, their values of sigma_k) per step
    while live.size:  # ends: the bracket halves in every four steps, and a NaN iterate raises in the SVD
        width = b - a
        bisect = (width > 0.5 * back3) | (a == _PROBES[1]) | (b == _PROBES[3])
        x = np.where(bisect, a + 0.5 * width, a + width * (ga / (ga - gb)))
        values, slopes = _branches(pots[pot_of[live]], gamma, x)
        rows = np.arange(live.size), branch[live]
        g = slopes[rows]
        found.append((live, values[rows]))
        move_a = np.sign(g) == np.sign(ga)  # signs, as a product overflows past |gamma| = 1e154
        # Illinois: an end kept for a second step in a row has its slope halved
        ga, gb = (np.where(move_a, g, np.where(moved < 0, 0.5 * ga, ga)),
                  np.where(move_a, np.where(moved > 0, 0.5 * gb, gb), g))
        a, b = np.where(move_a, x, a), np.where(move_a, b, x)
        moved = np.where(move_a, 1.0, -1.0)
        done = (b - a < 1e-12) | (np.abs(x - last) < 1e-14)
        back1, back2, back3, last = width, back1, back2, x
        if done.any():
            keep = ~done
            live, a, b, ga, gb, moved, back1, back2, back3, last = (
                v[keep] for v in (live, a, b, ga, gb, moved, back1, back2, back3, last))
    searches, values = (np.concatenate(v) for v in zip(*found))
    np.minimum.at(lo, (pot_of[searches], branch[searches]), values)
    np.maximum.at(hi, (pot_of[searches], branch[searches]), values)
    if not np.all(np.isfinite(lo) & np.isfinite(hi)):
        raise NumericalFailure(f"Bloch band edges are not finite: gamma = {gamma!r} overflows the coupling")
    positive = np.stack([lo, hi], axis=-1)
    # branch p - 1 - k is -sigma_k, with band [-max sigma_k, -min sigma_k]
    return np.concatenate([-positive[:, ::-1, ::-1], positive], axis=1)


def periodic_spectrum(potential: Sequence[float], gamma: float) -> IntervalUnion:
    """Band spectrum of the periodic chain with the given one-period potential.

    The bands are +-[min, max] of each sorted singular-value branch of the
    p x p chiral coupling (`_band_edges`), and their union is exact even
    through band crossings because sorted branches are continuous and cover
    the same set.  The 2p x 2p `floquet_symbol` is not built.
    """
    check_gamma(gamma)
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
    period go through the lockstep branch searches of _band_edges on the
    chiral coupling, not through `floquet_symbol`, in chunks of at most
    _CHUNK_ENTRIES coupling entries in its probe solve or of one potential
    (all 55 period-2 classes of 11 samples in one chunk).  An enumeration
    of more than _MAX_APPROXIMANT_SITES sites is a ConfigError.
    """
    check_gamma(gamma)
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
        chunk = max(1, _CHUNK_ENTRIES // (_PROBES.size * p * p))
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


def dos_histogram(params: ModelParams, num_realizations: int, seed: int, bins: int = 50) -> DOSHistogram:
    """Eigenvalue histogram of realizations index = 0..num_realizations-1, total mass 1, from exact counts.

    The edges split [-G, G] into equal bins, where G = max |supp rho| +
    2 |mu| (1 + |gamma|) is the Gershgorin bound of ||M||: computed from
    the parameters, so the same at every seed.  They are antisymmetric
    exactly, and with an even bin count the middle edge is 0.0.  Each
    bin's mass is a difference of the exact eigenvalue counts
    N(x) = #{lambda < x} at its edges (`_exact_counts`, one sweep over every
    chain and edge).  By its tie rule each bin is [lo, hi), and the top edge
    is counted at the next double above it, so the last bin is closed, as
    in np.histogram.
    """
    if num_realizations < 1 or bins < 1:
        raise ValueError(f"need at least one realization and one bin, got {num_realizations} and {bins}")
    lo, hi = params.rho.support()
    bound = max(abs(lo), abs(hi)) + 2.0 * abs(params.mu) * (1.0 + abs(params.gamma))
    # bound * (-m) / bins is exactly -(bound * m / bins), so the edges are antisymmetric
    edges = bound * np.arange(-bins, bins + 1, 2) / bins
    x = edges.copy()
    x[-1] = np.nextafter(x[-1], np.inf)
    chains = [assemble_block_jacobi(params, sample_disorder(params, seed, r)) for r in range(num_realizations)]
    counts = _exact_counts(chains, x)
    return DOSHistogram(edges=edges, mass=np.diff(counts.sum(axis=0)) / (2 * params.n * num_realizations))
