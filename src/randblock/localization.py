"""Eigenfunction correlators, decay fits, and finite-volume spectral probes.

The central object is the window correlator

    Q(j, k) = sum over eigenvalues in the window of |psi(j)| |psi(k)|,

where |psi(j)| is the euclidean norm of the eigenvector block at site j.
Q dominates every smoothed evolution block: for any |g| <= 1 on the window,
the operator norm of P_j g(M) chi_J(M) P_k^* is at most Q(j, k), so a
stretched-exponential bound on the ensemble mean of Q is a dynamical
localization statement.  Site indices in this module are 0-based array
positions.  The ensemble mean needs only the eigenpairs in the window, and
takes their singular triples C v = sigma u from the route of
`spectral.window_eigensolve`: one eigh of C^t C per chain for a window that
excludes 0, the full chiral SVD for one that reaches 0.  It reads the
amplitudes |psi(j)| straight from the triples and assembles no eigenvectors.

The Wegner probe counts eigenvalues instead of computing them: two exact
counts at the ends of a window (`spectral._exact_counts`, one batched Schur
sweep) say whether the window holds an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import ModelParams, assemble_block_jacobi, sample_disorder
from .spectral import SpectralData, _exact_counts, _window_triples

DEFAULT_BOUNDARY_EXCLUSION = 5
MIN_PAIRS_PER_BIN = 4
CI_FACTOR = 1.96  # two-sided 95% normal quantile


@dataclass
class CorrelatorField:
    """Ensemble mean of the window correlator Q over a disorder ensemble."""

    window: tuple[float, float]
    Q: np.ndarray
    num_realizations: int
    mean_window_count: float

    @property
    def empty(self) -> bool:
        return self.mean_window_count == 0.0


def eigenfunction_correlator(spec: SpectralData, window: tuple[float, float]) -> CorrelatorField:
    """Single-realization correlator Q = R_J R_J^t from the amplitude matrix."""
    lo, hi = window
    mask = spec.window_mask(lo, hi)
    amplitudes = spec.site_amplitudes()[:, mask]
    Q = amplitudes @ amplitudes.T
    return CorrelatorField(
        window=(float(lo), float(hi)),
        Q=Q,
        num_realizations=1,
        mean_window_count=float(mask.sum()),
    )


def ensemble_correlator(
    params: ModelParams,
    window: tuple[float, float],
    num_realizations: int,
    seed: int,
) -> CorrelatorField:
    """Mean correlator over realizations index = 0..num_realizations-1.

    Each chain's eigenpairs in the window come from the route of
    `spectral.window_eigensolve`, so an eigenvalue within rounding of a
    window end may be counted differently than by `eigensolve` (its tie
    rule).  The amplitudes are read from the singular triples C v = |lambda| u
    without assembling eigenvectors: |psi(j)| = sqrt(a_j^2 + b_j^2) with
    a = (u + v) / 2 and b = (u - v) / 2 at either sign, in the column order
    of `eigenfunction_correlator`, so each chain's field is bit for bit the
    one that `eigenfunction_correlator` makes from `window_eigensolve`.  Q is
    summed from zeros in realization order as each field is made, so only
    one n x n field is held beside the sum.
    """
    if num_realizations < 1:
        raise ConfigError(f"need at least one realization, got {num_realizations}")
    lo, hi = float(window[0]), float(window[1])
    Q = np.zeros((params.n, params.n))
    counts = []
    for index in range(num_realizations):
        real = sample_disorder(params, seed, index)
        _, U, V = _window_triples(assemble_block_jacobi(params, real), lo, hi)
        # in place in U, with the arithmetic of SpectralData.site_amplitudes on the eigenpairs
        b = U - V
        a = np.add(U, V, out=U)
        a *= 0.5
        b *= 0.5
        amplitudes = np.sqrt(np.add(np.square(a, out=a), np.square(b, out=b), out=a), out=a)
        del b, V
        Q += amplitudes @ amplitudes.T
        counts.append(float(amplitudes.shape[1]))
    return CorrelatorField(
        window=(lo, hi),
        Q=Q / num_realizations,
        num_realizations=num_realizations,
        mean_window_count=float(np.mean(counts)),
    )


@dataclass
class DecayFit:
    """OLS fit of mean log Q against d^zeta over distance bins.

    The model is y(d) = log C - eta * d^zeta; eta > 0 with a confidence
    interval excluding zero certifies stretched-exponential decay at
    stretching exponent zeta.  curvature_flag marks a significant quadratic
    correction in d^zeta, a hint that zeta misses the true stretching.  It
    needs at least four bins: three are fitted exactly by the quadratic,
    which leaves no residual, and curvature_se is then only rounding.
    """

    zeta: float
    eta: float
    eta_se: float
    eta_ci: tuple[float, float]
    log_C: float
    curvature: float
    curvature_se: float
    curvature_flag: bool
    distances: np.ndarray
    mean_logs: np.ndarray
    bin_se: np.ndarray
    counts: np.ndarray


def fit_decay(
    field: CorrelatorField,
    zeta: float = 0.9,
    boundary: int = DEFAULT_BOUNDARY_EXCLUSION,
) -> DecayFit:
    """Distance-binned geometric-mean fit of the correlator decay.

    Pairs within `boundary` sites of either edge are excluded, positive
    entries are aggregated by distance as means of log Q, and bins with
    fewer than MIN_PAIRS_PER_BIN contributing pairs are dropped.  The
    quadratic refit sums d^(4 zeta) over the bins, so a regressor d^zeta
    whose fourth powers do not sum to a finite number, or that takes one
    value for every distance, is a NumericalFailure.  So is a regressor
    that leaves either least-squares design below full rank, and a fit
    whose eta, its interval, log C, C or curvature is not finite.
    """
    if field.empty:
        raise NumericalFailure("correlator window contains no spectrum")
    Q = field.Q
    n = Q.shape[0]
    interior = np.arange(boundary, n - boundary)
    if interior.size < 2:
        raise NumericalFailure("chain too short for the boundary exclusion")

    distances, mean_logs, bin_se, counts = [], [], [], []
    for d in range(1, interior.size):
        j = interior[: interior.size - d]
        vals = Q[j, j + d]
        vals = vals[vals > 0.0]
        if vals.size < MIN_PAIRS_PER_BIN:
            continue
        logs = np.log(vals)
        distances.append(float(d))
        mean_logs.append(float(logs.mean()))
        bin_se.append(float(logs.std(ddof=1) / np.sqrt(logs.size)) if logs.size > 1 else 0.0)
        counts.append(int(vals.size))
    if len(distances) < 3:
        raise NumericalFailure("not enough populated distance bins for a decay fit")

    # an overflow is reported by the check below, not as warnings
    with np.errstate(over="ignore"):
        x = np.asarray(distances) ** zeta
        fourth = float(np.sum(x**4))
    if not (np.isfinite(fourth) and np.ptp(x) > 0.0):
        raise NumericalFailure(f"regressor d^zeta at zeta = {zeta} is not finite or is constant")
    y = np.asarray(mean_logs)
    m = x.size
    X = np.column_stack([np.ones(m), x])
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = m - 2
    s2 = float(resid @ resid) / dof
    xc = x - x.mean()
    slope_var = s2 / float(xc @ xc)
    eta = -float(coef[1])
    eta_se = float(np.sqrt(slope_var))
    ci = (eta - CI_FACTOR * eta_se, eta + CI_FACTOR * eta_se)

    # quadratic refit in the same regressor flags systematic curvature; with
    # X2 = QR the variance of the x^2 coefficient is s2_2 / R[2, 2]^2, never negative
    X2 = np.column_stack([np.ones(m), x, x**2])
    coef2, _, rank2, _ = np.linalg.lstsq(X2, y, rcond=None)
    if rank < 2 or rank2 < 3:
        raise NumericalFailure(f"regressor d^zeta at zeta = {zeta} is too close to constant for the fit")
    resid2 = y - X2 @ coef2
    s2_2 = float(resid2 @ resid2) / max(m - 3, 1)
    curv = float(coef2[2])
    curv_se = float(np.sqrt(s2_2) / abs(np.linalg.qr(X2, mode="r")[2, 2]))
    with np.errstate(over="ignore"):
        C = np.exp(coef[0])
    if not np.all(np.isfinite([eta, *ci, coef[0], C, curv, curv_se])):
        raise NumericalFailure(f"decay fit at zeta = {zeta} is not finite: eta = {eta}, log C = {coef[0]}")
    return DecayFit(
        zeta=zeta,
        eta=eta,
        eta_se=eta_se,
        eta_ci=ci,
        log_C=float(coef[0]),
        curvature=curv,
        curvature_se=curv_se,
        curvature_flag=bool(m >= 4 and abs(curv) > 2.0 * curv_se),
        distances=np.asarray(distances),
        mean_logs=y,
        bin_se=np.asarray(bin_se),
        counts=np.asarray(counts),
    )


@dataclass
class WegnerRecord:
    L: int
    eps: float
    hits: int
    samples: int

    @property
    def probability(self) -> float:
        return self.hits / self.samples


def wegner_probe(
    params: ModelParams,
    E: float,
    L_list: list[int],
    beta: float,
    sigma: float,
    samples: int,
    seed: int = 0,
) -> list[WegnerRecord]:
    """Probability that the spectrum approaches E at stretched scale exp(-sigma L^beta).

    For each length L, counts realizations with an eigenvalue in the closed
    window [E - eps_L, E + eps_L], eps_L = exp(-sigma * L^beta); an L^beta
    beyond the float range gives eps_L = 0.  `spectral._exact_counts` gives
    the counts N(x) = #{lambda < x} at both ends, from one sweep per L over
    every sample, and a realization hits when N(E + eps_L) - N(E - eps_L) > 0.
    Tie rule, that of `_exact_counts` for a closed window: the upper count
    is taken at the double just above E + eps_L, so an eigenvalue at either
    end is inside; one within rounding of an end may fall on either side.
    Realization index (L << 32) | s keeps all draws independent across
    lengths and samples.
    """
    records = []
    for L in L_list:
        with np.errstate(over="ignore"):  # L^beta = inf gives exp(-inf) = 0
            eps = float(np.exp(-sigma * np.float64(L) ** beta))
        p_L = replace(params, n=L)
        reals = [sample_disorder(p_L, seed, (L << 32) | s) for s in range(samples)]
        chains = [assemble_block_jacobi(p_L, real) for real in reals]
        counts = _exact_counts(chains, [E - eps, np.nextafter(E + eps, np.inf)])
        hits = int(np.count_nonzero(counts[:, 1] > counts[:, 0]))
        records.append(WegnerRecord(L=L, eps=eps, hits=hits, samples=samples))
    return records
