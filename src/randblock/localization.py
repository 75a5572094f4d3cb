"""Eigenfunction correlators, decay fits, and finite-volume spectral probes.

The central object is the window correlator

    Q(j, k) = sum over eigenvalues in the window of |psi(j)| |psi(k)|,

where |psi(j)| is the euclidean norm of the eigenvector block at site j.
Q dominates every smoothed evolution block: for any |g| <= 1 on the window,
the operator norm of P_j g(M) chi_J(M) P_k^* is at most Q(j, k), so a
stretched-exponential bound on the ensemble mean of Q is a dynamical
localization statement.  Site indices in this module are 0-based array
positions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .model import ModelParams, assemble_block_jacobi, sample_disorder
from .parallel import parallel_map
from .spectral import SpectralData, eigensolve

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
    threads: int | None = None,
) -> CorrelatorField:
    """Mean correlator over realizations index = 0..num_realizations-1."""

    def one(index: int) -> CorrelatorField:
        real = sample_disorder(params, seed, index)
        spec = eigensolve(assemble_block_jacobi(params, real))
        return eigenfunction_correlator(spec, window)

    fields = parallel_map(one, range(num_realizations), threads=threads)
    Q = sum(f.Q for f in fields) / num_realizations  # no stacked (R, n, n) copy
    count = float(np.mean([f.mean_window_count for f in fields]))
    return CorrelatorField(
        window=(float(window[0]), float(window[1])),
        Q=Q,
        num_realizations=num_realizations,
        mean_window_count=count,
    )


@dataclass
class DecayFit:
    """OLS fit of mean log Q against d^zeta over distance bins.

    The model is y(d) = log C - eta * d^zeta; eta > 0 with a confidence
    interval excluding zero certifies stretched-exponential decay at
    stretching exponent zeta.  curvature_flag marks a significant quadratic
    correction in d^zeta, a hint that zeta misses the true stretching.
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
    fewer than MIN_PAIRS_PER_BIN contributing pairs are dropped.
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

    x = np.asarray(distances) ** zeta
    y = np.asarray(mean_logs)
    m = x.size
    X = np.column_stack([np.ones(m), x])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = m - 2
    s2 = float(resid @ resid) / dof
    xc = x - x.mean()
    slope_var = s2 / float(xc @ xc)
    eta = -float(coef[1])
    eta_se = float(np.sqrt(slope_var))
    ci = (eta - CI_FACTOR * eta_se, eta + CI_FACTOR * eta_se)

    # quadratic refit in the same regressor flags systematic curvature
    X2 = np.column_stack([np.ones(m), x, x**2])
    coef2, *_ = np.linalg.lstsq(X2, y, rcond=None)
    resid2 = y - X2 @ coef2
    s2_2 = float(resid2 @ resid2) / max(m - 3, 1)
    cov2 = s2_2 * np.linalg.inv(X2.T @ X2)
    curv = float(coef2[2])
    curv_se = float(np.sqrt(cov2[2, 2]))
    return DecayFit(
        zeta=zeta,
        eta=eta,
        eta_se=eta_se,
        eta_ci=ci,
        log_C=float(coef[0]),
        curvature=curv,
        curvature_se=curv_se,
        curvature_flag=bool(abs(curv) > 2.0 * curv_se),
        distances=np.asarray(distances),
        mean_logs=y,
        bin_se=np.asarray(bin_se),
        counts=np.asarray(counts),
    )


def evolution_block_norm(
    spec: SpectralData,
    window: tuple[float, float],
    j: int,
    k: int,
    t: float,
) -> float:
    """Operator norm of P_j exp(-itM) chi_J(M) P_k^* for one realization."""
    lo, hi = window
    mask = spec.window_mask(lo, hi)
    if not mask.any():
        return 0.0
    vecs = spec.eigenvectors
    if vecs is None:
        raise ValueError("eigenvectors were not requested")
    Wj = vecs.reshape(spec.n, spec.ell, -1)[j][:, mask]
    Wk = vecs.reshape(spec.n, spec.ell, -1)[k][:, mask]
    phases = np.exp(-1j * t * spec.eigenvalues[mask])
    block = (Wj * phases) @ Wk.conj().T
    return float(np.linalg.norm(block, 2))


def dynamical_sup_lower_bound(
    spec: SpectralData,
    window: tuple[float, float],
    j: int,
    k: int,
    t_grid: np.ndarray,
) -> float:
    """max over the grid of the evolution block norm; a lower bound for sup_t."""
    return max(evolution_block_norm(spec, window, j, k, float(t)) for t in np.asarray(t_grid))


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
    threads: int | None = None,
) -> list[WegnerRecord]:
    """Probability that the spectrum approaches E at stretched scale exp(-sigma L^beta).

    For each length L, counts realizations whose nearest eigenvalue to E is
    within eps_L = exp(-sigma * L^beta).  Realization index (L << 32) | s
    keeps all draws independent across lengths and samples.
    """
    mu0, gamma0 = float(params.mu[0]), float(params.gamma[0])
    if not (np.all(params.mu == mu0) and np.all(params.gamma == gamma0)):
        raise NumericalFailure("wegner probe varies n and needs homogeneous couplings")
    records = []
    for L in L_list:
        eps = float(np.exp(-sigma * L**beta))
        p_L = ModelParams.xy(n=L, gamma=gamma0, rho=params.rho, mu=mu0)

        def one(s: int, p_L=p_L, L=L) -> bool:
            real = sample_disorder(p_L, seed, (L << 32) | s)
            vals = eigensolve(assemble_block_jacobi(p_L, real), want_vectors=False).eigenvalues
            return bool(np.min(np.abs(vals - E)) <= eps)

        hits = sum(parallel_map(one, range(samples), threads=threads))
        records.append(WegnerRecord(L=L, eps=eps, hits=int(hits), samples=samples))
    return records
