"""Lyapunov spectra of random transfer cocycles via QR re-orthonormalization.

The engine multiplies i.i.d. transfer factors into frames, one per batch of
the run, re-orthonormalizes every few steps, and accumulates log |R_pp|; the
batch frames advance in lockstep as lanes of one stacked QR, and batch means
give a standard error for every exponent.  Factors are built with transposes only,
so the symplectic pairing gamma_p + gamma_{2l+1-p} = 0 survives complex
spectral parameters.

Besides the full 2l x 2l chain cocycle this module carries the scalar 2x2
reductions that govern the zero-energy behaviour of the anisotropic chain:
a single-band cocycle with an effective coupling, a two-site product for
anisotropy above one, and closed-form reassembly of the four exponents at
zero energy from one auxiliary exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import (
    SIGMA_Z,
    BlockJacobiMatrix,
    ModelParams,
    SingleSiteDistribution,
    anisotropy_block,
    realization_rng,
)
from .transfer import DEFAULT_REORTH, block_products, log_abs_det, qr_product, transfer_factors

DEFAULT_STEPS = 100_000
DEFAULT_BATCHES = 50
TWO_STEP_DET_TOL = 1e-12
# Block products one group of lanes of the QR engine holds, its warm-up
# included: 8 MB of real 4 x 4 blocks.  A longer batch runs alone.
GROUP_BLOCKS = 1 << 16
ALPHA_ROOT_WIDTH = 1e-2


# ---------------------------------------------------------------------------
# block ensembles and their transfer factors


class BlockEnsemble:
    """i.i.d. law of (V, S) block pairs feeding the transfer cocycle.

    draw_blocks(rng, m) must return (V, S) with V of shape (m, ell, ell) and
    S either of shape (m, ell, ell) or one (ell, ell) block shared by all m
    draws; the exact mean of log |det S| is kept alongside for the
    Thouless formula.
    """

    def __init__(
        self,
        ell: int,
        draw_blocks: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
        mean_log_abs_det_s: float,
    ):
        self.ell = ell
        self.draw_blocks = draw_blocks
        self.mean_log_abs_det_s = float(mean_log_abs_det_s)

    @classmethod
    def from_params(cls, params: ModelParams) -> "BlockEnsemble":
        """Stationary ensemble of the chain: i.i.d. nu_k sigma_z and one hopping mu S(gamma)."""
        mu, gamma = params.mu, params.gamma
        S_const = mu * anisotropy_block(gamma)
        rho = params.rho

        def draw(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
            nu = rho.sample(rng, m)
            V = nu[:, None, None] * SIGMA_Z[None, :, :]
            return V, S_const

        # det(mu S(gamma)) = mu^2 (gamma^2 - 1), as a sum of float64 logs: a Python-float
        # power raises OverflowError beyond 1e154, where a float64 square is inf and its log inf
        g = np.float64(gamma)
        with np.errstate(over="ignore"):
            mean_log = float(2.0 * np.log(abs(np.float64(mu))) + np.log(abs(g * g - 1.0)))
        return cls(ell=2, draw_blocks=draw, mean_log_abs_det_s=mean_log)

    @classmethod
    def from_choices(
        cls,
        V_choices: np.ndarray,
        S_choices: np.ndarray,
        s_weights: np.ndarray | None = None,
    ) -> "BlockEnsemble":
        """i.i.d. picks from finite block families: V uniform, S uniform or weighted."""
        V_choices = np.asarray(V_choices, dtype=float)
        S_choices = np.asarray(S_choices, dtype=float)
        ell = V_choices.shape[-1]
        nv, ns = V_choices.shape[0], S_choices.shape[0]
        vw = np.full(nv, 1.0 / nv)  # rng.choice draws differently with and without p
        sw = np.full(ns, 1.0 / ns) if s_weights is None else np.asarray(s_weights, dtype=float)
        if abs(sw.sum() - 1.0) > 1e-12:
            raise ConfigError("choice weights must sum to 1")

        def draw(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
            iv = rng.choice(nv, size=m, p=vw)
            js = rng.choice(ns, size=m, p=sw)
            return V_choices[iv], S_choices[js]

        mean_log = float(np.sum(sw * np.log(np.abs(np.linalg.det(S_choices)))))
        return cls(ell=ell, draw_blocks=draw, mean_log_abs_det_s=mean_log)

    def factor_sampler(self, E: complex) -> Callable[[np.random.Generator, int], np.ndarray]:
        """Sequential sampler of transfer factors A_k built from (V_k, S_{k-1}).

        Consecutive factors share hopping blocks, so the sampler carries the
        last drawn S across calls; one extra block draw initializes the
        boundary hopping.  A shared hopping passes to transfer_factors as
        one block, which inverts it once per call.
        """
        state: dict = {"carry": None}

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            if state["carry"] is None:
                _, S0 = self.draw_blocks(rng, 1)
                state["carry"] = S0 if S0.ndim == 2 else S0[0]
            V, S = self.draw_blocks(rng, m)
            if S.ndim == 3:
                S, state["carry"] = np.concatenate([state["carry"][None], S[:-1]]), S[-1].copy()
            return transfer_factors(V, S, E)

        return draw


# ---------------------------------------------------------------------------
# QR cocycle engine


def _qr_exponents(
    draw_factors: Callable[[np.random.Generator, int], np.ndarray],
    dim: int,
    steps: int,
    seed: int,
    reorth_every: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(exponents desc, standard errors, counted steps) of a random product.

    Steps are grouped into DEFAULT_BATCHES equal batches of whole
    re-orthonormalization blocks, laid out on one stream after warm_blocks
    uncounted blocks.  Every batch is a lane with a frame of its own: the
    frame starts from the identity and warms up over the warm_blocks blocks
    just before its batch, which aligns it with the stationary flag before
    it accumulates log |diag R|.  Factors are drawn a chunk of blocks at a
    time, and transfer.block_products folds each chunk into one product per
    block.  The lanes of a group of consecutive batches then advance
    together through transfer.qr_product, one stacked product and one
    stacked QR per block position.  A group holds the block products of at
    most GROUP_BLOCKS blocks, its warm-up included; its first lane warms up
    on the tail of the previous group.  A batch too long for that runs
    alone, its block products fed to qr_product chunk by chunk.
    """
    if reorth_every < 1:
        raise ConfigError("reorth_every must be >= 1")
    total_blocks = steps // reorth_every
    if total_blocks < DEFAULT_BATCHES:
        raise ConfigError(f"need at least {DEFAULT_BATCHES * reorth_every} steps, got {steps}")
    blocks_per_batch = total_blocks // DEFAULT_BATCHES
    batch_steps = blocks_per_batch * reorth_every
    rng = realization_rng(seed, 0)
    warm_blocks = min(100, blocks_per_batch)
    chunk_blocks = max(1, 1024 // reorth_every)

    def products(count: int) -> Iterator[np.ndarray]:
        """Block products of the next count blocks of the stream, one chunk at a time."""
        for done in range(0, count, chunk_blocks):
            take = min(chunk_blocks, count - done)
            yield block_products(draw_factors(rng, take * reorth_every), reorth_every)

    def advance(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frames and log |diag R| after the lanes X (lanes, dim, dim) run through P (lanes, blocks, dim, dim)."""
        X, diag_r = qr_product(X, P, 1)
        if not np.all(np.isfinite(X)):
            raise NumericalFailure("cocycle frame overflowed; reduce reorth_every")
        return X, np.log(np.abs(diag_r))

    def run_group(tail: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the next lanes batches, run in lockstep, and the warm-up tail of the next group."""
        span = warm_blocks + blocks_per_batch
        P = np.empty((warm_blocks + lanes * blocks_per_batch,) + tail.shape[1:], dtype=tail.dtype)
        P[:warm_blocks] = tail
        filled = warm_blocks
        for _ in range(lanes):
            for chunk in products(blocks_per_batch):
                P[filled:filled + chunk.shape[0]] = chunk
                filled += chunk.shape[0]
        # lane i runs through blocks i B .. i B + warm_blocks + B - 1 of P, B = blocks_per_batch
        strides = (blocks_per_batch * P.strides[0],) + P.strides
        lanes_view = np.lib.stride_tricks.as_strided(P, (lanes, span) + P.shape[1:], strides, writeable=False)
        _, logs = advance(np.repeat(np.eye(dim)[None], lanes, axis=0), lanes_view)
        # a running sum, which run_alone continues chunk by chunk in the same order
        return np.cumsum(logs[:, warm_blocks:], axis=1)[:, -1], P[-warm_blocks:].copy()

    def run_alone(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the next batch as one frame fed chunk by chunk, and the warm-up tail of the next batch."""
        X, _ = advance(np.eye(dim)[None], tail[None])
        sums = np.zeros(dim)
        for chunk in products(blocks_per_batch):
            X, logs = advance(X, chunk[None])
            sums = np.cumsum(np.concatenate([sums[None], logs[0]]), axis=0)[-1]
            tail = np.concatenate([tail, chunk])[-warm_blocks:]
        return sums, tail

    tail = np.concatenate(list(products(warm_blocks)))
    batch_sums = np.empty((DEFAULT_BATCHES, dim))
    lanes_per_group = (GROUP_BLOCKS - warm_blocks) // blocks_per_batch
    for first in range(0, DEFAULT_BATCHES, max(1, lanes_per_group)):
        if lanes_per_group:
            lanes = min(lanes_per_group, DEFAULT_BATCHES - first)
            batch_sums[first:first + lanes], tail = run_group(tail, lanes)
        else:
            batch_sums[first], tail = run_alone(tail)

    batch_exponents = batch_sums / batch_steps
    exponents = batch_exponents.mean(axis=0)
    se = batch_exponents.std(axis=0, ddof=1) / np.sqrt(DEFAULT_BATCHES)
    order = np.argsort(exponents)[::-1]
    return exponents[order], se[order], DEFAULT_BATCHES * batch_steps


@dataclass
class LyapunovSpectrum:
    """All 2l exponents at one spectral parameter, in decreasing order."""

    exponents: np.ndarray
    se: np.ndarray
    energy: complex
    steps: int
    seed: int
    reorth_every: int

    @property
    def ell(self) -> int:
        return self.exponents.size // 2

    def pair_sum_defects(self) -> np.ndarray:
        """|gamma_p + gamma_{2l+1-p}|, zero in the limit by symplecticity."""
        return np.abs(self.exponents + self.exponents[::-1])[: self.ell]

    def pair_sum_se(self) -> np.ndarray:
        return np.sqrt(self.se**2 + self.se[::-1] ** 2)[: self.ell]


@dataclass
class ExponentEstimate:
    """A single Lyapunov exponent with its batch-mean standard error."""

    value: float
    se: float
    steps: int
    seed: int


def lyapunov_spectrum(
    model: ModelParams | BlockEnsemble,
    E: complex,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
    reorth_every: int = DEFAULT_REORTH,
) -> LyapunovSpectrum:
    """Estimate all 2l exponents of the chain cocycle at energy E."""
    ensemble = BlockEnsemble.from_params(model) if isinstance(model, ModelParams) else model
    draw = ensemble.factor_sampler(E)
    exponents, se, counted = _qr_exponents(draw, 2 * ensemble.ell, steps, seed, reorth_every)
    return LyapunovSpectrum(
        exponents=exponents, se=se, energy=E, steps=counted, seed=seed, reorth_every=reorth_every
    )


def lyapunov_index(spec: LyapunovSpectrum) -> ExponentEstimate:
    """Mean of the l nonnegative exponents, with errors added in quadrature."""
    ell = spec.ell
    value = float(np.mean(spec.exponents[:ell]))
    se = float(np.sqrt(np.sum(spec.se[:ell] ** 2)) / ell)
    return ExponentEstimate(value=value, se=se, steps=spec.steps, seed=spec.seed)


# ---------------------------------------------------------------------------
# Thouless formula


@dataclass
class ThoulessReport:
    """Comparison of the Lyapunov index with its potential-theory prediction."""

    energy: complex
    index_value: float
    index_se: float
    hopping_term: float
    dos_term: float

    @property
    def predicted(self) -> float:
        return self.hopping_term + self.dos_term

    @property
    def residual(self) -> float:
        return self.index_value - self.predicted


def thouless_check(
    model: ModelParams | BlockEnsemble,
    energies: Sequence[complex],
    dos_chains: Sequence[BlockJacobiMatrix],
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
) -> list[ThoulessReport]:
    """Check gamma(E) = -(1/l) E[log|det S|] + integral of log|E - x| dN(x) at each energy.

    The left side is measured by the cocycle engine.  On the right, the
    hopping mean is exact, and the DOS integral is the mean over the
    equal-length chains dos_chains of log|det(M - E)| / (n l), which is the
    mean of log|E - lambda| over their eigenvalues.  One Schur sweep
    (`transfer.log_abs_det`) gives it at every energy before any cocycle
    runs.  It is exact off the real axis; at real E it is exact unless E
    is an eigenvalue of a leading sub-chain, and an exactly singular pivot
    raises NumericalFailure.
    """
    if len({M.V.shape for M in dos_chains}) != 1:
        raise ConfigError("the DOS chains must be non-empty and of equal length and block size")
    ensemble = BlockEnsemble.from_params(model) if isinstance(model, ModelParams) else model
    hopping_term = -ensemble.mean_log_abs_det_s / ensemble.ell
    n, ell = dos_chains[0].n, dos_chains[0].ell
    dos_terms = log_abs_det(dos_chains, energies).mean(axis=0) / (n * ell)
    reports = []
    for E, dos_term in zip(energies, dos_terms):
        index = lyapunov_index(lyapunov_spectrum(ensemble, E, steps=steps, seed=seed))
        reports.append(
            ThoulessReport(
                energy=E,
                index_value=index.value,
                index_se=index.se,
                hopping_term=hopping_term,
                dos_term=float(dos_term),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# scalar reductions at zero energy


def anderson_lyapunov_2x2(
    effective_coupling: float,
    rho: SingleSiteDistribution,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
) -> ExponentEstimate:
    """Top exponent of products of [[0, 1], [-1, c nu]] with nu ~ rho.

    These are the ell = 1 transfer factors with V = c nu, S = 1 at E = 0.
    """
    c = float(effective_coupling)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        nu = rho.sample(rng, m)
        return transfer_factors(c * nu[:, None, None], np.ones((1, 1)), 0.0)

    exps, se, counted = _qr_exponents(draw, 2, steps, seed, DEFAULT_REORTH)
    return ExponentEstimate(value=float(exps[0]), se=float(se[0]), steps=counted, seed=seed)


def two_step_lyapunov(
    gamma: float,
    rho: SingleSiteDistribution,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
) -> ExponentEstimate:
    """Top exponent of the unit-determinant two-site products for gamma > 1.

    Each factor combines two consecutive potential entries (a, b) into

        [[1, a / (gamma^2 - 1)], [b, 1 + a b / (gamma^2 - 1)]],

    whose determinant is exactly 1; the determinant is verified to
    TWO_STEP_DET_TOL on every draw.  The returned exponent is per two-site
    factor.
    """
    if gamma <= 1.0:
        raise ConfigError("two-step reduction applies to anisotropy gamma > 1")
    d = gamma * gamma - 1.0

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        nu = rho.sample(rng, 2 * m)
        a, b = nu[0::2], nu[1::2]
        F = np.empty((m, 2, 2))
        F[:, 0, 0] = 1.0
        F[:, 0, 1] = a / d
        F[:, 1, 0] = b
        F[:, 1, 1] = 1.0 + a * b / d
        det = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        worst = float(np.max(np.abs(det - 1.0)))
        if worst > TWO_STEP_DET_TOL:
            raise NumericalFailure(f"two-step factor determinant drifted by {worst:.3e}")
        return F

    exps, se, counted = _qr_exponents(draw, 2, steps, seed, DEFAULT_REORTH)
    return ExponentEstimate(value=float(exps[0]), se=float(se[0]), steps=counted, seed=seed)


def zero_energy_shift(gamma: float) -> float:
    """The exact half-log anisotropy shift entering every zero-energy exponent."""
    if gamma <= 0.0 or gamma == 1.0:
        raise ConfigError("closed forms need gamma in (0, 1) or (1, inf)")
    return 0.5 * np.log((1.0 + gamma) / abs(1.0 - gamma))


def zero_energy_aux_exponent(
    gamma: float,
    rho: SingleSiteDistribution,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
) -> ExponentEstimate:
    """Auxiliary scalar exponent feeding the zero-energy closed form.

    For gamma in (0, 1) the 4x4 cocycle at zero energy splits into two
    conjugate single-band cocycles with effective coupling 1/sqrt(1-gamma^2);
    for gamma > 1 the split happens after pairing sites, handled by
    two_step_lyapunov.
    """
    if gamma <= 0.0 or gamma == 1.0:
        raise ConfigError("closed forms need gamma in (0, 1) or (1, inf)")
    if gamma < 1.0:
        coupling = 1.0 / np.sqrt(1.0 - gamma * gamma)
        return anderson_lyapunov_2x2(coupling, rho, steps=steps, seed=seed)
    return two_step_lyapunov(gamma, rho, steps=steps, seed=seed)


@dataclass
class ZeroEnergyPrediction:
    """Zero-energy exponent multiset rebuilt from one auxiliary exponent."""

    gamma: float
    branch: str
    shift: float
    aux: ExponentEstimate
    exponents: np.ndarray
    se: np.ndarray

    @property
    def gamma_top(self) -> float:
        return float(self.exponents[0])

    @property
    def gamma_inner(self) -> float:
        return float(self.exponents[1])


def zero_energy_closed_form(gamma: float, measured: ExponentEstimate) -> ZeroEnergyPrediction:
    """Predicted four-exponent set at zero energy from the auxiliary exponent.

    With s the half-log shift and g the auxiliary exponent, the set is
    {+-g +- s} for gamma in (0, 1).  For gamma > 1 the auxiliary product
    advances two sites per factor, so its exponent enters halved:
    {+-g/2 +- s}.  In both cases the two nonnegative exponents are
    gamma_1 = g' + s and gamma_2 = |g' - s| with g' the per-site rate.
    """
    s = zero_energy_shift(gamma)
    if gamma < 1.0:
        per_site, per_site_se, branch = measured.value, measured.se, "unit_determinant"
    else:
        per_site, per_site_se, branch = (
            0.5 * measured.value,
            0.5 * measured.se,
            "negative_determinant_two_step",
        )
    top = per_site + s
    inner = abs(per_site - s)
    exponents = np.array([top, inner, -inner, -top])
    se = np.array([per_site_se, per_site_se, per_site_se, per_site_se])
    return ZeroEnergyPrediction(
        gamma=gamma, branch=branch, shift=s, aux=measured, exponents=exponents, se=se
    )


# ---------------------------------------------------------------------------
# critical coupling scan


@dataclass
class AlphaScanResult:
    """Grid values of f(alpha) and the sign-change brackets found."""

    alphas: np.ndarray
    f_values: np.ndarray
    se_values: np.ndarray
    shift: float
    roots: list[tuple[float, float]]

    @property
    def bracketed(self) -> bool:
        return bool(self.roots)


def critical_alpha_scan(
    gamma: float,
    rho: SingleSiteDistribution,
    alpha_lo: float,
    alpha_hi: float,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
    grid_points: int = 9,
) -> AlphaScanResult:
    """Scan f(alpha) = Gamma(alpha/sqrt(1-gamma^2)) - shift for sign changes.

    f < 0 means the inner zero-energy exponent |g - s| sits on the
    descending branch; a root of f marks the coupling where it vanishes.
    Each sign change on the grid is narrowed by bisection to ALPHA_ROOT_WIDTH.
    Every evaluation reuses the same seed so f is a deterministic function
    of alpha and bisection is well posed at fixed steps.
    """
    if not 0.0 < gamma < 1.0:
        raise ConfigError("the coupling scan is defined for gamma in (0, 1)")
    if not alpha_lo < alpha_hi:
        raise ConfigError("need alpha_lo < alpha_hi")
    s = zero_energy_shift(gamma)
    scale = 1.0 / np.sqrt(1.0 - gamma * gamma)

    def f(alpha: float) -> tuple[float, float]:
        est = anderson_lyapunov_2x2(alpha * scale, rho, steps=steps, seed=seed)
        return est.value - s, est.se

    alphas = np.linspace(alpha_lo, alpha_hi, grid_points)
    pairs = [f(a) for a in alphas]
    f_values = np.array([p[0] for p in pairs])
    se_values = np.array([p[1] for p in pairs])

    roots: list[tuple[float, float]] = []
    for i in range(grid_points - 1):
        lo, hi = float(alphas[i]), float(alphas[i + 1])
        flo, fhi = float(f_values[i]), float(f_values[i + 1])
        if flo == 0.0:
            roots.append((lo, lo))
            continue
        if flo * fhi >= 0.0:
            continue
        while hi - lo > ALPHA_ROOT_WIDTH:
            mid = 0.5 * (lo + hi)
            fmid, _ = f(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append((lo, hi))
    return AlphaScanResult(alphas=alphas, f_values=f_values, se_values=se_values, shift=s, roots=roots)
