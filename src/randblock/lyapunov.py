"""Lyapunov spectra of random transfer cocycles via QR re-orthonormalization.

The engine multiplies i.i.d. transfer factors into frames, one per batch of
the run, re-orthonormalizes every few steps, and accumulates log |R_pp|; the
batch frames advance in lockstep as lanes of one Gram-Schmidt QR
(transfer.qr_product), and batch means give a standard error for every
exponent.  A parameter axis adds lanes to the same pass: thouless_check
runs all its energies, and critical_alpha_scan all its grid couplings, on
one disorder stream, each value bit for bit the result of a run of its
own.  Factors are built with transposes only, so the symplectic pairing
gamma_p + gamma_{2l+1-p} = 0 survives complex spectral parameters.

Besides the full 2l x 2l chain cocycle this module carries the scalar 2x2
reductions that govern the zero-energy behaviour of the anisotropic chain:
a single-band cocycle with an effective coupling, a two-site product for
anisotropy above one, and closed-form reassembly of the four exponents at
zero energy from one auxiliary exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import (
    SIGMA_Z,
    BlockJacobiMatrix,
    ModelParams,
    SingleSiteDistribution,
    _check_zero_energy_gamma,
    anisotropy_block,
    realization_rng,
)
from .transfer import DEFAULT_REORTH, block_products, log_abs_det, qr_product, transfer_factors

DEFAULT_STEPS = 100_000
DEFAULT_BATCHES = 50
TWO_STEP_DET_TOL = 1e-12
# Block products one group of lanes of the QR engine holds over all its
# parameter values, its warm-up included: 8 MB of real 4 x 4 blocks.  A
# longer batch runs alone.
GROUP_BLOCKS = 1 << 16
# Steps of the stream drawn at a time, for every parameter value at once.
CHUNK_STEPS = 1024
# Parameter values of one pass (the energies of thouless_check, the grid of
# critical_alpha_scan), so that a chunk of factors over all of them stays
# within a quarter of GROUP_BLOCKS; more values run as further passes on
# the same stream.
PASS_VALUES = GROUP_BLOCKS // (4 * CHUNK_STEPS)
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
    def from_choices(cls, V_choices: np.ndarray, S_choices: np.ndarray) -> "BlockEnsemble":
        """i.i.d. picks from finite block families, each V and each S uniformly."""
        V_choices = np.asarray(V_choices, dtype=float)
        S_choices = np.asarray(S_choices, dtype=float)
        ell = V_choices.shape[-1]
        nv, ns = V_choices.shape[0], S_choices.shape[0]
        # rng.choice draws differently with and without p
        vw, sw = np.full(nv, 1.0 / nv), np.full(ns, 1.0 / ns)

        def draw(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
            iv = rng.choice(nv, size=m, p=vw)
            js = rng.choice(ns, size=m, p=sw)
            return V_choices[iv], S_choices[js]

        mean_log = float(np.sum(sw * np.log(np.abs(np.linalg.det(S_choices)))))
        return cls(ell=ell, draw_blocks=draw, mean_log_abs_det_s=mean_log)

    def factor_sampler(
        self, E: complex | Sequence[complex]
    ) -> Callable[[np.random.Generator, int], np.ndarray]:
        """Sequential sampler of transfer factors A_k built from (V_k, S_{k-1}).

        Consecutive factors share hopping blocks, so the sampler carries the
        last drawn S across calls; one extra block draw initializes the
        boundary hopping.  A shared hopping passes to transfer_factors as
        one block, which inverts it once per call.  With a sequence of K
        energies every draw builds the factors of all of them from the same
        blocks, shape (K, m, 2l, 2l).
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

    draw_factors(rng, m) returns the next m factors of the stream, (m, dim,
    dim), or (..., m, dim, dim) for a product over a parameter axis (the
    energies of thouless_check, the couplings of critical_alpha_scan): each
    parameter value is then a lane of its own on the same draws, and the
    exponents and errors come back of shape (..., dim).

    Steps are grouped into DEFAULT_BATCHES equal batches of whole
    re-orthonormalization blocks, laid out on one stream after warm_blocks
    uncounted blocks.  Every batch is a lane with a frame of its own: the
    frame starts from the identity and warms up over the warm_blocks blocks
    just before its batch, which aligns it with the stationary flag before
    it accumulates log |diag R|.  Factors are drawn in chunks of whole
    blocks of at most CHUNK_STEPS steps, and transfer.block_products folds
    each chunk into one product per block.  The lanes of a group of
    consecutive batches, over every parameter value, then advance together
    through transfer.qr_product, one product and one Gram-Schmidt QR per
    block position, on a strided view of the block products, of which
    qr_product copies one block position at a time.  A group holds the
    block products of at most GROUP_BLOCKS blocks over all parameter values,
    its warm-up included; its first lane warms up on the tail of the
    previous group.  A batch too long for that runs alone, its block
    products fed to qr_product chunk by chunk.  Lanes round alike in every
    layout, so the result is the same bit for bit for every GROUP_BLOCKS
    and every parameter axis.
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
    chunk_blocks = max(1, CHUNK_STEPS // reorth_every)

    def products(count: int) -> Iterator[np.ndarray]:
        """Block products of the next count blocks of the stream, one chunk at a time."""
        for done in range(0, count, chunk_blocks):
            take = min(chunk_blocks, count - done)
            yield block_products(draw_factors(rng, take * reorth_every), reorth_every)

    def advance(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frames and log |diag R| after frames X (..., dim, dim) run through P (..., blocks, dim, dim)."""
        X, diag_r = qr_product(X, P, 1)
        if not np.all(np.isfinite(X)):
            raise NumericalFailure("cocycle frame overflowed; reduce reorth_every")
        return X, np.log(np.abs(diag_r))

    def run_group(tail: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the next lanes batches, run in lockstep, and the warm-up tail of the next group."""
        span = warm_blocks + blocks_per_batch
        P = np.empty(lead + (warm_blocks + lanes * blocks_per_batch, dim, dim), dtype=tail.dtype)
        P[..., :warm_blocks, :, :] = tail
        filled = warm_blocks
        for _ in range(lanes):
            for chunk in products(blocks_per_batch):
                P[..., filled:filled + chunk.shape[-3], :, :] = chunk
                filled += chunk.shape[-3]
        # lane i runs through blocks i B .. i B + warm_blocks + B - 1 of P, B = blocks_per_batch
        strides = P.strides[:-3] + (blocks_per_batch * P.strides[-3],) + P.strides[-3:]
        lanes_view = np.lib.stride_tricks.as_strided(
            P, lead + (lanes, span, dim, dim), strides, writeable=False
        )
        _, logs = advance(np.broadcast_to(np.eye(dim), lead + (lanes, dim, dim)), lanes_view)
        # a running sum, which run_alone continues chunk by chunk in the same order
        sums = np.cumsum(logs[..., warm_blocks:, :], axis=-2)[..., -1, :]
        return sums, P[..., -warm_blocks:, :, :].copy()

    def run_alone(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the next batch as one frame fed chunk by chunk, and the warm-up tail of the next batch."""
        X, _ = advance(np.broadcast_to(np.eye(dim), lead + (dim, dim)), tail)
        sums = np.zeros(lead + (dim,))
        for chunk in products(blocks_per_batch):
            X, logs = advance(X, chunk)
            sums = np.cumsum(np.concatenate([sums[..., None, :], logs], axis=-2), axis=-2)[..., -1, :]
            tail = np.concatenate([tail, chunk], axis=-3)[..., -warm_blocks:, :, :]
        return sums, tail

    tail = np.concatenate(list(products(warm_blocks)), axis=-3)
    lead = tail.shape[:-3]
    batch_sums = np.empty(lead + (DEFAULT_BATCHES, dim))
    lanes_per_group = (GROUP_BLOCKS // math.prod(lead) - warm_blocks) // blocks_per_batch
    for first in range(0, DEFAULT_BATCHES, max(1, lanes_per_group)):
        if lanes_per_group > 0:
            lanes = min(lanes_per_group, DEFAULT_BATCHES - first)
            batch_sums[..., first:first + lanes, :], tail = run_group(tail, lanes)
        else:
            batch_sums[..., first, :], tail = run_alone(tail)

    batch_exponents = batch_sums / batch_steps
    exponents = batch_exponents.mean(axis=-2)
    se = batch_exponents.std(axis=-2, ddof=1) / np.sqrt(DEFAULT_BATCHES)
    order = np.argsort(exponents, axis=-1)[..., ::-1]
    return (np.take_along_axis(exponents, order, axis=-1), np.take_along_axis(se, order, axis=-1),
            DEFAULT_BATCHES * batch_steps)


def _parameter_passes(sampler: Callable[[Sequence], Callable], values: Sequence, dim: int, steps: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(K, dim) exponents and standard errors of K parameter values, and the counted steps.

    sampler(chunk) draws the factors of a chunk of values as a parameter
    axis.  The values run through _qr_exponents in passes of at most
    PASS_VALUES, each on the same stream from seed, so that memory does not
    grow with their number; a value gets the same bits in every pass.
    """
    runs = [_qr_exponents(sampler(values[first:first + PASS_VALUES]), dim, steps, seed, DEFAULT_REORTH)
            for first in range(0, len(values), PASS_VALUES)]
    exponents, se, counted = zip(*runs) if runs else ([np.empty((0, dim))], [np.empty((0, dim))], [0])
    return np.concatenate(exponents), np.concatenate(se), counted[0]


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

    The left side is measured by the cocycle engine, with every energy a
    lane of one pass on one disorder stream: each draw of blocks builds the
    factors of all energies, and the Lyapunov index at E is bit for bit
    lyapunov_index(lyapunov_spectrum(model, E, steps, seed)) whenever the
    energies are all complex or all real (a real energy among complex ones
    runs in complex arithmetic, equal up to rounding).  The energies run in
    passes of at most PASS_VALUES on the same stream (`_parameter_passes`).
    On the right, the hopping mean is exact, and the DOS integral is the mean
    over the equal-length chains dos_chains of log|det(M - E)| / (n l),
    which is the mean of log|E - lambda| over their eigenvalues.  One Schur
    sweep (`transfer.log_abs_det`) gives it at every energy before any
    cocycle runs.  It is exact off the real axis; at real E it is exact
    unless E is an eigenvalue of a leading sub-chain, and an exactly
    singular pivot raises NumericalFailure.
    """
    if len({M.V.shape for M in dos_chains}) != 1:
        raise ConfigError("the DOS chains must be non-empty and of equal length and block size")
    ensemble = BlockEnsemble.from_params(model) if isinstance(model, ModelParams) else model
    hopping_term = -ensemble.mean_log_abs_det_s / ensemble.ell
    n, ell = dos_chains[0].n, dos_chains[0].ell
    dos_terms = log_abs_det(dos_chains, energies).mean(axis=0) / (n * ell)
    exponents, se, counted = _parameter_passes(ensemble.factor_sampler, list(energies), 2 * ensemble.ell, steps, seed)
    reports = []
    for E, dos_term, exps, errs in zip(energies, dos_terms, exponents, se):
        index = lyapunov_index(LyapunovSpectrum(exponents=exps, se=errs, energy=E, steps=counted, seed=seed,
                                                reorth_every=DEFAULT_REORTH))
        reports.append(ThoulessReport(energy=E, index_value=index.value, index_se=index.se,
                                      hopping_term=hopping_term, dos_term=float(dos_term)))
    return reports


# ---------------------------------------------------------------------------
# scalar reductions at zero energy


def _anderson_sampler(couplings: float | np.ndarray, rho: SingleSiteDistribution) -> Callable:
    """Sampler of [[0, 1], [-1, c nu]], nu ~ rho: (m, 2, 2) for one coupling c, (..., m, 2, 2) for many."""
    c = np.asarray(couplings, dtype=float)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        nu = rho.sample(rng, m)
        return transfer_factors(c[..., None, None, None] * nu[:, None, None], np.ones((1, 1)), 0.0)

    return draw


def anderson_lyapunov_2x2(
    effective_coupling: float,
    rho: SingleSiteDistribution,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
) -> ExponentEstimate:
    """Top exponent of products of [[0, 1], [-1, c nu]] with nu ~ rho.

    These are the ell = 1 transfer factors with V = c nu, S = 1 at E = 0.
    """
    draw = _anderson_sampler(effective_coupling, rho)
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
    _check_zero_energy_gamma(gamma, "closed forms need")
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
    _check_zero_energy_gamma(gamma, "closed forms need")
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
    of alpha and bisection is well posed at fixed steps.  The grid runs as
    a parameter axis of the cocycle engine (`_parameter_passes`) on the same
    nu stream, bit for bit the values of one anderson_lyapunov_2x2 run per
    coupling; the bisection runs one coupling at a time.
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
    exponents, se, _ = _parameter_passes(lambda chunk: _anderson_sampler(chunk, rho), alphas * scale, 2, steps, seed)
    f_values, se_values = exponents[:, 0] - s, se[:, 0]

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
