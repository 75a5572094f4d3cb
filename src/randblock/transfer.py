"""Transfer matrices, fundamental solutions, Green blocks, and the
characteristic polynomial identity.

State convention: the transfer step at site k acts on x_{k-1} = (u(k-1),
S_{k-1} u(k)) and produces x_k = (u(k), S_k u(k+1)), so

    A_k = [[0, S_{k-1}^{-1}], [-S_{k-1}^t, (V_k - E) S_{k-1}^{-1}]].

A_k satisfies A_k^t J A_k = J exactly (transpose, not adjoint), also for
complex E.  Boundary hoppings are padded with identities, S_0 = S_L = I,
so that fundamental solutions on a chain of L sites are indexed k = 0..L+1.

Long products are carried on orthonormal frames by one engine, qr_product.
It folds each block of factors into one product with block_products, in
stacked matmuls over all blocks (complex factors in their real form), then
advances the frame by one product per block and re-orthonormalizes it,
returning diag R, from which callers take log |diag R| and the phase of
det R.  Every frame is a lane: a stack of lanes, each with its own
factors, is re-orthonormalized by one np.linalg.qr over all lanes per
block, and a single frame runs as a stack of one lane.  The
characteristic polynomial check runs its two routes as two lanes of one
stack: the solution-recursion route on the steps from _recursion_steps,
the transfer-minor route on the A_k from transfer_factors.  The Lyapunov
engine runs its batches as lanes on the block products of one stream.

_recursion_steps is the one builder of the solution recursion
S_k X(k+1) + S_{k-1}^t X(k-1) = (V_k - z) X(k).  fundamental_solutions runs
the steps of the chain and of the reversed chain, whose forward solution
read backwards is the backward one, as two lanes of one loop; with their
Wronskian they remain an independent check of the Green blocks.

Green blocks come from the recursive Green's function method (Thouless and
Kirkpatrick 1981, MacKinnon and Kramer 1983), not from the fundamental
solutions, which grow exponentially in L: schur_sweep eliminates the chain
site by site, GreenEvaluator runs it forward and on the reversed chain as
one sweep over a batch of two, and every pivot stays of the size of the
resolvent itself.  Setup costs O(L ell^3); GreenEvaluator.blocks() returns
all L^2 blocks in O(L^2 ell^3) time and O(L^2 ell^2) memory.

The same elimination, streamed over the sites of a batch of chains and
energies, gives two more quantities from its pivots P_k.  The stream
carries the current pivot of each chain and energy from site to site and
holds the pivots of at most STREAM_BLOCK sites, whose inertia and size it
reads in one vectorized pass per block; it never holds the stacks that
schur_sweep returns:

* log |det(M - z)| = sum of log |det P_k| (log_abs_det), the DOS term of
  the Thouless formula;
* at real x, the eigenvalue count #{lambda < x} = sum of the numbers of
  negative eigenvalues of the P_k (eigenvalue_counts).  M - x = L D L^t with
  D = diag(P_k), so by Sylvester's law of inertia M - x and D have equally
  many negative eigenvalues: the Sturm count of LAPACK dstebz (Kahan 1966)
  with ell x ell pivots in place of scalars.

For ell = 2 the inverse, the determinant and the inertia of a pivot are
closed forms on its three entries: det < 0 means one negative eigenvalue,
det > 0 with trace < 0 two, and the smallest |eigenvalue| is |det| over
the largest.  Other ell use stacked np.linalg.  Each pivot is carried as
a scale times a pivot of unit size, so that its determinant does not
overflow or underflow before the pivot itself does.

A pivot is exactly singular when z is an eigenvalue of a leading sub-chain.
The Green and log-determinant sweeps refuse it; the log-determinant sweep
also refuses a pivot whose determinant over its scale, the divisor of the
next update, underflows, and reports a pivot that is not finite as an
overflow of the Schur update.  The count sweep floors it
as dstebz does with pivmin: every exactly singular pivot whose entries all
lie within PIVOT_FLOOR of zero is replaced by -PIVOT_FLOOR I, so an
eigenvalue that makes a pivot vanish counts as below x.  Block pivots
(ell >= 2) need one more guard, which scalar Sturm counts do not: when
P_{k-1} is near singular, g_{k-1} is large along one direction, and the
other eigenvalues of the next pivot are formed by cancellation and carry
rounding errors of the size of |B|^2 |g_{k-1}|.  So a count is resolved
only when every pivot eigenvalue exceeds COUNT_ROUNDING times the size of
the terms its pivot was formed from; eigenvalue_counts reports each count
with that flag.  A rank-deficient pivot that the floor does not reach, or
a pivot that overflows, leaves its chain unresolved without stopping the
other chains of the sweep.

qr_product, fundamental_solutions, log_abs_det and eigenvalue_counts may
run past an overflow: they do so under np.errstate and report it
afterwards, as a non-finite frame, a NumericalFailure or an unresolved
count, not as floating-point warnings.  The test suite turns any RuntimeWarning raised in this module
into an error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalFailure
from .model import BlockJacobiMatrix

OVERFLOW_LIMIT = 1e250
PIVOT_COND_LIMIT = 1e12
DEFAULT_REORTH = 10
# Count-path pivot floor, about 1.5e-154: the square root of the smallest
# normal double.  An eigenvalue within it of x is a tie at any scale the
# program meets, and 1 / PIVOT_FLOOR times a squared hopping overflows only
# for hoppings beyond 1e77 (dstebz's pivmin, safmin max(1, max e^2), guards
# the same overflow).
PIVOT_FLOOR = float(np.sqrt(np.finfo(float).tiny))
# Count-path rounding bound, about 1.4e-14: a pivot eigenvalue no larger than
# COUNT_ROUNDING (|D_k| + |B_{k-1}|^2 / min |eig P_{k-1}|), Frobenius norms,
# may have its sign set by rounding, and its count is unresolved.  64 ulps
# cover the rounding of one ell <= 3 block product, inverse and eigvalsh.
COUNT_ROUNDING = 64 * float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Sites per block of the streaming sweep: it holds the pivots of one block
# at a time and reads their inertia and size in one pass per block.
STREAM_BLOCK = 64


def symplectic_form(ell: int) -> np.ndarray:
    J = np.zeros((2 * ell, 2 * ell))
    J[:ell, ell:] = np.eye(ell)
    J[ell:, :ell] = -np.eye(ell)
    return J


def symplectic_defect(A: np.ndarray) -> np.ndarray:
    """max |A^t J A - J| of each matrix in a (..., 2ell, 2ell) stack; zero in exact arithmetic for every A_k."""
    J = symplectic_form(A.shape[-1] // 2)
    return np.abs(np.swapaxes(A, -1, -2) @ J @ A - J).max(axis=(-2, -1))


def _energy(E: complex) -> complex:
    """E as a float when its imaginary part is zero, so real energies keep real arithmetic."""
    return float(np.real(E)) if np.imag(E) == 0.0 else E


def transfer_factors(V: np.ndarray, S_prev: np.ndarray, E: complex) -> np.ndarray:
    """Stack of A_k built from diagonal blocks V (m, ell, ell) and incoming hoppings S_prev.

    S_prev is either a stack (m, ell, ell) or one hopping (ell, ell) shared
    by every factor, which is then inverted once.  The result is float64
    unless V, S_prev or E is complex; a complex E with zero imaginary part
    counts as real.  At complex E the block (V - E) W, W = S_prev^{-1}, is
    formed as V W - E W, so that the product stays real for real blocks.
    """
    V = np.asarray(V)
    S_prev = np.asarray(S_prev)
    E = _energy(E)
    m, ell = V.shape[0], V.shape[-1]
    W = np.linalg.inv(S_prev)
    A = np.zeros((m, 2 * ell, 2 * ell), dtype=np.result_type(V, S_prev, E, float))
    A[:, :ell, ell:] = W
    A[:, ell:, :ell] = -np.swapaxes(S_prev, -1, -2)
    A[:, ell:, ell:] = V @ W - E * W if isinstance(E, complex) else (V - E * np.eye(ell)) @ W
    return A


def transfer_matrix(V_k: np.ndarray, S_prev: np.ndarray, E: complex) -> np.ndarray:
    """The 2ell x 2ell factor A_k from the diagonal block V_k and the incoming hopping S_{k-1}."""
    return transfer_factors(np.asarray(V_k)[None], np.asarray(S_prev)[None], E)[0]


@functools.cache
def _real_form(dim: int) -> np.ndarray:
    """(2 dim, 4 dim) matrix taking row i of a complex matrix, as (re, im) pairs, to rows (i, 0) and (i, 1) of its real form.

    The real form of a + ib holds, entry by entry, the 2 x 2 block
    [[a, -b], [b, a]]; products of real forms are the real forms of the
    products.  Each column has one entry of +-1, so the map is exact.
    """
    T = np.zeros((dim, 2, 2, dim, 2))  # (source column, re/im, row p, target column, q)
    j = np.arange(dim)
    T[j, 0, 0, j, 0] = T[j, 1, 1, j, 0] = T[j, 0, 1, j, 1] = 1.0
    T[j, 1, 0, j, 1] = -1.0
    return T.reshape(2 * dim, 4 * dim)


def block_products(F: np.ndarray, reorth: int) -> np.ndarray:
    """Products F[r-1] ... F[0] of each block of reorth consecutive factors of F (..., m, dim, dim).

    Returns (..., ceil(m / reorth), dim, dim); a short last block is padded
    with identities, which multiply exactly, and with reorth = 1 the factors
    come back as they are.  The products are stacked over all blocks, one
    matmul per position in the block.  Complex factors are multiplied in
    their real 2dim x 2dim form, where a stacked product of 4 x 4 blocks
    runs about four times faster than in complex arithmetic.  An overflow
    shows as non-finite products, not as warnings.
    """
    if reorth == 1:
        return F
    dim = F.shape[-1]
    lead, pad = F.shape[:-3], -F.shape[-3] % reorth
    if pad:
        F = np.concatenate([F, np.broadcast_to(np.eye(dim), lead + (pad, dim, dim))], axis=-3)
    is_complex = np.iscomplexobj(F)
    if is_complex:
        F = (np.ascontiguousarray(F).view(np.float64).reshape(-1, 2 * dim) @ _real_form(dim))
        dim *= 2
    F = F.reshape(lead + (-1, reorth, dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        P = F[..., 0, :, :]
        for j in range(1, reorth):
            P = F[..., j, :, :] @ P
    if is_complex:
        dim //= 2
        # entry (i, j) is a + ib with a, b in rows (i, 0), (i, 1) of column (j, 0)
        pairs = P.reshape(P.shape[:-2] + (dim, 2, dim, 2))[..., 0]
        P = np.ascontiguousarray(np.swapaxes(pairs, -1, -2)).view(np.complex128)[..., 0]
    return P


def qr_product(X: np.ndarray, F: np.ndarray, reorth: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance frames X through the factors F, re-orthonormalizing after every reorth of them.

    X is a stack of lanes (lanes, dim, cols) with F (lanes, m, dim, dim),
    each lane advanced through its own factors, or one frame (dim, cols)
    with F (m, dim, dim), which runs as a stack of one lane; frames may be
    square or tall.  Each block of reorth consecutive factors is first
    folded into one product by block_products, so the sequential part is
    one stacked product and one stacked np.linalg.qr per block for all
    lanes, whose fixed cost of some 20 microseconds is shared.  Returns the
    last frames and diag R, of shape (lanes, blocks, cols), or (blocks,
    cols) for one frame: log |diag R| carries the growth, and the product
    of diag R / |diag R| is the phase of det R.  With no factors X comes
    back unchanged.  An overflow shows as non-finite frames or diag R,
    which callers check, not as warnings.
    """
    if X.ndim == 2:
        X, diag_r = qr_product(X[None], F[None], reorth)
        return X[0], diag_r[0]
    P = block_products(F, reorth)
    diag_r = np.empty(P.shape[:-2] + X.shape[-1:], dtype=np.result_type(P, X))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(P.shape[1]):
            X, R = np.linalg.qr(P[:, b] @ X)
            diag_r[:, b] = np.diagonal(R, axis1=-2, axis2=-1)
    return X, diag_r


def _padded_hopping(M: BlockJacobiMatrix) -> np.ndarray:
    """S_0..S_L with identity padding at both ends, shape (L+1, ell, ell)."""
    eye = np.eye(M.ell)[None]
    return np.concatenate([eye, M.S, eye])


def _recursion_steps(V: np.ndarray, S: np.ndarray, z: complex) -> np.ndarray:
    """Stack (..., L, 2ell, 2ell) of the steps [[0, I], [-S_k^{-1} S_{k-1}^t, S_k^{-1} (V_k - z)]], k = 1..L.

    Step k takes [X(k-1); X(k)] to [X(k); X(k+1)] for every solution of
    S_k X(k+1) + S_{k-1}^t X(k-1) = (V_k - z) X(k).  V (..., L, ell, ell)
    holds the diagonal blocks, S (..., L+1, ell, ell) the padded hoppings.
    """
    ell = V.shape[-1]
    S_inv = np.linalg.inv(S[..., 1:, :, :])
    shifted = V - _energy(z) * np.eye(ell)
    steps = np.zeros(shifted.shape[:-2] + (2 * ell, 2 * ell), dtype=shifted.dtype)
    steps[..., :ell, ell:] = np.eye(ell)
    steps[..., ell:, :ell] = -S_inv @ np.swapaxes(S[..., :-1, :, :], -1, -2)
    steps[..., ell:, ell:] = S_inv @ shifted
    return steps


def fundamental_solutions(M: BlockJacobiMatrix, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward fundamental solutions at spectral parameter z, each of shape (L+2, ell, ell).

    The forward solution U has U(0) = 0, U(1) = I; the backward solution V
    has V(L) = I, V(L+1) = 0.  One loop of stacked products runs the steps
    of the chain and of the reversed chain (V[::-1], S[::-1] transposed),
    whose forward solution read backwards is V.  Overflow raises
    NumericalFailure naming the first site that overflowed, forward first:
    these unscaled solutions are meant for moderate chain lengths.
    """
    ell, L = M.ell, M.n
    S = _padded_hopping(M)
    steps = _recursion_steps(np.stack([M.V, M.V[::-1]]), np.stack([S, np.swapaxes(S[::-1], -1, -2)]), z)
    lanes = np.zeros((2, L + 2, ell, ell), dtype=steps.dtype)
    lanes[:, 1] = np.eye(ell)
    # an overflow is reported by the check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(L):
            # [X(k); X(k+1)] of each lane is a (2 ell, ell) view of two consecutive sites
            lanes[:, k + 2] = steps[:, k, ell:] @ lanes[:, k:k + 2].reshape(2, 2 * ell, ell)
    overflowed = ~(np.abs(lanes[:, 2:]).max(axis=(-2, -1)) <= OVERFLOW_LIMIT)
    # the sites of each lane, in the order it computes them
    for kind, row, sites in zip(("forward", "backward"), overflowed, (range(2, L + 2), range(L - 1, -1, -1))):
        if row.any():
            raise NumericalFailure(f"{kind} solution overflowed at site {sites[np.argmax(row)]}")
    return lanes[0], lanes[1, ::-1]


def wronskian(M: BlockJacobiMatrix, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Stack of the constant Wronskian W(k) = V(k)^t S_k U(k+1) - (S_k V(k+1))^t U(k), k = 0..L.

    U and V are solutions (L+2, ell, ell) on M, S_k its padded hoppings.
    Built with transposes throughout, so constancy in k holds for complex z
    as well.  For the fundamental pair, W(0) = V(0)^t.  One batched product.
    """
    S = _padded_hopping(M)
    return np.swapaxes(V[:-1], -1, -2) @ S @ U[1:] - np.swapaxes(S @ V[1:], -1, -2) @ U[:-1]


def _inverse(P: np.ndarray) -> np.ndarray:
    """Inverse of one pivot or of a stack of pivots; an exactly singular one is a NumericalFailure."""
    try:
        return np.linalg.inv(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"exactly singular Schur pivot: {exc}") from exc


def schur_sweep(D: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward Schur complements of block tridiagonal matrices, with every pivot kept.

    A matrix has diagonal blocks D (L, ..., ell, ell), upper blocks B
    (L-1, ..., ell, ell) and lower blocks B^t; the axes between the site
    axis and the block axes stack independent chains, and B broadcasts
    against D there.  Eliminating sites 0..k-1 leaves the pivot
    P_k = D_k - B_{k-1}^t g_{k-1} B_{k-1} at site k, with g_k = P_k^{-1}
    and P_0 = D_0.  Returns the stacks P and g, shaped like D, which
    GreenEvaluator needs whole; an exactly singular pivot is a
    NumericalFailure.  The backward sweep is this one on the reversed
    chain, with hoppings B[::-1] transposed.
    """
    P = np.empty_like(D)
    g = np.empty_like(D)
    P[0] = D[0]
    g[0] = _inverse(P[0])
    for k in range(1, D.shape[0]):
        P[k] = D[k] - np.swapaxes(B[k - 1], -1, -2) @ g[k - 1] @ B[k - 1]
        g[k] = _inverse(P[k])
    return P, g


class _ClosedFormPivots:
    """Symmetric 2x2 pivots [[a, b], [b, c]], kept as their entries (a, b, c) on axis -2: (R, 3, K) per site.

    With adj P = [[c, -b], [-b, a]], the Schur update B^t P^{-1} B is
    Q (a, b, c) / det P for a 3 x 3 matrix Q built once from each hopping.
    """

    ell = 2
    axes = -2
    expand = (..., None, slice(None))
    identity = np.array([1.0, 0.0, 1.0])[:, None]
    _weights = np.array([1.0, 2.0, 1.0])

    def __init__(self, V: np.ndarray, B: np.ndarray, z: np.ndarray):
        self.V = V[:, :, [0, 0, 1], [0, 1, 1], None]  # (L, R, 3, 1)
        self.shift = self.identity * z  # (3, K)
        (b00, b01), (b10, b11) = np.moveaxis(B, (-2, -1), (0, 1))  # each (L-1, R)
        # row i gives entry i of B^t adj(P) B, column j the coefficient of entry j of P
        self.Q = np.stack(
            [
                np.stack([b10 * b10, -2.0 * b00 * b10, b00 * b00], axis=-1),
                np.stack([b10 * b11, -(b00 * b11 + b10 * b01), b00 * b01], axis=-1),
                np.stack([b11 * b11, -2.0 * b01 * b11, b01 * b01], axis=-1),
            ],
            axis=-2,
        )  # (L-1, R, 3, 3)

    def diagonal(self, start: int, stop: int) -> np.ndarray:
        return self.V[start:stop] - self.shift

    def eliminate(self, D: np.ndarray, k: int, unit: np.ndarray, s: np.ndarray, det: np.ndarray) -> np.ndarray:
        return D - self.Q[k - 1] @ unit / (s * det)[self.expand]

    @classmethod
    def scale(cls, P: np.ndarray) -> np.ndarray:
        return cls._weights @ np.abs(P)  # |a| + 2 |b| + |c|

    @staticmethod
    def det(unit: np.ndarray) -> np.ndarray:
        return unit[..., 0, :] * unit[..., 2, :] - unit[..., 1, :] * unit[..., 1, :]

    @classmethod
    def norm(cls, D: np.ndarray) -> np.ndarray:
        return np.sqrt(cls._weights @ (D * D))

    @classmethod
    def inertia(cls, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Number of negative eigenvalues and smallest |eigenvalue| of each real pivot.

        det < 0 means one negative eigenvalue, det > 0 with trace < 0 two;
        the eigenvalues are tr/2 +- hypot((a - c)/2, b), so the smallest
        modulus is |det| over the largest.
        """
        a, b, c = unit[..., 0, :], unit[..., 1, :], unit[..., 2, :]
        trace, det = a + c, cls.det(unit)
        below = trace < 0.0
        negative = below.astype(int) + (below ^ (det < 0.0))
        return negative, np.abs(det) / (0.5 * np.abs(trace) + np.hypot(0.5 * (a - c), b))


class _StackedPivots:
    """ell x ell pivots of any size, (R, K, ell, ell) per site, through stacked np.linalg."""

    axes = (-2, -1)
    expand = (..., None, None)

    def __init__(self, V: np.ndarray, B: np.ndarray, z: np.ndarray):
        self.ell = V.shape[-1]
        self.V = V[:, :, None]  # (L, R, 1, ell, ell)
        self.B = B[:, :, None]
        self.identity = np.eye(self.ell)
        self.shift = z[:, None, None] * self.identity  # (K, ell, ell)

    def diagonal(self, start: int, stop: int) -> np.ndarray:
        return self.V[start:stop] - self.shift

    def eliminate(self, D: np.ndarray, k: int, unit: np.ndarray, s: np.ndarray, det: np.ndarray) -> np.ndarray:
        B = self.B[k - 1]
        return D - np.swapaxes(B, -1, -2) @ np.linalg.inv(unit) @ B / s[self.expand]

    @staticmethod
    def scale(P: np.ndarray) -> np.ndarray:
        return np.abs(P).max(axis=(-2, -1))

    @staticmethod
    def det(unit: np.ndarray) -> np.ndarray:
        return np.linalg.det(unit)

    @staticmethod
    def norm(D: np.ndarray) -> np.ndarray:
        return np.sqrt(np.square(D).sum(axis=(-2, -1)))

    @staticmethod
    def inertia(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Number of negative eigenvalues and smallest |eigenvalue| of each pivot; NaN for a non-finite one."""
        finite = np.isfinite(unit).all(axis=(-2, -1))
        w = np.linalg.eigvalsh(np.where(finite[..., None, None], unit, 0.0))
        return np.count_nonzero(w < 0.0, axis=-1), np.where(finite, np.abs(w).min(axis=-1), np.nan)


def _schur_stream(
    chains: Sequence[BlockJacobiMatrix], z: np.ndarray, count: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward Schur sweep of M_r - z_j over equal-length chains M_r and energies z_j, one site at a time.

    Each pivot is carried as s times a pivot of unit size, so that no
    determinant over- or underflows before the pivot itself does.  The
    site loop does only the elimination; the signs and sizes of the pivots
    are read in one pass per block of STREAM_BLOCK sites, the only pivots
    held.  Returns arrays of shape (R, K): with count, the numbers of
    negative pivot eigenvalues and the resolved flags, and log |det| left
    at zero; without it, log |det(M_r - z_j)| and the other two left at
    their start.  With count, an exactly singular pivot is floored (see the
    module docstring); without it, it is a NumericalFailure, and so are a
    pivot whose s det underflows before an update divides by it and a
    pivot that is not finite.
    """
    V = np.stack([M.V for M in chains], axis=1)  # (L, R, ell, ell)
    B = -np.stack([M.S for M in chains], axis=1)  # (L-1, R, ell, ell)
    kernel = (_ClosedFormPivots if V.shape[-1] == 2 else _StackedPivots)(V, B, z)
    shape = (V.shape[1], z.size)
    # |B_{k-1}|^2 for the pivot at site k; site 0 has none
    hopping = np.concatenate([np.zeros((1, shape[0], 1)), np.square(B).sum(axis=(-2, -1))[..., None]])
    log_abs, negative, resolved = np.zeros(shape), np.zeros(shape, dtype=int), np.ones(shape, dtype=bool)
    previous = np.full(shape, np.inf)
    for start in range(0, V.shape[0], STREAM_BLOCK):
        D = kernel.diagonal(start, min(start + STREAM_BLOCK, V.shape[0]))
        units, scales = np.empty_like(D), np.empty((D.shape[0],) + shape)
        for i, k in enumerate(range(start, start + D.shape[0])):
            if k == 0:
                P = D[i]
            else:
                # the update divides by s det of the last pivot (_StackedPivots: inv(unit) / s)
                if not count and np.any(np.abs(s * det) < _TINY):
                    raise NumericalFailure(
                        "Schur pivot log-determinants are not finite: z is at a sub-chain eigenvalue"
                    )
                P = kernel.eliminate(D[i], k, unit, s, det)
            s = np.maximum(kernel.scale(P), _TINY)  # so a zero pivot has det 0, not 0 / 0
            unit = P / s[kernel.expand]
            det = kernel.det(unit)
            if np.count_nonzero(det) < det.size:
                singular = det == 0.0
                if not count:
                    raise NumericalFailure(
                        "exactly singular Schur pivot: z is an eigenvalue of a leading sub-chain"
                    )
                floored = singular & (np.abs(P).max(axis=kernel.axes) <= PIVOT_FLOOR)
                unit = np.where(singular[kernel.expand], np.nan, unit)
                unit = np.where(floored[kernel.expand], -kernel.identity, unit)
                s = np.where(floored, PIVOT_FLOOR, s)
                det = kernel.det(unit)
            units[i], scales[i] = unit, s
        if count:
            below, smallest = kernel.inertia(units)
            negative += below.sum(axis=0)
            smallest *= scales
            before = np.concatenate([previous[None], smallest[:-1]])
            formed_from = kernel.norm(D) + hopping[start:start + D.shape[0]] / before
            resolved &= (smallest > COUNT_ROUNDING * formed_from).all(axis=0)
            previous = smallest[-1]
        elif not np.all(np.isfinite(scales)):
            raise NumericalFailure("Schur pivot overflowed: the hoppings or z are too large for the Schur update")
        else:
            log_abs += (np.log(np.abs(kernel.det(units))) + kernel.ell * np.log(scales)).sum(axis=0)
    return log_abs, negative, resolved


def log_abs_det(chains: Sequence[BlockJacobiMatrix], energies: Sequence[complex]) -> np.ndarray:
    """log |det(M_r - z_j)| for equal-length chains M_r and energies z_j, shape (R, K).

    One streaming Schur sweep runs over every chain and energy at once, and
    log |det(M - z)| is the sum of log |det P_k| over its pivots.  Off the
    real axis every pivot is invertible.  At real z the sum is exact unless
    z is an eigenvalue of a leading sub-chain M[0..k]: an exactly singular
    pivot, or one so near singular that the next update divides by an
    underflowing determinant, is a NumericalFailure naming the sub-chain.
    A pivot that is not finite, because the hoppings or z are too large
    for the Schur update, is a NumericalFailure naming the overflow.
    """
    z = np.asarray(energies)
    if np.iscomplexobj(z) and not np.any(z.imag):
        z = z.real  # real energies keep real arithmetic
    # an overflowing pivot is reported by the sweep as a NumericalFailure, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total, _, _ = _schur_stream(chains, z, count=False)
    return total


def eigenvalue_counts(
    chains: Sequence[BlockJacobiMatrix], energies: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """#{eigenvalues of M_r below x_j} for equal-length chains M_r and real x_j, with a resolved flag.

    Returns the integer counts and the boolean flags, both of shape (R, K).
    One streaming Schur sweep runs over every chain and energy at once, and
    the count is the number of negative eigenvalues of all its pivots
    together (Sylvester's law of inertia).  No eigensolve of M is made.  An
    exactly singular pivot is floored to -PIVOT_FLOOR I (see the module
    docstring), so an eigenvalue that makes a pivot vanish counts as below
    x.  A count is resolved when every one of its pivot eigenvalues exceeds
    COUNT_ROUNDING times the size of the terms the pivot was formed from:
    then no pivot sign is left to rounding, and only an eigenvalue of M
    within rounding of x may count on either side.  A near-singular leading
    sub-chain, a rank-deficient pivot the floor does not reach, or an
    overflow makes its count unresolved, and such a count may be wrong.
    """
    x = np.asarray(energies)
    if np.iscomplexobj(x) and np.any(x.imag):
        raise ValueError("eigenvalue counts need real energies")
    # a singular or overflowing pivot is reported by the flag, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, counts, resolved = _schur_stream(chains, x.real.astype(float), count=True)
    return counts, resolved


def _cond1(P: np.ndarray, P_inv: np.ndarray) -> float:
    """Largest 1-norm condition number ||P||_1 ||P^{-1}||_1 over a stack of pivots."""
    return float(np.max(np.abs(P).sum(-2).max(-1) * np.abs(P_inv).sum(-2).max(-1)))


class GreenEvaluator:
    """Green blocks G(j, k) of (M - z)^{-1} by the recursive Green's function method.

    With D_k = V_k - z and B_k = -S_k, the forward sweep gives the pivots
    D_k - left_k and the backward sweep D_k - right_k, where left_k and
    right_k are the self-energies of the chain to either side of site k.
    The diagonal pivots D_k - left_k - right_k invert to G(k, k).  Setup
    costs O(L ell^3).  pivot_cond is the largest 1-norm condition number
    of all three pivot stacks, and must not exceed PIVOT_COND_LIMIT.  At
    real z a pivot is singular also when z is an eigenvalue of a leading or
    trailing sub-chain, so the guard may reject such a z although M - z is
    invertible.
    """

    def __init__(self, M: BlockJacobiMatrix, z: complex):
        self.M = M
        self.z = z
        D = M.V - _energy(z) * np.eye(M.ell)
        B = -M.S
        # batch entry 0 is the forward sweep, 1 the backward one: reversed chain, transposed hoppings
        piv, piv_inv = schur_sweep(
            np.stack([D, D[::-1]], axis=1), np.stack([B, np.swapaxes(B[::-1], -1, -2)], axis=1)
        )
        left_piv, g = piv[:, 0], piv_inv[:, 0]
        right_piv, h = piv[::-1, 1], piv_inv[::-1, 1]
        diag_piv = left_piv + right_piv - D
        self._diagonal = _inverse(diag_piv)
        self.pivot_cond = max(_cond1(left_piv, g), _cond1(right_piv, h), _cond1(diag_piv, self._diagonal))
        if not self.pivot_cond <= PIVOT_COND_LIMIT:
            raise NumericalFailure(
                f"Schur pivot condition number {self.pivot_cond:.3e}: "
                "z is on or too close to the spectrum"
            )
        self._step = -(g[:-1] @ B)  # G(j, k) = -g_j B_j G(j+1, k) for j < k
        self._blocks: np.ndarray | None = None

    def blocks(self) -> np.ndarray:
        """Every block, as G[j-1, k-1] = G(j, k) of shape (L, L, ell, ell).

        One sweep up the columns fills the upper triangle, row j from row
        j+1 in one stacked product; M - z is complex symmetric, so the lower
        triangle is G(k, j) = G(j, k)^t.  O(L^2 ell^3) time and O(L^2 ell^2)
        memory; the result is cached.
        """
        if self._blocks is None:
            L = self.M.n
            G = np.zeros((L, L) + self._diagonal.shape[1:], dtype=self._diagonal.dtype)
            G[np.arange(L), np.arange(L)] = self._diagonal
            for j in range(L - 2, -1, -1):
                G[j, j + 1:] = self._step[j] @ G[j + 1, j + 1:]
            lower = np.tril_indices(L, -1)
            G[lower] = G.transpose(1, 0, 3, 2)[lower]
            self._blocks = G
        return self._blocks

    def block(self, j: int, k: int) -> np.ndarray:
        """Block G(j, k), sites labeled 1..L."""
        L = self.M.n
        if not (1 <= j <= L and 1 <= k <= L):
            raise ValueError(f"sites must lie in 1..{L}, got ({j}, {k})")
        return self.blocks()[j - 1, k - 1]


# ---------------------------------------------------------------------------
# characteristic polynomial identity


def _bottom_minors(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log|det|) of the bottom ell x ell block of the frame [0; I] carried through each lane's factors.

    factors is a stack (lanes, m, 2ell, 2ell); every lane starts from [0; I]
    and is re-orthonormalized every DEFAULT_REORTH factors by one
    qr_product over all lanes, its diag R carrying the scale.  Returns one
    phase and one log|det| per lane.  A lane whose growth overflows, or
    whose frame loses rank or ends with a singular bottom block, is a
    NumericalFailure.
    """
    lanes, ell = factors.shape[0], factors.shape[-1] // 2
    start = np.concatenate([np.zeros((ell, ell)), np.eye(ell)])
    X, d = qr_product(np.broadcast_to(start, (lanes, 2 * ell, ell)), factors, DEFAULT_REORTH)
    # an overflow (infinite or NaN diag R) or a lost rank (zero diag R) makes
    # phase or log_abs non-finite, which the check below reports, not warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        abs_d = np.abs(d)
        phase = np.prod(d / abs_d, axis=(1, 2))
        log_abs = np.sum(np.log(abs_d), axis=(1, 2))
    if not (np.all(np.isfinite(phase)) and np.all(np.isfinite(log_abs))):
        raise NumericalFailure("renormalized frame overflowed or lost rank within one block")
    sign, logdet = np.linalg.slogdet(X[:, ell:])
    if np.any(sign == 0):
        raise NumericalFailure("bottom block of the renormalized frame is singular")
    return phase * sign, log_abs + logdet


@dataclass
class CharpolyReport:
    """Log-domain comparison of det(M - E) against the transfer side."""

    log_direct: float
    sign_direct: complex
    log_transfer: float
    sign_transfer: complex
    identity_residual: float
    exterior_residual: float

    @property
    def residual(self) -> float:
        return max(self.identity_residual, self.exterior_residual)


def _ratio_residual(sign_a: complex, log_a: float, sign_b: complex, log_b: float) -> float:
    return float(abs(1.0 - (sign_b / sign_a) * np.exp(log_b - log_a)))


def charpoly_identity_check(M: BlockJacobiMatrix, E: complex) -> CharpolyReport:
    """Verify det(M - E) = (prod_k det S_k) * det P(L+1) in the log domain.

    Two independent right-hand sides are formed as two lanes of one
    _bottom_minors call, so one np.linalg.qr per block serves both: P(L+1)
    on the steps of _recursion_steps, and the bottom-right ell-minor of
    A_L ... A_1 on the factors of transfer_factors.  Both carry the frame
    [0; I] with QR re-orthonormalization every DEFAULT_REORTH steps and are
    compared multiplicatively, so the check stays sharp at chain lengths
    where the determinant itself over/underflows and for every ell.
    """
    dense = M.dense() - E * np.eye(M.n * M.ell)
    sign_direct, log_direct = np.linalg.slogdet(dense)
    if sign_direct == 0:
        raise NumericalFailure("E is an eigenvalue of M; identity check undefined")

    S = _padded_hopping(M)
    s_signs, s_logs = np.linalg.slogdet(M.S)
    (sign_p, sign_m), (log_p, log_m) = _bottom_minors(
        np.stack([_recursion_steps(M.V, S, E), transfer_factors(M.V, S[:-1], E)])
    )
    sign_rec = np.prod(s_signs) * sign_p
    log_rec = float(np.sum(s_logs)) + float(log_p)
    return CharpolyReport(
        log_direct=float(log_direct),
        sign_direct=sign_direct,
        log_transfer=log_rec,
        sign_transfer=sign_rec,
        identity_residual=_ratio_residual(sign_direct, float(log_direct), sign_rec, log_rec),
        exterior_residual=_ratio_residual(sign_p, log_p, sign_m, log_m),
    )
