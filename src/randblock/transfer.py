"""Transfer matrices, fundamental solutions, Green blocks, and the
characteristic polynomial identity.

State convention: the transfer step at site k acts on x_{k-1} = (u(k-1),
S_{k-1} u(k)) and produces x_k = (u(k), S_k u(k+1)), so

    A_k = [[0, S_{k-1}^{-1}], [-S_{k-1}^t, (V_k - E) S_{k-1}^{-1}]].

A_k satisfies A_k^t J A_k = J exactly (transpose, not adjoint), also for
complex E.  Boundary hoppings are padded with identities, S_0 = S_L = I,
so that fundamental solutions on a chain of L sites are indexed k = 0..L+1.

transfer_factors is the one builder of the A_k.  One draw of blocks gives
the factors of any number of energies at once, each energy's stack bit for
bit the one it would get alone.

Long products are carried on orthonormal frames by one engine, qr_product.
It folds each block of factors into one product with block_products, in
stacked matmuls over all blocks (complex factors in their real form), then
advances the frame by one product per block and re-orthonormalizes it,
returning diag R, from which callers take log |diag R| and the phase of
det R.  Every frame is a lane, and any leading axes of the frames and
factors are lane axes.  The frames are held lanes last, so that each block
is one product and one classical Gram-Schmidt QR done twice, every step an
elementwise operation over all lanes; np.linalg.qr redoes a lane only for
a block where Gram-Schmidt would lose it to rounding or overflow.  A lane
rounds the same whatever the other lanes are, and a single frame runs as
two equal lanes.  The characteristic polynomial check runs its two routes
over every chain of a batch as lanes (route, chain) of one stack: the
solution-recursion route on the steps from _recursion_steps, the
transfer-minor route on the A_k from transfer_factors.  The Lyapunov
engine runs its batches, over every energy or coupling of a scan, as lanes
on the block products of one stream.

GreenEvaluator, fundamental_solutions with wronskian, and
charpoly_identity_check take one chain or a sequence of chains with the
same ell, the way transfer_factors takes one energy or a sequence; one
chain is a batch of one.  A batch of chains of different lengths runs as
lanes of one pass, each padded to the longest to round bit for bit as it
would alone (wronskian lays them end to end), and a chain that fails
raises a NumericalFailure whose `chain` is its index in the batch.

_recursion_steps is the one builder of the solution recursion
S_k X(k+1) + S_{k-1}^t X(k-1) = (V_k - z) X(k).  fundamental_solutions runs
the steps of every chain and of its reversed chain, whose forward solution
read backwards is the backward one, as lanes (direction, chain) of one
loop; with their Wronskian they remain an independent check of the Green
blocks.

Green blocks come from the recursive Green's function method (Thouless and
Kirkpatrick 1981, MacKinnon and Kramer 1983), not from the fundamental
solutions, which grow exponentially in L: schur_sweep eliminates the chain
site by site, GreenEvaluator runs it forward and on the reversed chain of
every chain as one sweep over lanes (direction, chain), and every pivot
stays of the size of the resolvent itself.  Setup costs O(L ell^3) a
chain; GreenEvaluator.blocks() returns all L^2 blocks of every chain in
O(L^2 ell^3) time and O(L^2 ell^2) memory a chain, L the longest of the
batch.

The same elimination, streamed over the sites of a batch of chains and
energies, gives two more quantities from its pivots P_k.  _schur_stream
has one behavior: it carries the current pivot of each chain and energy
from site to site and yields the pivots of one block of sites at a time,
never the stacks that schur_sweep returns.  Each reader checks and sums a
block in one vectorized pass:

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
schur_sweep refuses it.  The stream floors it as dstebz does with pivmin:
an exactly singular pivot whose entries all lie within PIVOT_FLOOR of zero
becomes -PIVOT_FLOOR I, any other NaN, and a mask marks them.  log_abs_det
refuses such a pivot, and one whose determinant times its scale, the
divisor of the next update, underflows; a pivot that is not finite it
reports as an overflow of the Schur update.  eigenvalue_counts reads the
floored pivots, so an eigenvalue that makes a pivot vanish counts as below
x.  Block pivots (ell >= 2) need one more guard, which scalar Sturm counts
do not: when P_{k-1} is near singular, g_{k-1} is large along one
direction, and the other eigenvalues of the next pivot are formed by
cancellation and carry rounding errors of the size of |B|^2 |g_{k-1}|.
So a count is resolved only when every pivot eigenvalue exceeds
COUNT_ROUNDING times the size of the terms its pivot was formed from;
eigenvalue_counts reports each count with that flag.  A rank-deficient
pivot that the floor does not reach, or a pivot that overflows, leaves its
chain unresolved without stopping the other chains of the sweep.

qr_product, fundamental_solutions, log_abs_det and eigenvalue_counts may
run past an overflow: they do so under np.errstate and report it
afterwards, as a non-finite frame, a NumericalFailure or an unresolved
count, not as floating-point warnings.  The test suite turns any RuntimeWarning raised in this module
into an error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
# Gram-Schmidt QR: a column that keeps no more than GS_KEEP of its norm
# after both projections is mostly rounding, and a squared norm below
# GS_NORM_FLOOR, about 1e-292, may hold subnormal squares; np.linalg.qr
# redoes the lanes of either, and of a squared norm that overflows.
GS_KEEP = 64 * float(np.finfo(float).eps)
GS_NORM_FLOOR = _TINY / float(np.finfo(float).eps)
# Sites per block of the streaming sweep, and pivots per block over all its
# sites, chains and energies: a width above 1,024 gets fewer sites a block.
STREAM_BLOCK = 64
_STREAM_PIVOTS = 2**16


def symplectic_form(ell: int) -> np.ndarray:
    J = np.zeros((2 * ell, 2 * ell))
    J[:ell, ell:] = np.eye(ell)
    J[ell:, :ell] = -np.eye(ell)
    return J


def symplectic_defect(A: np.ndarray) -> np.ndarray:
    """max |A^t J A - J| of each matrix in a (..., 2ell, 2ell) stack; zero in exact arithmetic for every A_k."""
    J = symplectic_form(A.shape[-1] // 2)
    return np.abs(np.swapaxes(A, -1, -2) @ J @ A - J).max(axis=(-2, -1))


def _energies(E: complex | Sequence[complex]) -> np.ndarray:
    """E as an array, real when every imaginary part is zero, so that real energies keep real arithmetic."""
    z = np.asarray(E)
    return z.real if np.iscomplexobj(z) and not np.any(z.imag) else z


def transfer_factors(V: np.ndarray, S_prev: np.ndarray, E: complex | Sequence[complex]) -> np.ndarray:
    """Stack of A_k built from diagonal blocks V (..., m, ell, ell) and incoming hoppings S_prev.

    S_prev is either a stack (m, ell, ell) or one hopping (ell, ell) shared
    by every factor, which is then inverted once.  E is one energy, giving
    A of the shape of V's stack (..., m, 2ell, 2ell), or a sequence of K
    energies, giving (K, ..., m, 2ell, 2ell): every energy's factors from
    the same blocks, each bit for bit as if built alone.  The result is
    float64 unless V, S_prev or E is complex; energies whose imaginary
    parts are all zero count as real.  At complex E the block (V - E) W,
    W = S_prev^{-1}, is formed as V W - E W, so that the product stays real
    for real blocks.
    """
    V = np.asarray(V)
    S_prev = np.asarray(S_prev)
    z = _energies(E)
    ell = V.shape[-1]
    W = np.linalg.inv(S_prev)
    # one energy axis in front of V's axes, or none
    z = z.reshape(z.shape + (1,) * V.ndim)
    shifted = V @ W - z * W if np.iscomplexobj(z) else (V - z * np.eye(ell)) @ W
    A = np.zeros(shifted.shape[:-2] + (2 * ell, 2 * ell), dtype=np.result_type(shifted, S_prev, float))
    A[..., :ell, ell:] = W
    A[..., ell:, :ell] = -np.swapaxes(S_prev, -1, -2)
    A[..., ell:, ell:] = shifted
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


@functools.cache
def _identity(dim: int, lane_axes: int) -> np.ndarray:
    """The dim x dim identity with lane_axes trailing axes of length one."""
    I = np.eye(dim).reshape((dim, dim) + (1,) * lane_axes)
    I.flags.writeable = False
    return I


def _gram_schmidt(Y: np.ndarray, diag_r: np.ndarray) -> np.ndarray:
    """Q of the frames Y (dim, cols, *lanes), lanes last, by classical Gram-Schmidt done twice.

    Column j is projected twice by I - sum over i < j of q_i q_i^H, which is
    kept as one matrix per lane and updated column by column, and then
    normalized.  diag R, real and positive, is written into diag_r (cols,
    *lanes).  Every step is one elementwise operation, or one sum over a
    leading axis, over all lanes at once.  A lane whose column keeps no
    more than GS_KEEP of its norm after both projections, or whose squared
    norm overflows or falls below GS_NORM_FLOOR, is redone by np.linalg.qr.
    """
    add = np.add.reduce
    conj = np.conjugate if np.iscomplexobj(Y) else (lambda v: v)
    dim, cols = Y.shape[:2]
    before = add((Y * conj(Y)).real, axis=0)  # squared column norms, (cols, *lanes)
    after = np.empty_like(before)
    W = np.empty_like(Y)
    W[:, 0] = Y[:, 0]
    for j in range(cols):
        v = W[:, j]
        if j:
            add(M * add(M * Y[None, :, j], axis=1)[None], axis=1, out=v)
        v_conj = conj(v)
        add((v * v_conj).real, axis=0, out=after[j])
        if j + 1 < cols:
            outer = (v / after[j])[:, None] * v_conj[None]
            M = _identity(dim, Y.ndim - 2) - outer if j == 0 else M - outer
    norms = np.sqrt(after)
    diag_r[...] = norms
    Q = np.multiply(W, 1.0 / norms, out=W)
    held = np.maximum(GS_KEEP**2 * before, GS_NORM_FLOOR) < after
    if not held.all():
        redo = ~held.all(axis=0)
        Q_redo, R = np.linalg.qr(np.moveaxis(Y, (0, 1), (-2, -1))[redo])
        np.moveaxis(Q, (0, 1), (-2, -1))[redo] = Q_redo
        np.moveaxis(diag_r, 0, -1)[redo] = np.diagonal(R, axis1=-2, axis2=-1)
    return Q


def qr_product(X: np.ndarray, F: np.ndarray, reorth: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance frames X through the factors F, re-orthonormalizing after every reorth of them.

    X is a stack of frames (..., dim, cols) and F a stack (..., m, dim, dim)
    of factors; their leading lane axes broadcast, and every lane advances
    through its own factors.  No lane axis means one frame.  Frames may be
    square or tall.  Each block of reorth consecutive factors is first
    folded into one product by block_products.  The frames are then held
    lanes last, and each block is one product and one QR by _gram_schmidt
    (classical Gram-Schmidt done twice; Giraud, Langou and Rozloznik 2005),
    each step an elementwise operation over all lanes; a lane that it
    cannot orthonormalize to rounding is redone by np.linalg.qr for that
    block.  Every lane rounds as it would run alone, so its results do not
    depend on the other lanes; a single lane runs as two equal ones, since
    numpy sums over one lane in another order.  F may be a strided view;
    it is copied one block position at a time, never whole.  Returns the
    last frames and diag R, of shape (..., blocks, cols): log |diag R|
    carries the growth, and the product of diag R / |diag R| is the phase
    of det R.  With no factors X comes back unchanged.  An overflow shows
    as non-finite frames or diag R, which callers check, not as warnings.
    """
    P = block_products(F, reorth)
    lead = np.broadcast_shapes(P.shape[:-3], X.shape[:-2])
    (dim, cols), blocks = X.shape[-2:], P.shape[-3]
    if blocks == 0:
        return X, np.empty(lead + (0, cols), dtype=np.result_type(P, X))
    if math.prod(lead) == 1:
        X, diag_r = qr_product(np.broadcast_to(X.reshape(dim, cols), (2, dim, cols)),
                               np.broadcast_to(P.reshape(P.shape[-3:]), (2,) + P.shape[-3:]), 1)
        return X[0].reshape(lead + (dim, cols)), diag_r[0].reshape(lead + (blocks, cols))
    P = np.broadcast_to(P, lead + P.shape[-3:])
    n = len(lead)
    last = (n, n + 1) + tuple(range(n))  # (*lead, a, b) -> (a, b, *lead)
    # frames and products copied lanes last, (dim, cols, *lead) and (dim, dim, *lead): numpy
    # may round a lane that is a broadcast or strided view otherwise than a contiguous one
    frames = np.ascontiguousarray(np.broadcast_to(X, lead + (dim, cols)).transpose(last))
    diag_r = np.empty((blocks, cols) + lead, dtype=np.result_type(P, X))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for b in range(blocks):
            step = np.ascontiguousarray(P[..., b, :, :].transpose(last))
            frames = _gram_schmidt(np.add.reduce(step[:, :, None] * frames[None], axis=1), diag_r[b])
    first = tuple(range(2, n + 2)) + (0, 1)  # the inverse of last
    return np.ascontiguousarray(frames.transpose(first)), np.ascontiguousarray(diag_r.transpose(first))


def _batch(M: BlockJacobiMatrix | Sequence[BlockJacobiMatrix]) -> tuple[list[BlockJacobiMatrix], bool]:
    """The chains of M, one chain or a non-empty sequence of chains with the same ell, and whether M is one chain."""
    single = isinstance(M, BlockJacobiMatrix)
    chains = [M] if single else list(M)
    if not chains or len({chain.ell for chain in chains}) > 1:
        raise ValueError("a batch holds one or more chains, all with the same ell")
    return chains, single


def _stacked(chains: Sequence[tuple[np.ndarray, np.ndarray]], length: int,
             offsets: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal blocks (R, length, ell, ell) and padded hoppings (R, length + 1, ell, ell) of R chains (V, S).

    Chain r holds V_1..V_L at offsets[r] .. offsets[r] + L - 1 (offsets
    default to 0) and its padded hoppings S_0 = I, S_1, ..., S_{L-1}, S_L = I
    at offsets[r] .. offsets[r] + L; every other block is 0 and every other
    hopping I.
    """
    ell = chains[0][0].shape[-1]
    V = np.zeros((len(chains), length, ell, ell))
    S = np.zeros((len(chains), length + 1, ell, ell))
    S[...] = np.eye(ell)
    for r, (V_r, S_r) in enumerate(chains):
        start = offsets[r] if offsets is not None else 0
        V[r, start:start + V_r.shape[0]] = V_r
        S[r, start + 1:start + V_r.shape[0]] = S_r
    return V, S


def _recursion_steps(V: np.ndarray, S: np.ndarray, z: complex) -> np.ndarray:
    """Stack (..., L, 2ell, 2ell) of the steps [[0, I], [-S_k^{-1} S_{k-1}^t, S_k^{-1} (V_k - z)]], k = 1..L.

    Step k takes [X(k-1); X(k)] to [X(k); X(k+1)] for every solution of
    S_k X(k+1) + S_{k-1}^t X(k-1) = (V_k - z) X(k).  V (..., L, ell, ell)
    holds the diagonal blocks, S (..., L+1, ell, ell) the padded hoppings.
    """
    ell = V.shape[-1]
    S_inv = np.linalg.inv(S[..., 1:, :, :])
    shifted = V - _energies(z) * np.eye(ell)
    steps = np.zeros(shifted.shape[:-2] + (2 * ell, 2 * ell), dtype=shifted.dtype)
    steps[..., :ell, ell:] = np.eye(ell)
    steps[..., ell:, :ell] = -S_inv @ np.swapaxes(S[..., :-1, :, :], -1, -2)
    steps[..., ell:, ell:] = S_inv @ shifted
    return steps


def fundamental_solutions(
    M: BlockJacobiMatrix | Sequence[BlockJacobiMatrix], z: complex
) -> tuple[np.ndarray, np.ndarray] | tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward and backward fundamental solutions at spectral parameter z, each of shape (L+2, ell, ell).

    The forward solution U has U(0) = 0, U(1) = I; the backward solution V
    has V(L) = I, V(L+1) = 0.  M is one chain, or a sequence of chains with
    the same ell, for which U and V are lists with one solution per chain.
    One loop of stacked products runs the steps of every chain and of its
    reversed chain (V[::-1], S[::-1] transposed), whose forward solution
    read backwards is V, as lanes (direction, chain).  The lanes are ordered
    by length, longest first, and step k runs only over the chains that
    reach it, so no lane runs past its own S_L = I.  Overflow raises
    NumericalFailure naming the first site of the first chain that
    overflowed, forward first: these unscaled solutions are meant for
    moderate chain lengths.
    """
    chains, single = _batch(M)
    ell, R, L = chains[0].ell, len(chains), max(chain.n for chain in chains)
    lengths = np.array([chain.n for chain in chains])
    # lanes by length, so that the chains reaching step k are the first running[k]
    order = np.argsort(-lengths, kind="stable")
    running = np.count_nonzero(lengths[:, None] > np.arange(L), axis=0)
    lanes_of = [chains[r] for r in order]
    reversed_chains = [(M.V[::-1], np.swapaxes(M.S[::-1], -1, -2)) for M in lanes_of]
    V, S = _stacked([(M.V, M.S) for M in lanes_of] + reversed_chains, L)
    steps = _recursion_steps(V, S, z).reshape(2, R, L, 2 * ell, 2 * ell)
    lanes = np.zeros((2, R, L + 2, ell, ell), dtype=steps.dtype)
    lanes[:, :, 1] = np.eye(ell)
    # an overflow is reported by the check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a in enumerate(running):
            # [X(k); X(k+1)] of each lane is a (2 ell, ell) view of two consecutive sites
            lanes[:, :a, k + 2] = steps[:, :a, k, ell:] @ lanes[:, :a, k:k + 2].reshape(2, a, 2 * ell, ell)
    lane = np.argsort(order)  # the lane of each chain
    # at each chain's own sites only
    peaks = np.abs(lanes[:, :, 2:]).max(axis=(-2, -1))[:, lane]
    overflowed = ~(peaks <= OVERFLOW_LIMIT) & (np.arange(L) < lengths[:, None])
    if overflowed.any():
        r = int(np.argmax(overflowed.any(axis=(0, 2))))
        n = chains[r].n
        # the sites of each lane, in the order it computes them
        for kind, row, sites in zip(("forward", "backward"), overflowed[:, r], (range(2, n + 2), range(n - 1, -1, -1))):
            if row.any():
                raise NumericalFailure(f"{kind} solution overflowed at site {sites[np.argmax(row)]}", chain=r)
    U = [lanes[0, lane[r], :chain.n + 2] for r, chain in enumerate(chains)]
    V = [lanes[1, lane[r], chain.n + 1::-1] for r, chain in enumerate(chains)]
    return (U[0], V[0]) if single else (U, V)


def wronskian(
    M: BlockJacobiMatrix | Sequence[BlockJacobiMatrix],
    U: np.ndarray | Sequence[np.ndarray],
    V: np.ndarray | Sequence[np.ndarray],
) -> np.ndarray | list[np.ndarray]:
    """Stack of the constant Wronskian W(k) = V(k)^t S_k U(k+1) - (S_k V(k+1))^t U(k), k = 0..L.

    U and V are solutions (L+2, ell, ell) on M, S_k its padded hoppings; for
    a sequence of chains, U and V are sequences with one solution per chain,
    and so is the result.  Built with transposes throughout, so constancy in
    k holds for complex z as well.  For the fundamental pair, W(0) = V(0)^t.
    One batched product over the sites of all chains, laid end to end.
    """
    chains, single = _batch(M)
    if single:
        U, V = [U], [V]
    eye = np.eye(chains[0].ell)[None]
    S = np.concatenate([blocks for chain in chains for blocks in (eye, chain.S, eye)])
    # X(k) and X(k + 1), k = 0..L, of every chain
    U0, U1, V0, V1 = (np.concatenate([X_r[a:a + chain.n + 1] for X_r, chain in zip(X, chains)])
                      for X, a in ((U, 0), (U, 1), (V, 0), (V, 1)))
    W = np.swapaxes(V0, -1, -2) @ S @ U1 - np.swapaxes(S @ V1, -1, -2) @ U0
    W = np.split(W, np.cumsum([chain.n + 1 for chain in chains])[:-1])
    return W[0] if single else W


def _inverse(P: np.ndarray) -> np.ndarray:
    """Inverse of one pivot or of a stack of pivots.

    An exactly singular pivot is a NumericalFailure whose `chain` is the
    index of the first singular pivot, counted over the stack's leading axes
    in C order.
    """
    try:
        return np.linalg.inv(P)
    except np.linalg.LinAlgError as exc:
        # the stacked inverse factors each pivot alone, so the first one that fails alone is the one
        for lane, pivot in enumerate(P.reshape((-1,) + P.shape[-2:])):
            try:
                np.linalg.inv(pivot)
            except np.linalg.LinAlgError:
                break
        raise NumericalFailure(f"exactly singular Schur pivot: {exc}", chain=lane) from exc


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
        """Number of negative eigenvalues and smallest |eigenvalue| of each pivot, from tr/2 +- hypot((a - c)/2, b)."""
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


def _schur_stream(chains: Sequence[BlockJacobiMatrix], z: np.ndarray) -> Iterator[tuple]:
    """The forward Schur sweep of M_r - z_j over equal-length chains M_r and energies z_j, one block of sites at a time.

    Each pivot is carried as s times a pivot of unit size, so that no
    determinant over- or underflows before the pivot itself does; every
    exactly singular pivot is floored (see the module docstring).  A block
    holds STREAM_BLOCK sites, or as many as fit in _STREAM_PIVOTS pivots
    over the width R K, and at least one.  Yields for each block the pivot
    kernel, the diagonal terms D of its sites, the unit pivots, their
    scales and the mask of the exactly singular ones, both (sites, R, K).
    """
    V = np.stack([M.V for M in chains], axis=1)  # (L, R, ell, ell)
    B = -np.stack([M.S for M in chains], axis=1)  # (L-1, R, ell, ell)
    kernel = (_ClosedFormPivots if V.shape[-1] == 2 else _StackedPivots)(V, B, z)
    shape = (V.shape[1], z.size)
    sites = max(1, min(STREAM_BLOCK, _STREAM_PIVOTS // max(1, shape[0] * shape[1])))
    for start in range(0, V.shape[0], sites):
        D = kernel.diagonal(start, min(start + sites, V.shape[0]))
        units, scales = np.empty_like(D), np.empty((D.shape[0],) + shape)
        singular = np.zeros(scales.shape, dtype=bool)
        for i, k in enumerate(range(start, start + D.shape[0])):
            # the update divides by s det of the last pivot (_StackedPivots: inv(unit) / s)
            P = D[i] if k == 0 else kernel.eliminate(D[i], k, unit, s, det)
            s = np.maximum(kernel.scale(P), _TINY)  # so a zero pivot has det 0, not 0 / 0
            unit = P / s[kernel.expand]
            det = kernel.det(unit)
            if np.count_nonzero(det) < det.size:
                singular[i] = det == 0.0
                floored = singular[i] & (np.abs(P).max(axis=kernel.axes) <= PIVOT_FLOOR)
                unit = np.where(singular[i][kernel.expand], np.nan, unit)
                unit = np.where(floored[kernel.expand], -kernel.identity, unit)
                s = np.where(floored, PIVOT_FLOOR, s)
                det = kernel.det(unit)
            units[i], scales[i] = unit, s
        yield kernel, D, units, scales, singular
        # so that the next block is built while only the reader may hold this one
        del D, units, scales, singular


# the refusals of log_abs_det at one site, in the order they are checked
_LOG_DET_FAILURES = ("Schur pivot log-determinants are not finite: z is at a sub-chain eigenvalue",
                     "exactly singular Schur pivot: z is an eigenvalue of a leading sub-chain")


def log_abs_det(chains: Sequence[BlockJacobiMatrix], energies: Sequence[complex]) -> np.ndarray:
    """log |det(M_r - z_j)| for equal-length chains M_r and energies z_j, shape (R, K).

    One streaming Schur sweep runs over every chain and energy at once, and
    log |det(M - z)| is the sum of log |det P_k| over its pivots.  Off the
    real axis every pivot is invertible.  At real z the sum is exact unless
    z is an eigenvalue of a leading sub-chain M[0..k].  Each block is
    checked once, and its first failing site is a NumericalFailure naming
    the sub-chain: at site k, first a P_{k-1} whose s det underflows though
    the update of P_k divides by it, then an exactly singular P_k.  A block
    without either that holds a pivot that is not finite, because the
    hoppings or z are too large for the Schur update, is a NumericalFailure
    naming the overflow.
    """
    z = _energies(energies)
    total = np.zeros((len(chains), z.size))
    underflow = np.zeros(total.shape, dtype=bool)  # of the last pivot before the block
    # a failing pivot is reported as a NumericalFailure, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kernel, _, units, scales, singular in _schur_stream(chains, z):
            det = kernel.det(units)
            tiny = np.abs(scales * det) < _TINY
            # (site, check) in the order of _LOG_DET_FAILURES; site k checks the divisor s det of P_{k-1}
            failed = np.stack([np.concatenate([underflow[None], tiny[:-1]]), singular], axis=1)
            failed = failed.reshape(2 * det.shape[0], -1).any(axis=1)
            if failed.any():
                raise NumericalFailure(_LOG_DET_FAILURES[np.argmax(failed) % 2])
            if not np.all(np.isfinite(scales)):
                raise NumericalFailure("Schur pivot overflowed: the hoppings or z are too large for the Schur update")
            underflow = tiny[-1].copy()
            total += (np.log(np.abs(det)) + kernel.ell * np.log(scales)).sum(axis=0)
            del _, units, scales, singular, det, tiny, failed  # before the stream builds the next block
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
    COUNT_ROUNDING times |D_k| + |B_{k-1}|^2 / min |eig P_{k-1}|, the size
    of the terms the pivot was formed from, P_{k-1} carried across blocks:
    then no pivot sign is left to rounding, and only an eigenvalue of M
    within rounding of x may count on either side.  A near-singular leading
    sub-chain, a rank-deficient pivot the floor does not reach, or an
    overflow makes its count unresolved, and such a count may be wrong.
    """
    x = _energies(energies)
    if np.iscomplexobj(x):
        raise ValueError("eigenvalue counts need real energies")
    shape = (len(chains), x.size)
    negative, resolved = np.zeros(shape, dtype=int), np.ones(shape, dtype=bool)
    previous, start = np.full(shape, np.inf), 0
    # a singular or overflowing pivot is reported by the flag, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # |B_{k-1}|^2 for the pivot at site k; site 0 has none
        hopping = np.pad(np.square(np.stack([M.S for M in chains], axis=1)).sum(axis=(-2, -1)), ((1, 0), (0, 0)))
        for kernel, D, units, scales, _ in _schur_stream(chains, x.astype(float)):
            below, smallest = kernel.inertia(units)
            negative += below.sum(axis=0)
            smallest *= scales
            before = np.concatenate([previous[None], smallest[:-1]])
            formed_from = kernel.norm(D) + hopping[start:start + D.shape[0], :, None] / before
            resolved &= (smallest > COUNT_ROUNDING * formed_from).all(axis=0)
            previous, start = smallest[-1].copy(), start + D.shape[0]
            del D, units, scales, _, below, smallest, before, formed_from  # before the stream builds the next block
    return negative, resolved


def _cond1(P: np.ndarray, P_inv: np.ndarray) -> np.ndarray:
    """1-norm condition number ||P||_1 ||P^{-1}||_1 of each pivot of a stack.

    The stacks are copied contiguous first: numpy may round the modulus of
    a complex entry of a strided view otherwise, so that a chain's pivots
    would not give the same bits in a batch as alone.
    """
    return np.abs(np.ascontiguousarray(P)).sum(-2).max(-1) * np.abs(np.ascontiguousarray(P_inv)).sum(-2).max(-1)


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

    M is one chain or a sequence of chains with the same ell.  For a
    sequence, pivot_cond is an array and blocks() and block() return lists,
    one entry per chain.  The chains are padded in front to the longest one
    with decoupled sites, D = I and B = 0 also on the link before a chain's
    first site, whose pivots are exactly I; so every chain ends on the last
    site, the backward sweep is the forward one on the whole padded stack
    reversed, each chain's own padding then at its tail, and one
    schur_sweep runs both over lanes (direction, chain).  A chain that
    fails, first by a singular pivot and then by pivot_cond, is a
    NumericalFailure naming it.
    """

    def __init__(self, M: BlockJacobiMatrix | Sequence[BlockJacobiMatrix], z: complex):
        self.M = M
        self.z = z
        chains, self._single = _batch(M)
        ell, R, L = chains[0].ell, len(chains), max(chain.n for chain in chains)
        self._offsets = L - np.array([chain.n for chain in chains])  # of each chain's first site
        V, S = _stacked([(chain.V, chain.S) for chain in chains], L, self._offsets)
        own = np.arange(L)[:, None] >= self._offsets  # (site, chain)
        D = np.swapaxes(V, 0, 1) - _energies(z) * np.eye(ell)
        D[~own] = np.eye(ell)
        B = -np.swapaxes(S[:, 1:L], 0, 1)
        B[~own[:-1]] = 0.0  # link k joins sites k and k + 1
        try:
            # lane (0, r) is the forward sweep of chain r, (1, r) the backward one: reversed chain, transposed hoppings
            piv, piv_inv = schur_sweep(
                np.stack([D, D[::-1]], axis=1), np.stack([B, np.swapaxes(B[::-1], -1, -2)], axis=1)
            )
            left_piv, g = piv[:, 0], piv_inv[:, 0]
            right_piv, h = piv[::-1, 1], piv_inv[::-1, 1]
            diag_piv = left_piv + right_piv - D
            self._diagonal = _inverse(diag_piv)
        except NumericalFailure as exc:
            raise NumericalFailure(str(exc), chain=exc.chain % R) from exc
        cond = np.maximum(np.maximum(_cond1(left_piv, g), _cond1(right_piv, h)), _cond1(diag_piv, self._diagonal))
        cond = np.where(own, cond, 0.0).max(axis=0)  # over each chain's own sites
        self.pivot_cond = float(cond[0]) if self._single else cond
        failed = ~(cond <= PIVOT_COND_LIMIT)
        if failed.any():
            r = int(np.argmax(failed))
            raise NumericalFailure(
                f"Schur pivot condition number {cond[r]:.3e}: z is on or too close to the spectrum", chain=r
            )
        self._step = -(g[:-1] @ B)  # G(j, k) = -g_j B_j G(j+1, k) for j < k
        self._blocks: list[np.ndarray] | None = None

    def blocks(self) -> np.ndarray | list[np.ndarray]:
        """Every block, as G[j-1, k-1] = G(j, k) of shape (L, L, ell, ell); a list of them for a batch.

        One sweep up the columns fills the upper triangles, row j from row
        j+1 in one stacked product over the chains that reach row j; M - z
        is complex symmetric, so column j below the diagonal is
        G(k, j) = G(j, k)^t, copied as row j is made.
        O(L^2 ell^3) time and O(L^2 ell^2) memory a chain; the result is
        cached, and each chain's blocks are a view of one array.
        """
        if self._blocks is None:
            # lanes by first site, so that the chains reaching row j are the first reach[j]
            order = np.argsort(self._offsets, kind="stable")
            reach = np.searchsorted(self._offsets[order], np.arange(self._diagonal.shape[0]), side="right")
            diagonal, step = self._diagonal[:, order], self._step[:, order]
            L = diagonal.shape[0]
            G = np.zeros((L, L) + diagonal.shape[1:], dtype=diagonal.dtype)  # (L, L, chain, ell, ell)
            G[np.arange(L), np.arange(L)] = diagonal
            for j in range(L - 2, -1, -1):
                G[j, j + 1:, :reach[j]] = step[j, :reach[j]] @ G[j + 1, j + 1:, :reach[j]]
                G[j + 1:, j] = np.swapaxes(G[j, j + 1:], -1, -2)
            lane = np.argsort(order)
            self._blocks = [G[first:, first:, lane[r]] for r, first in enumerate(self._offsets)]
        return self._blocks[0] if self._single else self._blocks

    def block(self, j: int, k: int) -> np.ndarray | list[np.ndarray]:
        """Block G(j, k), sites labeled 1..L; for a batch, the list of every chain's block, L its shortest chain."""
        L = self._diagonal.shape[0] - int(self._offsets.max())
        if not (1 <= j <= L and 1 <= k <= L):
            raise ValueError(f"sites must lie in 1..{L}, got ({j}, {k})")
        self.blocks()
        blocks = [G[j - 1, k - 1] for G in self._blocks]
        return blocks[0] if self._single else blocks


# ---------------------------------------------------------------------------
# characteristic polynomial identity


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


def charpoly_identity_check(
    M: BlockJacobiMatrix | Sequence[BlockJacobiMatrix], E: complex
) -> CharpolyReport | list[CharpolyReport]:
    """Verify det(M - E) = (prod_k det S_k) * det P(L+1) in the log domain.

    M is one chain, or a sequence of chains with the same ell, for which
    the result is a list with one report per chain.  The left-hand side is
    each chain's dense slogdet.  Two independent right-hand sides, P(L+1) on
    the steps of _recursion_steps and the bottom-right ell-minor of
    A_L ... A_1 on the factors of transfer_factors, carry the frame [0; I]
    as lanes (route, chain) of one qr_product, re-orthonormalized every
    DEFAULT_REORTH steps, and are compared multiplicatively, so the check
    stays sharp at chain lengths where the determinant itself
    over/underflows and for every ell.  Each chain's two stacks are padded
    in front with whole blocks of identities, which leave [0; I] exactly as
    it is with diag R = 1, so that every chain ends on the last block; each
    chain's log |diag R| is summed over its own blocks only.  The first
    chain that fails is a NumericalFailure naming it: E an eigenvalue of M,
    then a frame that overflows or loses rank within one block, then a
    singular bottom block.
    """
    chains, single = _batch(M)
    ell, R = chains[0].ell, len(chains)
    lengths = np.array([chain.n for chain in chains])
    blocks = -(-lengths // DEFAULT_REORTH)
    offsets = (blocks.max() - blocks) * DEFAULT_REORTH
    V, S = _stacked([(chain.V, chain.S) for chain in chains], blocks.max() * DEFAULT_REORTH, offsets)
    factors = np.stack([_recursion_steps(V, S, E), transfer_factors(V, S[:, :-1], E)])
    sites = np.arange(V.shape[1])
    factors[:, (sites < offsets[:, None]) | (sites >= (offsets + lengths)[:, None])] = np.eye(2 * ell)
    start = np.concatenate([np.zeros((ell, ell)), np.eye(ell)])
    X, d = qr_product(np.broadcast_to(start, (2, R, 2 * ell, ell)), factors, DEFAULT_REORTH)
    del factors  # so that the pass and a dense reference are not held at once
    # an overflow (infinite or NaN diag R) or a lost rank (zero diag R) makes
    # phase or log_abs non-finite, which the checks below report, not warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        abs_d = np.abs(d)
        phases, logs = d / abs_d, np.log(abs_d)
        # the phase and log |det R| of both routes of each chain, over its own blocks only
        minors = [(np.prod(phases[:, r, -b:], axis=(1, 2)), np.sum(logs[:, r, -b:], axis=(1, 2)))
                  for r, b in enumerate(blocks)]
        bottom_signs, bottom_logs = np.linalg.slogdet(X[..., ell:, :])
    s_signs, s_logs = np.linalg.slogdet(np.concatenate([chain.S for chain in chains]))
    hoppings = np.concatenate([[0], np.cumsum(lengths - 1)])
    reports = []
    for r, chain in enumerate(chains):
        sign_direct, log_direct = np.linalg.slogdet(chain.dense() - E * np.eye(chain.n * ell))
        if sign_direct == 0:
            raise NumericalFailure("E is an eigenvalue of M; identity check undefined", chain=r)
        phase, log_abs = minors[r]
        if not (np.all(np.isfinite(phase)) and np.all(np.isfinite(log_abs))):
            raise NumericalFailure("renormalized frame overflowed or lost rank within one block", chain=r)
        if np.any(bottom_signs[:, r] == 0):
            raise NumericalFailure("bottom block of the renormalized frame is singular", chain=r)
        (sign_p, sign_m), (log_p, log_m) = phase * bottom_signs[:, r], log_abs + bottom_logs[:, r]
        own = slice(hoppings[r], hoppings[r + 1])
        sign_rec = np.prod(s_signs[own]) * sign_p
        log_rec = float(np.sum(s_logs[own])) + float(log_p)
        reports.append(CharpolyReport(
            log_direct=float(log_direct),
            sign_direct=sign_direct,
            log_transfer=log_rec,
            sign_transfer=sign_rec,
            identity_residual=_ratio_residual(sign_direct, float(log_direct), sign_rec, log_rec),
            exterior_residual=_ratio_residual(sign_p, log_p, sign_m, log_m),
        ))
    return reports[0] if single else reports
