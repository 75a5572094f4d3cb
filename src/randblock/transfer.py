"""Transfer matrices, fundamental solutions, Green blocks, and the
characteristic polynomial identity.

State convention: the transfer step at site k acts on x_{k-1} = (u(k-1),
S_{k-1} u(k)) and produces x_k = (u(k), S_k u(k+1)), so

    A_k = [[0, S_{k-1}^{-1}], [-S_{k-1}^t, (V_k - E) S_{k-1}^{-1}]].

A_k satisfies A_k^t J A_k = J exactly (transpose, not adjoint), also for
complex E.  Boundary hoppings are padded with identities, S_0 = S_L = I,
so that fundamental solutions on a chain of L sites are indexed k = 0..L+1.

Long products are carried on orthonormal frames: qr_block advances a frame
through a block of steps and re-orthonormalizes it with LAPACK geqrf and
orgqr (ungqr for complex frames), returning diag R, from which callers take
log |diag R| and the phase of det R.  The Lyapunov engine and both
characteristic polynomial routes use it; the engine hands it one product
per block, folded beforehand from a stack of factors.

Green blocks come from the recursive Green's function method (Thouless and
Kirkpatrick 1981, MacKinnon and Kramer 1983), not from the fundamental
solutions, which grow exponentially in L: schur_sweep eliminates the chain
site by site, GreenEvaluator runs it forward and on the reversed chain, and
every pivot stays of the size of the resolvent itself.  Setup costs
O(L ell^3); GreenEvaluator.blocks() returns all L^2 blocks in O(L^2 ell^3)
time and O(L^2 ell^2) memory.  The fundamental solutions and their
Wronskian remain as an independent check of the recursion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np
import scipy.linalg.lapack

from .errors import NumericalFailure
from .model import BlockJacobiMatrix

OVERFLOW_LIMIT = 1e250
PIVOT_COND_LIMIT = 1e12
DEFAULT_REORTH = 10


def symplectic_form(ell: int) -> np.ndarray:
    J = np.zeros((2 * ell, 2 * ell))
    J[:ell, ell:] = np.eye(ell)
    J[ell:, :ell] = -np.eye(ell)
    return J


@dataclass
class TransferMatrix:
    """One 2ell x 2ell transfer step at a fixed (possibly complex) energy."""

    matrix: np.ndarray
    energy: complex

    @property
    def ell(self) -> int:
        return self.matrix.shape[0] // 2

    def symplectic_defect(self) -> float:
        """max |A^t J A - J|; zero in exact arithmetic for symmetric V."""
        J = symplectic_form(self.ell)
        return float(np.max(np.abs(self.matrix.T @ J @ self.matrix - J)))


def _energy(E: complex) -> complex:
    """E as a float when its imaginary part is zero, so real energies keep real arithmetic."""
    return float(np.real(E)) if np.imag(E) == 0.0 else E


def transfer_factors(V: np.ndarray, S_prev: np.ndarray, E: complex) -> np.ndarray:
    """Stack of A_k built from diagonal blocks V (m, ell, ell) and incoming hoppings S_prev.

    The result is float64 unless V, S_prev or E is complex; a complex E
    with zero imaginary part counts as real.
    """
    V = np.asarray(V)
    S_prev = np.asarray(S_prev)
    E = _energy(E)
    m, ell = V.shape[0], V.shape[-1]
    W = np.linalg.inv(S_prev)
    A = np.zeros((m, 2 * ell, 2 * ell), dtype=np.result_type(V, S_prev, E, float))
    A[:, :ell, ell:] = W
    A[:, ell:, :ell] = -np.swapaxes(S_prev, -1, -2)
    A[:, ell:, ell:] = (V - E * np.eye(ell)) @ W
    return A


def transfer_matrix(V_k: np.ndarray, S_prev: np.ndarray, E: complex) -> TransferMatrix:
    """Build A_k from the diagonal block V_k and the incoming hopping S_{k-1}."""
    A = transfer_factors(np.asarray(V_k)[None], np.asarray(S_prev)[None], E)[0]
    return TransferMatrix(matrix=A, energy=_energy(E))


def qr_block(
    X: np.ndarray,
    factors: Iterable,
    step: Callable[[Any, np.ndarray], np.ndarray] = operator.matmul,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the frame X through factors and re-orthonormalize it.

    Each factor F maps X to step(F, X), the matrix product F @ X by
    default.  With Y = Q R the reduced QR factorization of the advanced
    frame (LAPACK geqrf, then orgqr/ungqr), returns Q and diag R:
    log |diag R| carries the growth, and the product of diag R / |diag R|
    is the phase of det R.  X may be square or tall.
    """
    for F in factors:
        X = step(F, X)
    geqrf, orgqr = scipy.linalg.lapack.get_lapack_funcs(("geqrf", "orgqr"), (X,))  # ungqr if complex
    packed, tau, _, info = geqrf(X)
    if info != 0:
        raise NumericalFailure(f"QR factorization of the frame failed (geqrf info {info})")
    diag_r = packed.diagonal().copy()
    Q, _, info = orgqr(packed, tau, overwrite_a=1)
    if info != 0:
        raise NumericalFailure(f"QR factorization of the frame failed (orgqr info {info})")
    return Q, diag_r


def _padded_hopping(M: BlockJacobiMatrix) -> np.ndarray:
    """S_0..S_L with identity padding at both ends, shape (L+1, ell, ell)."""
    eye = np.eye(M.ell)
    return np.concatenate([eye[None], M.S, eye[None]]) if M.n > 1 else np.stack([eye, eye])


@dataclass
class MatrixSolution:
    """ell x ell matrix solution X(k), k = 0..L+1, of the eigenvalue recursion

        S_k X(k+1) + S_{k-1}^t X(k-1) = (V_k - z) X(k),   k = 1..L,

    together with the padded hopping sequence it was built against.
    """

    values: np.ndarray
    hopping: np.ndarray
    z: complex
    kind: str

    def __getitem__(self, k: int) -> np.ndarray:
        return self.values[k]

    @property
    def L(self) -> int:
        return self.values.shape[0] - 2

    def recursion_residual(self, M: BlockJacobiMatrix) -> float:
        """Largest entry of the recursion defect at every site, at the solution's own z."""
        worst = 0.0
        for k in range(1, self.L + 1):
            lhs = self.hopping[k] @ self.values[k + 1] + self.hopping[k - 1].T @ self.values[k - 1]
            rhs = (M.V[k - 1] - self.z * np.eye(M.ell)) @ self.values[k]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst


def fundamental_solutions(M: BlockJacobiMatrix, z: complex) -> tuple[MatrixSolution, MatrixSolution]:
    """Forward and backward fundamental solutions at spectral parameter z.

    The forward solution U has U(0) = 0, U(1) = I; the backward solution V
    has V(L) = I, V(L+1) = 0.  Overflow raises NumericalFailure: these
    unscaled solutions are meant for moderate chain lengths.
    """
    ell, L = M.ell, M.n
    S = _padded_hopping(M)
    eye = np.eye(ell)
    z = _energy(z)
    dtype = np.result_type(M.V, z)

    U = np.zeros((L + 2, ell, ell), dtype=dtype)
    U[1] = eye
    for k in range(1, L + 1):
        rhs = (M.V[k - 1] - z * eye) @ U[k] - S[k - 1].T @ U[k - 1]
        U[k + 1] = np.linalg.solve(S[k], rhs)
        if np.max(np.abs(U[k + 1])) > OVERFLOW_LIMIT:
            raise NumericalFailure(f"forward solution overflowed at site {k + 1}")

    Vs = np.zeros((L + 2, ell, ell), dtype=dtype)
    Vs[L] = eye
    for k in range(L, 0, -1):
        rhs = (M.V[k - 1] - z * eye) @ Vs[k] - S[k] @ Vs[k + 1]
        Vs[k - 1] = np.linalg.solve(S[k - 1].T, rhs)
        if np.max(np.abs(Vs[k - 1])) > OVERFLOW_LIMIT:
            raise NumericalFailure(f"backward solution overflowed at site {k - 1}")

    return (
        MatrixSolution(values=U, hopping=S, z=z, kind="forward"),
        MatrixSolution(values=Vs, hopping=S, z=z, kind="backward"),
    )


def wronskian(U: MatrixSolution, V: MatrixSolution) -> np.ndarray:
    """Stack of the constant Wronskian W(k) = V(k)^t S_k U(k+1) - (S_k V(k+1))^t U(k), k = 0..L.

    Built with transposes throughout, so constancy in k holds for complex z
    as well.  For the fundamental pair, W(0) = V(0)^t.  Shape (L+1, ell,
    ell), in one batched product.
    """
    S = U.hopping
    return (
        np.swapaxes(V.values[:-1], -1, -2) @ S @ U.values[1:]
        - np.swapaxes(S @ V.values[1:], -1, -2) @ U.values[:-1]
    )


def _inverse(P: np.ndarray) -> np.ndarray:
    """Inverse of one pivot or of a stack of pivots; an exactly singular one is a NumericalFailure."""
    try:
        return np.linalg.inv(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"exactly singular Schur pivot: {exc}") from exc


def schur_sweep(D: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward Schur complements of a block tridiagonal matrix.

    The matrix has diagonal blocks D (L, ell, ell), upper blocks B
    (L-1, ell, ell) and lower blocks B^t.  Eliminating sites 0..k-1 leaves
    the pivot P_k = D_k - B_{k-1}^t g_{k-1} B_{k-1} at site k, with
    g_k = P_k^{-1} and P_0 = D_0.  Returns the stacks P and g.  The
    backward sweep is this one on the reversed chain, with hoppings
    B[::-1] transposed.
    """
    P = np.empty_like(D)
    g = np.empty_like(D)
    P[0] = D[0]
    g[0] = _inverse(D[0])
    for k in range(1, D.shape[0]):
        P[k] = D[k] - B[k - 1].T @ g[k - 1] @ B[k - 1]
        g[k] = _inverse(P[k])
    return P, g


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
        left_piv, g = schur_sweep(D, B)
        right_piv, h = schur_sweep(D[::-1], np.swapaxes(B[::-1], -1, -2))
        right_piv, h = right_piv[::-1], h[::-1]
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


def _renormalized_bottom_minor(
    ell: int, steps: Sequence, step: Callable[[Any, np.ndarray], np.ndarray]
) -> tuple[complex, float]:
    """(phase, log|det|) of the bottom ell x ell block of the frame [0; I] after all steps.

    The frame is re-orthonormalized every DEFAULT_REORTH steps; the
    accumulated R factors carry the scale, so no entry over- or underflows.
    """
    X = np.concatenate([np.zeros((ell, ell)), np.eye(ell)])
    phase, log_abs = 1.0, 0.0
    for start in range(0, len(steps), DEFAULT_REORTH):
        X, d = qr_block(X, steps[start : start + DEFAULT_REORTH], step)
        abs_d = np.abs(d)
        phase *= np.prod(d / abs_d)
        log_abs += float(np.sum(np.log(abs_d)))
    sign, logdet = np.linalg.slogdet(X[ell:])
    if sign == 0:
        raise NumericalFailure("bottom block of the renormalized frame is singular")
    return phase * sign, log_abs + float(logdet)


def _forward_determinant(M: BlockJacobiMatrix, E: complex) -> tuple[complex, float]:
    """(phase, log|det|) of P(L+1) from the solution recursion.

    The frame [U(k-1); U(k)] starts at [0; I] and advances by solving
    S_k U(k+1) = (V_k - E) U(k) - S_{k-1}^t U(k-1).
    """
    ell = M.ell
    S = _padded_hopping(M)
    shifted = M.V - _energy(E) * np.eye(ell)

    def recurse(k: int, X: np.ndarray) -> np.ndarray:
        prev, cur = X[:ell], X[ell:]
        return np.concatenate([cur, np.linalg.solve(S[k], shifted[k - 1] @ cur - S[k - 1].T @ prev)])

    return _renormalized_bottom_minor(ell, range(1, M.n + 1), recurse)


def _transfer_minor(M: BlockJacobiMatrix, E: complex) -> tuple[complex, float]:
    """(phase, log|det|) of the bottom-right ell-minor of A_L ... A_1.

    This is the top exterior power matrix element of the full transfer
    product, accumulated independently of the solution recursion.
    """
    A = transfer_factors(M.V, _padded_hopping(M)[:-1], E)
    return _renormalized_bottom_minor(M.ell, A, operator.matmul)


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

    Two independent right-hand sides are formed: the solution recursion for
    P, and the bottom-right compound element of the explicit transfer
    product.  Both advance the frame [0; I] with QR re-orthonormalization
    every DEFAULT_REORTH steps and are compared multiplicatively, so the
    check stays sharp at chain lengths where the determinant itself
    over/underflows and for every block size ell.
    """
    dense = M.dense() - E * np.eye(M.n * M.ell)
    sign_direct, log_direct = np.linalg.slogdet(dense)
    if sign_direct == 0:
        raise NumericalFailure("E is an eigenvalue of M; identity check undefined")

    s_signs, s_logs = np.linalg.slogdet(M.S)
    sign_p, log_p = _forward_determinant(M, E)
    sign_rec = np.prod(s_signs) * sign_p
    log_rec = float(np.sum(s_logs)) + log_p

    sign_m, log_m = _transfer_minor(M, E)
    return CharpolyReport(
        log_direct=float(log_direct),
        sign_direct=sign_direct,
        log_transfer=log_rec,
        sign_transfer=sign_rec,
        identity_residual=_ratio_residual(sign_direct, float(log_direct), sign_rec, log_rec),
        exterior_residual=_ratio_residual(sign_p, log_p, sign_m, log_m),
    )
