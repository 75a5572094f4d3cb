"""Zariski closure diagnostics for the 4x4 transfer cocycle group.

Every site transfer at energy E factors exactly as A = M(Q) A_0(E) with
M(Q) = [[I, 0], [Q, I]] and A_0(E) the potential-free step, so differences of
potential values produce the shear generators M((a-b) sigma_z) inside the
group generated by the cocycle.  The Lie algebra generated by those shears
and their conjugates under A_0(E)^{+-1} measures how large the closure is:
full sp(2) has dimension 10, and a drop below 10 signals an invariant
structure (Gol'dsheid-Margulis 1989 ask for the full algebra).  At E = 0 the
cocycle is exactly reducible; the certificate below exhibits the splitting
in closed form.

The closure is computed as a fixed point: an orthonormal basis of at most
10 vectors in the coordinates of sp(2) grows by the conjugates and
commutators of its elements until a round adds nothing; its pivoted QR is
scipy's, imported on the first closure, so the certificate and the rest of
the package load without scipy.  The certificate treats every potential
sample in one (m, 4, 4) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import SIGMA_Z, anisotropy_block, check_gamma
from .transfer import symplectic_defect, symplectic_form, transfer_matrix

SYMPLECTIC_TOL = 1e-12
RANK_TOL = 1e-9
CERTIFICATE_TOL = 1e-12

J4 = symplectic_form(2)
U_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# block_diag(U_HADAMARD, U_HADAMARD) bit for bit; np.kron(np.eye(2), U_HADAMARD) would put -0.0 off the blocks
UU = np.zeros((4, 4))
UU[:2, :2] = UU[2:, 2:] = U_HADAMARD

# basis-free coordinates of sp(2): X = [[a, b1], [b2, -a^t]], b1 = b1^t, b2 = b2^t;
# (rows, columns) of the 10 free entries
_SP2_COORDS = tuple(np.array([
    (0, 0), (0, 1), (1, 0), (1, 1),      # a
    (0, 2), (0, 3), (1, 3),              # b1 upper triangle
    (2, 0), (2, 1), (3, 1),              # b2 lower-left upper triangle
]).T)


def _require_symplectic(A: np.ndarray) -> None:
    """Raise unless every matrix of the stack is symplectic to SYMPLECTIC_TOL max(1, max |A|)^2.

    The test is written so that a NaN defect fails it; an overflow in it
    shows as an infinite bound or a NaN defect, not as warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = symplectic_defect(A)
        failed = ~(defect <= SYMPLECTIC_TOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1))) ** 2)
    if np.any(failed):
        raise ConfigError(f"matrix is not symplectic, defect {np.max(defect, where=failed, initial=0.0):.3e}")


@dataclass
class Sp2Element:
    """A 4x4 real symplectic matrix; construction checks A^t J A = J."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        _require_symplectic(self.matrix)

    def inv(self) -> np.ndarray:
        # J^{-1} A^t J inverts any symplectic matrix without a solve
        return -J4 @ self.matrix.T @ J4


def build_M(Q: np.ndarray) -> Sp2Element:
    """Lower shear [[I, 0], [Q, I]]; symplectic exactly when Q is symmetric."""
    Q = np.asarray(Q, dtype=float)
    out = np.eye(4)
    out[2:, :2] = Q
    return Sp2Element(matrix=out)


def build_A0(E: float, gamma: float) -> Sp2Element:
    """Potential-free site transfer at energy E for anisotropy gamma."""
    if not np.isfinite(E):
        raise ConfigError(f"energy E must be finite, got {E!r}")
    check_gamma(gamma)
    A = transfer_matrix(np.zeros((2, 2)), anisotropy_block(gamma), float(E))
    return Sp2Element(matrix=A)


def site_transfer(nu: float, E: float, gamma: float) -> Sp2Element:
    """Full site step M(nu sigma_z) A_0(E); the factorization is exact."""
    A0 = build_A0(E, gamma)
    return Sp2Element(matrix=build_M(nu * SIGMA_Z).matrix @ A0.matrix)


# ---------------------------------------------------------------------------
# Lie closure rank


@dataclass
class ClosureResult:
    """Closure rank at one energy; `basis` holds its (dimension, 10) orthonormal sp(2) coordinates."""

    E: float
    gamma: float
    dimension: int
    marginal: bool
    num_elements: int
    smallest_pivot: float
    largest_rejected: float
    basis: np.ndarray

    @property
    def deficient(self) -> bool:
        return self.dimension < 10


def lie_closure_dimension(E: float, gamma: float) -> ClosureResult:
    """Dimension of the Lie algebra generated by the canceled shears.

    A fixed point in the 10 coordinates of sp(2), in the Hadamard-rotated
    frame: an orthonormal basis starts from the shear direction [[0, 0],
    [sigma_z, 0]].  Each round rebuilds it as exact sp(2) matrices, takes
    their conjugates by A_0(E)^{+-1} and pairwise commutators, normalizes
    those, projects them off the span twice and adds the residuals whose
    pivoted-QR diagonal exceeds RANK_TOL, until a round adds nothing or the
    basis holds 10.  `num_elements` counts the candidates examined, the seed
    included.  The result is marginal when an accepted pivot is at most
    10 RANK_TOL or the last round rejects one above RANK_TOL / 10.  Rounding
    in a conjugate grows like eps cond_1(A_0(E)); once that reaches 1,
    NumericalFailure is raised.
    """
    import scipy.linalg  # here, so the routes that need no scipy start without it

    step = build_A0(E, gamma)
    # at a large |E| the norms overflow to inf, which the guard reports
    with np.errstate(over="ignore"):
        C, Ci = UU @ step.matrix @ UU, UU @ step.inv() @ UU
        rounding = np.finfo(float).eps * np.linalg.norm(C, 1) * np.linalg.norm(Ci, 1)
    if not rounding < 1.0:
        raise NumericalFailure(f"conjugates by A_0(E) cannot be resolved in sp(2): eps cond_1 = {rounding:.3e}")
    seed = np.zeros((4, 4))
    seed[2:, :2] = SIGMA_Z
    x = (UU @ seed @ UU)[_SP2_COORDS]
    basis = (x / np.linalg.norm(x))[None]
    # the seed is the first candidate examined
    smallest, examined = 1.0, 1
    while len(basis) < 10:
        # the basis as exact sp(2) matrices [[a, b1], [b2, -a^t]]
        X = np.zeros((len(basis), 4, 4))
        X[:, _SP2_COORDS[0], _SP2_COORDS[1]] = basis
        X[:, 2:, 2:] = -np.swapaxes(X[:, :2, :2], 1, 2)
        X[:, 1, 2], X[:, 3, 0] = X[:, 0, 3], X[:, 2, 1]
        i, j = np.triu_indices(len(X), 1)
        candidates = np.concatenate([C @ X @ Ci, Ci @ X @ C, X[i] @ X[j] - X[j] @ X[i]])
        candidates = candidates[:, _SP2_COORDS[0], _SP2_COORDS[1]]
        examined += len(candidates)
        norms = np.linalg.norm(candidates, axis=1)
        residuals = candidates[norms > 0] / norms[norms > 0, None]
        for _ in range(2):
            residuals -= (residuals @ basis.T) @ basis
        Q, R, _ = scipy.linalg.qr(residuals.T, mode="economic", pivoting=True)
        # column pivoting keeps the diagonal non-increasing, so the accepted pivots lead
        pivots = np.abs(np.diagonal(R))
        added = min(int(np.count_nonzero(pivots > RANK_TOL)), 10 - len(basis))
        # every earlier candidate comes back in the last round, so its rejections are the ones that count
        largest_rejected = float(pivots[added:].max(initial=0.0))
        if added == 0:
            break
        smallest = min(smallest, float(pivots[added - 1]))
        basis = np.concatenate([basis, Q[:, :added].T])
    return ClosureResult(
        E=float(E),
        gamma=float(gamma),
        dimension=len(basis),
        marginal=smallest <= 10.0 * RANK_TOL or largest_rejected > RANK_TOL / 10.0,
        num_elements=examined,
        smallest_pivot=smallest,
        largest_rejected=largest_rejected,
        basis=basis,
    )


# ---------------------------------------------------------------------------
# zero-energy reducibility


def zero_energy_split_blocks(nu, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form diagonal blocks of the rotated zero-energy step.

    The first block has determinant (1-gamma)/(1+gamma), the second its
    reciprocal; for gamma > 1 both determinants are negative.  An array of
    potential values gives stacks of shape nu.shape + (2, 2).
    """
    nu = np.asarray(nu, dtype=float)
    D = np.zeros(nu.shape + (2, 2))
    F = np.zeros(nu.shape + (2, 2))
    D[..., 0, 1], D[..., 1, 0], D[..., 1, 1] = 1.0 / (1.0 + gamma), -(1.0 - gamma), nu / (1.0 + gamma)
    F[..., 0, 1], F[..., 1, 0], F[..., 1, 1] = 1.0 / (1.0 - gamma), -(1.0 + gamma), nu / (1.0 - gamma)
    return D, F


# rows of the permutation aligning the rotated frame with the split basis
_P_SPLIT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


@dataclass
class CertificateReport:
    gamma: float
    branch: str
    pattern_max_dev: float
    block_max_dev: float
    det_max_dev: float
    num_samples: int
    passed: bool


def zero_energy_reducibility_certificate(gamma: float, nu_samples: Sequence[float]) -> CertificateReport:
    """Exhibit the invariant splitting of the zero-energy cocycle.

    For every sampled potential value the rotated step P^{-1} (UU A UU) P
    must be exactly block diagonal with the closed-form 2x2 blocks; their
    determinants multiply to 1 pairwise, which is what makes the closure
    at zero energy strictly smaller than sp(2).  Deviations are judged
    against CERTIFICATE_TOL times max(1, max |nu|, 1 / |1 - gamma|)^2.
    All samples form one (m, 4, 4) stack of steps M(nu sigma_z) A_0(0), each
    checked for symplecticity to the Sp2Element bound.
    """
    if gamma <= 0.0 or gamma == 1.0:
        raise ConfigError("certificate applies to gamma in (0, 1) or (1, inf)")
    nu = np.asarray(nu_samples, dtype=float)
    if nu.ndim != 1 or nu.size == 0 or not np.all(np.isfinite(nu)):
        raise ConfigError("certificate needs a non-empty list of finite potential samples")
    branch = "unit_determinant" if gamma < 1.0 else "negative_determinant_two_step"
    Pinv = np.linalg.inv(_P_SPLIT)
    M = np.tile(np.eye(4), (nu.size, 1, 1))
    M[:, 2:, :2] = nu[:, None, None] * SIGMA_Z
    A = M @ build_A0(0.0, gamma).matrix
    _require_symplectic(A)
    B = Pinv @ (UU @ A @ UU) @ _P_SPLIT
    D_expect, F_expect = zero_energy_split_blocks(nu, gamma)
    expected_det_d = (1.0 - gamma) / (1.0 + gamma)
    pattern_dev = float(max(np.abs(B[:, :2, 2:]).max(), np.abs(B[:, 2:, :2]).max()))
    block_dev = float(max(np.abs(B[:, :2, :2] - D_expect).max(), np.abs(B[:, 2:, 2:] - F_expect).max()))
    det_dev = float(max(
        np.abs(np.linalg.det(B[:, :2, :2]) - expected_det_d).max(),
        np.abs(np.linalg.det(B[:, 2:, 2:]) - 1.0 / expected_det_d).max(),
    ))
    scale = max(1.0, float(np.max(np.abs(nu))), 1.0 / abs(1.0 - gamma)) ** 2
    passed = max(pattern_dev, block_dev) <= CERTIFICATE_TOL * scale and det_dev <= CERTIFICATE_TOL * scale * 10
    return CertificateReport(
        gamma=float(gamma),
        branch=branch,
        pattern_max_dev=pattern_dev,
        block_max_dev=block_dev,
        det_max_dev=det_dev,
        num_samples=nu.size,
        passed=passed,
    )
