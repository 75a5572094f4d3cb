"""Zariski closure diagnostics for the 4x4 transfer cocycle group.

Every site transfer at energy E factors exactly as A = M(Q) A_0(E) with
M(Q) = [[I, 0], [Q, I]] and A_0(E) the potential-free step, so differences of
potential values produce the shear generators M((a-b) sigma_z) inside the
group generated by the cocycle.  The Lie algebra generated by those shears
and their conjugates under powers of A_0(E) measures how large the closure
is: full sp(2) has dimension 10, and a drop below 10 signals an invariant
structure.  At E = 0 the cocycle is exactly reducible; the certificate
below exhibits the splitting in closed form.

Both diagnostics work on (m, 4, 4) stacks: the closure grows one depth at a
time with a few stacked products per depth, and the certificate treats every
potential sample in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericalFailure
from .model import SIGMA_Z, anisotropy_block, check_gamma
from .transfer import symplectic_defect, symplectic_form, transfer_matrix

SYMPLECTIC_TOL = 1e-12
RANK_TOL = 1e-9
CERTIFICATE_TOL = 1e-12
# commutators below this (relative to the factors) are roundoff around an
# exact zero; normalizing them would inject spurious directions
COMMUTATOR_DISCARD = 1e-8
MAX_CLOSURE_DEPTH = 4

J4 = symplectic_form(2)
U_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
UU = scipy.linalg.block_diag(U_HADAMARD, U_HADAMARD)

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


def _normalized(stack: np.ndarray) -> np.ndarray:
    """Each matrix over its Frobenius norm; exact zeros stay zero."""
    norms = np.linalg.norm(stack, axis=(1, 2))
    return stack / np.where(norms > 0, norms, 1.0)[:, None, None]


def _closure_coordinates(E: float, gamma: float, depth: int) -> np.ndarray:
    """Coordinates of the generated Lie algebra elements, one per row.

    Everything lives in the Hadamard-rotated frame, where the zero-energy
    splitting is axis-aligned.  Seed: the shear direction [[0, 0],
    [sigma_z, 0]].  Each depth appends, to the stack X_1..X_n grown so far,
    two stacked blocks:

    - the conjugates C X_i C^{-1} by A_0(E)^{+-1} and A_0(E)^{+-2}, element-
      major and conjugator-minor;
    - the commutators [X_i, X_j], i < j in row-major order, that pass the
      COMMUTATOR_DISCARD test relative to |X_i| |X_j|.

    Every new element is normalized.  The grown stack is checked against
    sp(2) membership in one pass, and its coordinates are read with one
    fancy index.
    """
    step = build_A0(E, gamma)
    A0, A0i = step.matrix, step.inv()
    # at a large |E| the conjugators overflow; that shows as non-finite elements, which
    # the check below reports as a NumericalFailure, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        conjugators = np.stack([
            UU @ A0 @ UU,
            UU @ A0i @ UU,
            UU @ A0 @ A0 @ UU,
            UU @ A0i @ A0i @ UU,
        ])
        # the inverse of each conjugator is its neighbour in the pair
        conjugator_invs = conjugators[[1, 0, 3, 2]]

        seed = np.zeros((1, 4, 4))
        seed[0, 2:, :2] = SIGMA_Z
        elements = _normalized(UU @ seed @ UU)
        for _ in range(depth):
            conjugates = (conjugators[None] @ elements[:, None] @ conjugator_invs[None]).reshape(-1, 4, 4)
            norms = np.linalg.norm(elements, axis=(1, 2))
            i, j = np.triu_indices(len(elements), 1)
            X, Y = elements[i], elements[j]
            Z = X @ Y - Y @ X
            Z = Z[np.linalg.norm(Z, axis=(1, 2)) > COMMUTATOR_DISCARD * norms[i] * norms[j]]
            elements = np.concatenate([elements, _normalized(conjugates), _normalized(Z)])

        defect = np.abs(np.swapaxes(elements, 1, 2) @ J4 + J4 @ elements).max()
    if not (np.all(np.isfinite(elements)) and defect <= COMMUTATOR_DISCARD):
        raise NumericalFailure(f"closure elements are not finite or left sp(2), defect {defect:.3e}")
    return elements[:, _SP2_COORDS[0], _SP2_COORDS[1]]


@dataclass
class ClosureResult:
    E: float
    gamma: float
    dimension: int
    marginal: bool
    num_elements: int

    @property
    def deficient(self) -> bool:
        return self.dimension < 10


def lie_closure_dimension(E: float, gamma: float, depth: int = 3) -> ClosureResult:
    """Dimension of the Lie algebra generated by the canceled shears.

    The rank is the number of pivoted-QR diagonal entries above RANK_TOL
    relative to the largest; if moving the threshold one decade either way
    changes the count, the result is flagged marginal.  One factorization
    serves all three thresholds.  The element count squares with every
    depth (740 at depth 3, 271,235 at depth 4, about 3.7e10 at depth 5), so
    a depth outside 0..MAX_CLOSURE_DEPTH is a ConfigError, raised before any
    element is built.
    """
    if not 0 <= depth <= MAX_CLOSURE_DEPTH:
        raise ConfigError(f"closure depth must lie in 0..{MAX_CLOSURE_DEPTH}, got {depth}")
    coords = _closure_coordinates(E, gamma, depth)
    _, R, _ = scipy.linalg.qr(coords.T, mode="economic", pivoting=True)
    # column pivoting puts the largest |R_kk| first; an all-zero diagonal has rank 0
    diag = np.abs(np.diagonal(R))
    lo, rank, hi = (
        int(np.count_nonzero(diag > tol * diag[0])) for tol in (RANK_TOL / 10.0, RANK_TOL, RANK_TOL * 10.0)
    )
    return ClosureResult(
        E=float(E),
        gamma=float(gamma),
        dimension=rank,
        marginal=not (lo == rank == hi),
        num_elements=coords.shape[0],
    )


def energy_sweep_rank(gamma: float, E_grid: Sequence[float], depth: int = 3) -> list[ClosureResult]:
    return [lie_closure_dimension(E, gamma, depth=depth) for E in E_grid]


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
