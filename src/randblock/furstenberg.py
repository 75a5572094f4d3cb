"""Zariski closure diagnostics for the 4x4 transfer cocycle group.

Every site transfer at energy E factors exactly as A = M(Q) A_0(E) with
M(Q) = [[I, 0], [Q, I]] and A_0(E) the potential-free step, so differences of
potential values produce the shear generators M((a-b) sigma_z) inside the
group generated by the cocycle.  The Lie algebra generated by those shears
and their conjugates under powers of A_0(E) measures how large the closure
is: full sp(2) has dimension 10, and a drop below 10 signals an invariant
structure.  At E = 0 the cocycle is exactly reducible; the certificate
below exhibits the splitting in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigError
from .model import SIGMA_Z, anisotropy_block
from .transfer import symplectic_form, transfer_matrix

SYMPLECTIC_TOL = 1e-12
MEMBERSHIP_TOL = 1e-12
RANK_TOL = 1e-9
CERTIFICATE_TOL = 1e-12
# commutators below this (relative to the factors) are roundoff around an
# exact zero; normalizing them would inject spurious directions
COMMUTATOR_DISCARD = 1e-8

J4 = symplectic_form(2)
U_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
UU = scipy.linalg.block_diag(U_HADAMARD, U_HADAMARD)

# basis-free coordinates of sp(2): X = [[a, b1], [b2, -a^t]], b1 = b1^t, b2 = b2^t
_SP2_COORDS = [
    (0, 0), (0, 1), (1, 0), (1, 1),      # a
    (0, 2), (0, 3), (1, 3),              # b1 upper triangle
    (2, 0), (2, 1), (3, 1),              # b2 lower-left upper triangle
]


@dataclass
class Sp2Element:
    """A 4x4 real symplectic matrix; construction checks A^t J A = J."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        defect = self.symplectic_defect()
        scale = max(1.0, float(np.max(np.abs(self.matrix))) ** 2)
        if defect > SYMPLECTIC_TOL * scale:
            raise ConfigError(f"matrix is not symplectic, defect {defect:.3e}")

    def symplectic_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.T @ J4 @ self.matrix - J4)))

    def inv(self) -> np.ndarray:
        # J^{-1} A^t J inverts any symplectic matrix without a solve
        return -J4 @ self.matrix.T @ J4


@dataclass
class LieAlgebraElement:
    """An element of sp(2), i.e. X^t J + J X = 0."""

    matrix: np.ndarray

    def membership_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.T @ J4 + J4 @ self.matrix)))

    def coordinates(self) -> np.ndarray:
        """The 10 free entries (a block, then both symmetric blocks)."""
        return np.array([self.matrix[i, j] for i, j in _SP2_COORDS])


def build_M(Q: np.ndarray) -> Sp2Element:
    """Lower shear [[I, 0], [Q, I]]; symplectic exactly when Q is symmetric."""
    Q = np.asarray(Q, dtype=float)
    out = np.eye(4)
    out[2:, :2] = Q
    return Sp2Element(matrix=out)


def build_A0(E: float, gamma: float) -> Sp2Element:
    """Potential-free site transfer at energy E for anisotropy gamma."""
    if abs(gamma) == 1.0:
        raise ConfigError("anisotropy gamma = +-1 gives singular hopping blocks")
    A = transfer_matrix(np.zeros((2, 2)), anisotropy_block(gamma), float(E)).matrix
    return Sp2Element(matrix=A)


def site_transfer(nu: float, E: float, gamma: float) -> Sp2Element:
    """Full site step M(nu sigma_z) A_0(E); the factorization is exact."""
    A0 = build_A0(E, gamma)
    return Sp2Element(matrix=build_M(nu * SIGMA_Z).matrix @ A0.matrix)


def canceled_generator(a: float, b: float, E: float, gamma: float) -> Sp2Element:
    """The group element A_a A_b^{-1} = M((a-b) sigma_z), verified entrywise."""
    Aa = site_transfer(a, E, gamma)
    Ab = site_transfer(b, E, gamma)
    product = Aa.matrix @ Ab.inv()
    expected = build_M((a - b) * SIGMA_Z).matrix
    dev = float(np.max(np.abs(product - expected)))
    if dev > 100 * SYMPLECTIC_TOL * max(1.0, abs(E), abs(a), abs(b)) ** 2:
        raise ConfigError(f"cancellation identity violated by {dev:.3e}")
    return Sp2Element(matrix=product)


# ---------------------------------------------------------------------------
# Lie closure rank


def _closure_coordinates(E: float, gamma: float, depth: int) -> np.ndarray:
    """Coordinates of the generated Lie algebra elements, one per row.

    Seed: the shear direction [[0, 0], [sigma_z, 0]].  Growth: conjugation
    by A_0(E)^{+-1}, A_0(E)^{+-2} and pairwise commutators, all in the
    Hadamard-rotated frame where the zero-energy splitting is axis-aligned.
    Every element is checked against sp(2) membership and normalized.
    """
    A0 = build_A0(E, gamma).matrix
    A0i = build_A0(E, gamma).inv()
    conjugators = [
        UU @ A0 @ UU,
        UU @ A0i @ UU,
        UU @ A0 @ A0 @ UU,
        UU @ A0i @ A0i @ UU,
    ]
    conjugator_invs = [
        UU @ A0i @ UU,
        UU @ A0 @ UU,
        UU @ A0i @ A0i @ UU,
        UU @ A0 @ A0 @ UU,
    ]

    seed = np.zeros((4, 4))
    seed[2:, :2] = SIGMA_Z
    elements = [UU @ seed @ UU]

    def normalized(X: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(X)
        return X / norm if norm > 0 else X

    elements = [normalized(elements[0])]
    for _ in range(depth):
        fresh: list[np.ndarray] = []
        for X in elements:
            for C, Ci in zip(conjugators, conjugator_invs):
                fresh.append(normalized(C @ X @ Ci))
        for i, X in enumerate(elements):
            for Y in elements[i + 1:]:
                Z = X @ Y - Y @ X
                if np.linalg.norm(Z) > COMMUTATOR_DISCARD * np.linalg.norm(X) * np.linalg.norm(Y):
                    fresh.append(normalized(Z))
        elements = elements + fresh

    coords = []
    for X in elements:
        el = LieAlgebraElement(matrix=X)
        if el.membership_defect() > COMMUTATOR_DISCARD:
            raise ConfigError(f"closure element left sp(2), defect {el.membership_defect():.3e}")
        coords.append(el.coordinates())
    return np.array(coords)


def _pivoted_rank(coords: np.ndarray, tol: float) -> int:
    _, R, _ = scipy.linalg.qr(coords.T, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(R))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > tol * diag[0]))


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
    changes the count, the result is flagged marginal.
    """
    coords = _closure_coordinates(E, gamma, depth)
    rank = _pivoted_rank(coords, RANK_TOL)
    lo = _pivoted_rank(coords, RANK_TOL / 10.0)
    hi = _pivoted_rank(coords, RANK_TOL * 10.0)
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


def zero_energy_split_blocks(nu: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form diagonal blocks of the rotated zero-energy step.

    The first block has determinant (1-gamma)/(1+gamma), the second its
    reciprocal; for gamma > 1 both determinants are negative.
    """
    D = np.array([[0.0, 1.0 / (1.0 + gamma)], [-(1.0 - gamma), nu / (1.0 + gamma)]])
    F = np.array([[0.0, 1.0 / (1.0 - gamma)], [-(1.0 + gamma), nu / (1.0 - gamma)]])
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
    """
    if gamma <= 0.0 or gamma == 1.0:
        raise ConfigError("certificate applies to gamma in (0, 1) or (1, inf)")
    branch = "unit_determinant" if gamma < 1.0 else "negative_determinant_two_step"
    Pinv = np.linalg.inv(_P_SPLIT)
    pattern_dev = 0.0
    block_dev = 0.0
    det_dev = 0.0
    expected_det_d = (1.0 - gamma) / (1.0 + gamma)
    for nu in nu_samples:
        A = site_transfer(float(nu), 0.0, gamma).matrix
        B = Pinv @ (UU @ A @ UU) @ _P_SPLIT
        off = np.max(np.abs(B[:2, 2:])), np.max(np.abs(B[2:, :2]))
        pattern_dev = max(pattern_dev, *map(float, off))
        D_expect, F_expect = zero_energy_split_blocks(float(nu), gamma)
        block_dev = max(
            block_dev,
            float(np.max(np.abs(B[:2, :2] - D_expect))),
            float(np.max(np.abs(B[2:, 2:] - F_expect))),
        )
        det_dev = max(
            det_dev,
            float(abs(np.linalg.det(B[:2, :2]) - expected_det_d)),
            float(abs(np.linalg.det(B[2:, 2:]) - 1.0 / expected_det_d)),
        )
    scale = max(1.0, float(np.max(np.abs(nu_samples))), 1.0 / abs(1.0 - gamma)) ** 2
    passed = max(pattern_dev, block_dev) <= CERTIFICATE_TOL * scale and det_dev <= CERTIFICATE_TOL * scale * 10
    return CertificateReport(
        gamma=float(gamma),
        branch=branch,
        pattern_max_dev=pattern_dev,
        block_max_dev=block_dev,
        det_max_dev=det_dev,
        num_samples=len(list(nu_samples)),
        passed=passed,
    )
