"""Exact many-body cross-checks for the anisotropic spin chain.

Builds the spin Hamiltonian

    H = sum_j mu_j [(1+gamma_j) sx_j sx_{j+1} + (1-gamma_j) sy_j sy_{j+1}]
        + sum_j nu_j sz_j

on n qubits, the Jordan-Wigner fermions, and verifies three exact bridges
to the one-particle block matrix: H equals the fermionic quadratic form of
the two-chain layout, Heisenberg evolution of a fermion is the one-particle
evolution at doubled time, and the many-body spectrum is the set of signed
sums of the positive one-particle eigenvalues.  Everything here is dense
and exponentially sized, so chain lengths are capped; the point of the
module is exactness, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import DisorderRealization, HatBlockMatrix, ModelParams, assemble_hat_form, sample_disorder
from .parallel import parallel_map

MAX_DENSE_QUBITS = 12
HERMITICITY_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

_PAULI_BY_NAME = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def _kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def site_operator(op: np.ndarray, j: int, n: int) -> np.ndarray:
    """op acting on qubit j (0-based) of an n-qubit register."""
    if not 0 <= j < n:
        raise ConfigError(f"site {j} outside 0..{n - 1}")
    return _kron_chain([IDENTITY_2] * j + [np.asarray(op, dtype=complex)] + [IDENTITY_2] * (n - 1 - j))


@dataclass
class ManyBodyOperator:
    """A dense Hermitian operator on n qubits."""

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if dev > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(self.matrix)))):
            raise ConfigError(f"operator is not Hermitian, deviation {dev:.3e}")


def _guard_qubits(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise ConfigError(f"dense many-body computation capped at {MAX_DENSE_QUBITS} qubits, got {n}")


def build_hamiltonian(
    params: ModelParams,
    real: DisorderRealization,
    n: int | None = None,
) -> ManyBodyOperator:
    """Dense spin Hamiltonian on the first n sites of the realization."""
    n = params.n if n is None else n
    _guard_qubits(n)
    if real.nu.size < n:
        raise ConfigError(f"realization has only {real.nu.size} potential entries, need {n}")
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    for j in range(n - 1):
        mu, gamma = params.mu[j], params.gamma[j]
        sxsx = site_operator(PAULI_X, j, n) @ site_operator(PAULI_X, j + 1, n)
        sysy = site_operator(PAULI_Y, j, n) @ site_operator(PAULI_Y, j + 1, n)
        H += mu * ((1.0 + gamma) * sxsx + (1.0 - gamma) * sysy)
    for j in range(n):
        H += real.nu[j] * site_operator(PAULI_Z, j, n)
    return ManyBodyOperator(n=n, matrix=H)


@dataclass
class FermionSet:
    """Jordan-Wigner annihilation operators c_0..c_{n-1} on n qubits."""

    n: int
    c: list[np.ndarray]

    def car_defect(self) -> float:
        """Worst violation of {c_i, c_j} = 0 and {c_i, c_j^*} = delta_ij."""
        dim = 2**self.n
        eye = np.eye(dim)
        worst = 0.0
        for i in range(self.n):
            for j in range(i, self.n):
                anti = self.c[i] @ self.c[j] + self.c[j] @ self.c[i]
                worst = max(worst, float(np.max(np.abs(anti))))
                mixed = self.c[i] @ self.c[j].conj().T + self.c[j].conj().T @ self.c[i]
                target = eye if i == j else 0.0
                worst = max(worst, float(np.max(np.abs(mixed - target))))
        return worst


def build_jordan_wigner(n: int) -> FermionSet:
    """c_j = (prod_{i<j} sz_i) x lowering_j, the standard string construction."""
    _guard_qubits(n)
    ops = [
        _kron_chain([PAULI_Z] * j + [LOWERING] + [IDENTITY_2] * (n - 1 - j))
        for j in range(n)
    ]
    return FermionSet(n=n, c=ops)


# ---------------------------------------------------------------------------
# quadratic form bridge


def _quadratic_form(fermions: FermionSet, Mhat: np.ndarray) -> np.ndarray:
    """C^* Mhat C with C = (c_0..c_{n-1}, c_0^*..c_{n-1}^*) stacked."""
    n = fermions.n
    modes = fermions.c + [c.conj().T for c in fermions.c]
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(2 * n):
        left = modes[a].conj().T
        for b in range(2 * n):
            w = Mhat[a, b]
            if w != 0.0:
                out += w * (left @ modes[b])
    return out


@dataclass
class QuadraticFormReport:
    scale: float
    shift_per_site: float
    residual: float
    matched: bool


def verify_quadratic_form(
    H: ManyBodyOperator,
    Mhat: HatBlockMatrix,
    tol: float = 1e-10,
) -> QuadraticFormReport:
    """Find scale s and per-site shift with H = s C^* Mhat C + shift.

    Candidate scales are scanned; the shift is read off the trace, and the
    winning convention is the one with the smallest entrywise residual.
    """
    n = H.n
    fermions = build_jordan_wigner(n)
    Hq = _quadratic_form(fermions, Mhat.dense())
    dim = 2**n
    scale_ref = max(1.0, float(np.max(np.abs(H.matrix))))
    best: QuadraticFormReport | None = None
    for s in (1.0, 2.0, 0.5, 4.0, 0.25):
        shift_total = float(np.real(np.trace(H.matrix - s * Hq))) / dim
        residual = float(np.max(np.abs(H.matrix - s * Hq - shift_total * np.eye(dim))))
        if best is None or residual < best.residual:
            best = QuadraticFormReport(
                scale=s,
                shift_per_site=shift_total / n,
                residual=residual,
                matched=residual <= tol * scale_ref,
            )
    assert best is not None
    return best


def free_fermion_spectrum(Mhat: HatBlockMatrix) -> np.ndarray:
    """Sorted many-body spectrum {sum_i e_i lambda_i, e_i = +-1} of the bridge.

    lambda_i are the n nonnegative eigenvalues of the two-chain matrix,
    whose spectrum is symmetric; exponential in n, so capped like the other
    dense routines.
    """
    n = Mhat.n
    _guard_qubits(n)
    vals = np.linalg.eigvalsh(Mhat.dense())
    positive = vals[n:]
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")).reshape(n, -1)
    return np.sort(positive @ signs)


def verify_free_fermion_spectrum(H: ManyBodyOperator, Mhat: HatBlockMatrix) -> float:
    """Max deviation between the dense spectrum and the signed-sum spectrum."""
    dense = np.linalg.eigvalsh(H.matrix)
    return float(np.max(np.abs(dense - free_fermion_spectrum(Mhat))))


# ---------------------------------------------------------------------------
# Heisenberg evolution bridge


@dataclass
class HeisenbergReport:
    t_values: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0


def verify_heisenberg_identity(
    params: ModelParams,
    real: DisorderRealization,
    n: int,
    t_list: Sequence[float],
) -> HeisenbergReport:
    """Check tau_t(c_j) = sum_k T_{jk} c_k + T_{j,n+k} c_k^* with T = exp(-2it Mhat).

    The left side conjugates by the dense many-body propagator, the right
    side only exponentiates the 2n x 2n one-particle matrix; the doubled
    time is part of the identity.
    """
    _guard_qubits(n)
    sliced_params, sliced_real = slice_chain(params, real, n)
    H = build_hamiltonian(sliced_params, sliced_real, n)
    Mhat = assemble_hat_form(sliced_params, sliced_real)
    fermions = build_jordan_wigner(n)
    vals, vecs = np.linalg.eigh(H.matrix)
    t_values = np.asarray(list(t_list), dtype=float)
    one_particle = _one_particle_rows(Mhat.dense(), t_values, n)
    residuals = []
    for t, T in zip(t_values, one_particle):
        phases = np.exp(1j * vals * t)
        U = (vecs * phases) @ vecs.conj().T
        worst = 0.0
        for j in range(n):
            lhs = U @ fermions.c[j] @ U.conj().T
            rhs = np.zeros_like(lhs)
            for k in range(n):
                rhs += T[j, k] * fermions.c[k] + T[j, n + k] * fermions.c[k].conj().T
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        residuals.append(worst)
    return HeisenbergReport(t_values=t_values, residuals=np.asarray(residuals))


def slice_chain(params: ModelParams, real: DisorderRealization, n: int):
    """Restrict a (params, realization) pair to its first n sites."""
    if n == params.n:
        return params, real
    sliced = ModelParams(n=n, mu=params.mu[: n - 1].copy(), gamma=params.gamma[: n - 1].copy(), rho=params.rho)
    return sliced, DisorderRealization(seed=real.seed, index=real.index, nu=real.nu[:n].copy())


# ---------------------------------------------------------------------------
# commutator growth statistics


def _one_particle_rows(Mhat: np.ndarray, t_values: np.ndarray, rows: int) -> np.ndarray:
    """First rows of T(t) = exp(-2it Mhat) for every t, shape (len(t), rows, 2n).

    One eigendecomposition of the real symmetric Mhat serves every time.
    """
    vals, vecs = np.linalg.eigh(Mhat)
    phases = np.exp(-2j * np.outer(t_values, vals))
    return (phases[:, None, :] * vecs[:rows]) @ vecs.T


def _fermionic_sup_commutator(Mhat: np.ndarray, n: int, ks: Sequence[int], t_grid: np.ndarray) -> np.ndarray:
    """sup over the grid of |[tau_t(sx_0), sx_k]| via the Majorana weights, for each k.

    tau_t(sx_0) expands exactly over the two Majorana families with real
    weights w_m, w_mm read off the first row of exp(-2it Mhat); the
    commutator norm is twice the euclidean length of the weights that fail
    to commute with sx_k (both families strictly right of k, plus the
    second family at k itself).
    """
    row = _one_particle_rows(Mhat, np.asarray(t_grid, dtype=float), 1)[:, 0]
    alpha, beta = row[:, :n], row[:, n:]
    w_m = np.real(alpha) + np.real(beta)
    w_mm = np.imag(beta) - np.imag(alpha)
    # tails[:, k] = sum over j > k of w_m[j]^2 + w_mm[j]^2, summed from the far end
    weights = w_m**2 + w_mm**2
    tails = np.zeros_like(weights)
    tails[:, :-1] = np.cumsum(weights[:, :0:-1], axis=1)[:, ::-1]
    ks = np.asarray(ks, dtype=int)
    return 2.0 * np.sqrt(w_mm[:, ks] ** 2 + tails[:, ks]).max(axis=0)


def _dense_sup_commutator(
    H: ManyBodyOperator,
    A: np.ndarray,
    B: np.ndarray,
    t_grid: np.ndarray,
) -> float:
    vals, vecs = np.linalg.eigh(H.matrix)
    A_eig = vecs.conj().T @ A @ vecs
    B_mat = B
    best = 0.0
    for t in t_grid:
        phases = np.exp(1j * vals * float(t))
        At_eig = (phases[:, None] * A_eig) * phases.conj()[None, :]
        At = vecs @ At_eig @ vecs.conj().T
        comm = At @ B_mat - B_mat @ At
        best = max(best, float(np.linalg.norm(comm, 2)))
    return best


@dataclass
class LRStat:
    separation: int
    mean_sup: float
    se: float
    num_realizations: int


def lr_commutator_stats(
    params: ModelParams,
    n: int,
    j: int,
    ks: Sequence[int],
    t_grid: np.ndarray | None = None,
    num_realizations: int = 50,
    seed: int = 0,
    observables: tuple[str, str] = ("x", "x"),
    method: str = "auto",
    threads: int | None = None,
) -> list[LRStat]:
    """Disorder statistics of sup_t |[tau_t(A_j), B_k]| versus separation.

    A and B are single-site Paulis named by observables.  The exact
    fermionic route handles A = sx on the first site; anything else falls
    back to dense conjugation, which caps n.  The sup is taken over the
    documented time grid, default 400 points on [0, 10].
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, 10.0, 400)
    ks = [int(k) for k in ks]
    if any(not j < k < n for k in ks):
        raise ConfigError(f"need j < k < n, got j={j}, ks={ks}")
    use_fermionic = method == "fermionic" or (
        method == "auto" and j == 0 and tuple(observables) == ("x", "x")
    )
    if method == "fermionic" and (j != 0 or tuple(observables) != ("x", "x")):
        raise ConfigError("the fermionic route computes sx on site 0 against sx only")
    if method not in ("auto", "fermionic", "dense"):
        raise ConfigError(f"unknown method {method!r}")

    def one(index: int) -> np.ndarray:
        real = sample_disorder(params, seed, index)
        sliced_params, sliced_real = slice_chain(params, real, n)
        if use_fermionic:
            Mhat = assemble_hat_form(sliced_params, sliced_real).dense()
            return _fermionic_sup_commutator(Mhat, n, ks, t_grid)
        _guard_qubits(n)
        H = build_hamiltonian(sliced_params, sliced_real, n)
        A = site_operator(_PAULI_BY_NAME[observables[0]], j, n)
        sups = []
        for k in ks:
            B = site_operator(_PAULI_BY_NAME[observables[1]], k, n)
            sups.append(_dense_sup_commutator(H, A, B, t_grid))
        return np.array(sups)

    rows = np.stack(parallel_map(one, range(num_realizations), threads=threads))
    out = []
    for col, k in enumerate(ks):
        vals = rows[:, col]
        se = float(vals.std(ddof=1) / np.sqrt(num_realizations)) if num_realizations > 1 else 0.0
        out.append(
            LRStat(separation=k - j, mean_sup=float(vals.mean()), se=se, num_realizations=num_realizations)
        )
    return out
