"""Exact many-body cross-checks for the anisotropic spin chain.

Builds the spin Hamiltonian

    H = sum_j mu [(1+gamma) sx_j sx_{j+1} + (1-gamma) sy_j sy_{j+1}]
        + sum_j nu_j sz_j

on n qubits, the Jordan-Wigner fermions, and verifies three exact bridges
to the one-particle block matrix: H equals the fermionic quadratic form of
the two-chain layout, Heisenberg evolution of a fermion is the one-particle
evolution at doubled time, and the many-body spectrum is the set of signed
sums of the positive one-particle eigenvalues.

The operators are dense 2^n x 2^n matrices, written entry by entry from the
bits of the basis index: qubit j is bit n - 1 - j, the kron order, so
setting it moves the index by 2^(n-1-j).  Every Jordan-Wigner operator c_j
is a signed permutation, with one +-1 entry in each column whose qubit j
is 0 and none elsewhere, so the bridges multiply fermions as maps of basis
indices and never as dense matrices; the only dense products are those
with the many-body propagator.  The sizes are exponential in n, so chain
lengths are capped; the point of the module is exactness, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import DisorderRealization, HatBlockMatrix, ModelParams, assemble_hat_form, sample_disorder

MAX_DENSE_QUBITS = 12
HERMITICITY_TOL = 1e-12
QUADRATIC_FORM_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

_PAULI_BY_NAME = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def _qubits(n: int) -> np.ndarray:
    """q[j, s], the value 0 or 1 of qubit j in basis state s, shape (n, 2^n)."""
    return np.indices((2,) * n).reshape(n, -1)


def site_operator(op: np.ndarray, j: int, n: int) -> np.ndarray:
    """op acting on qubit j (0-based) of an n-qubit register.

    Column s holds op[a, b] at the row of s with qubit j set to a, where b
    is the value of qubit j in s.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ConfigError(f"site operator must be 2 x 2, got shape {op.shape}")
    if not 0 <= j < n:
        raise ConfigError(f"site {j} outside 0..{n - 1}")
    q = _qubits(n)[j]
    s = np.arange(q.size)
    out = np.zeros((s.size, s.size), dtype=complex)
    for a in (0, 1):
        out[s + (a - q) * 2 ** (n - 1 - j), s] = op[a, q]
    return out


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
    """Dense spin Hamiltonian on the first n sites of the realization.

    sx_j sx_{j+1} and sy_j sy_{j+1} both flip qubits j and j+1, with signs 1
    and -z_j z_{j+1}; sz_j is diagonal.
    """
    n = params.n if n is None else n
    _guard_qubits(n)
    if real.nu.size < n:
        raise ConfigError(f"realization has only {real.nu.size} potential entries, need {n}")
    q = _qubits(n)
    flips = [(1 - 2 * q[j]) * 2 ** (n - 1 - j) for j in range(n)]  # the index change of flipping qubit j
    z = np.array([1.0, -1.0])[q]  # the sz eigenvalues
    s = np.arange(2**n)
    H = np.zeros((s.size, s.size), dtype=complex)
    mu, gamma = params.mu, params.gamma
    for j in range(n - 1):
        H[s + flips[j] + flips[j + 1], s] = mu * ((1.0 + gamma) - (1.0 - gamma) * (z[j] * z[j + 1]))
    field = np.zeros(s.size)
    for j in range(n):
        field += real.nu[j] * z[j]
    H[s, s] = field
    return ManyBodyOperator(n=n, matrix=H)


# ---------------------------------------------------------------------------
# signed permutations: a matrix with at most one nonzero entry in each row and
# each column, held as the (row, value) of each column, value 0 in an empty one


def _columns(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (row, value) columns of a dense signed permutation; ConfigError for any other matrix."""
    nonzero = c != 0
    count = np.count_nonzero(nonzero)
    if count != np.count_nonzero(nonzero.any(axis=0)) or count != np.count_nonzero(nonzero.any(axis=1)):
        raise ConfigError("operator is not a signed permutation: a row or column has two nonzero entries")
    rows = np.argmax(nonzero, axis=0)
    return rows, c[rows, np.arange(c.shape[1])]


def _modes(c: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The columns of c_0..c_{n-1} followed by those of c_0^*..c_{n-1}^*."""
    modes = [_columns(m) for m in c]
    for rows, vals in modes[: len(c)]:
        cols = np.flatnonzero(vals)
        adj_rows, adj_vals = np.zeros_like(rows), np.zeros_like(vals)
        adj_rows[rows[cols]] = cols
        adj_vals[rows[cols]] = vals[cols].conj()
        modes.append((adj_rows, adj_vals))
    return modes


def _compose(left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]):
    """The columns of left @ right."""
    return left[0][right[0]], left[1][right[0]] * right[1]


def _max_entry(terms: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest |entry| of a sum of signed permutations; an empty column adds its 0 wherever it points."""
    rows = np.stack([r for r, _ in terms])
    vals = np.stack([v for _, v in terms])
    totals = ((rows[:, None] == rows[None, :]) * vals[None, :]).sum(axis=1)
    return float(np.max(np.abs(totals)))


@dataclass
class FermionSet:
    """Jordan-Wigner annihilation operators c_0..c_{n-1} on n qubits."""

    n: int
    c: list[np.ndarray]

    def car_defect(self) -> float:
        """Worst violation of {c_i, c_j} = 0 and {c_i, c_j^*} = delta_ij.

        Every c_j must be a signed permutation, as every Jordan-Wigner
        string is; any other matrix raises ConfigError.
        """
        modes = _modes(self.c)
        cols, adj = modes[: self.n], modes[self.n :]
        minus_eye = (np.arange(2**self.n), -np.ones(2**self.n, dtype=complex))
        worst = 0.0
        for i in range(self.n):
            for j in range(i, self.n):
                worst = max(worst, _max_entry([_compose(cols[i], cols[j]), _compose(cols[j], cols[i])]))
                mixed = [_compose(cols[i], adj[j]), _compose(adj[j], cols[i])]
                worst = max(worst, _max_entry(mixed + [minus_eye] if i == j else mixed))
        return worst


def build_jordan_wigner(n: int) -> FermionSet:
    """c_j = (prod_{i<j} sz_i) x lowering_j, the standard string construction.

    c_j sends each basis state s with qubit j at 0 to s with qubit j at 1,
    with the sign (-1)^(number of qubits before j that are 1 in s).
    """
    _guard_qubits(n)
    q = _qubits(n)
    strings = np.cumprod(np.array([1.0, -1.0])[q], axis=0)  # strings[j] = prod_{i<=j} sz_i
    ops = []
    for j in range(n):
        free = np.flatnonzero(q[j] == 0)
        c = np.zeros((q.shape[1], q.shape[1]), dtype=complex)
        c[free + 2 ** (n - 1 - j), free] = strings[j - 1, free] if j else 1.0
        ops.append(c)
    return FermionSet(n=n, c=ops)


# ---------------------------------------------------------------------------
# quadratic form bridge


def _quadratic_form(fermions: FermionSet, Mhat: np.ndarray) -> np.ndarray:
    """C^* Mhat C with C = (c_0..c_{n-1}, c_0^*..c_{n-1}^*) stacked.

    Each term Mhat[a, b] C_a^* C_b is a signed permutation, added into the
    dense result at its nonzero entries.
    """
    n = fermions.n
    modes = _modes(fermions.c)
    modes_adj = modes[n:] + modes[:n]
    s = np.arange(2**n)
    out = np.zeros((s.size, s.size), dtype=complex)
    for a in range(2 * n):
        for b in range(2 * n):
            w = Mhat[a, b]
            if w != 0.0:
                rows, vals = _compose(modes_adj[a], modes[b])
                hit = vals != 0
                out[rows[hit], s[hit]] += w * vals[hit]
    return out


@dataclass
class QuadraticFormReport:
    scale: float
    shift_per_site: float
    residual: float
    matched: bool


def verify_quadratic_form(H: ManyBodyOperator, Mhat: HatBlockMatrix) -> QuadraticFormReport:
    """Check H = C^* Mhat C + shift, with the per-site shift read off the trace.

    The convention has scale 1: it matches when the entrywise residual is
    within QUADRATIC_FORM_TOL of the scale of H.
    """
    n = H.n
    Hq = _quadratic_form(build_jordan_wigner(n), Mhat.dense())
    dim = 2**n
    shift_total = float(np.real(np.trace(H.matrix - Hq))) / dim
    residual = float(np.max(np.abs(H.matrix - Hq - shift_total * np.eye(dim))))
    return QuadraticFormReport(
        scale=1.0,
        shift_per_site=shift_total / n,
        residual=residual,
        matched=residual <= QUADRATIC_FORM_TOL * max(1.0, float(np.max(np.abs(H.matrix)))),
    )


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
    modes = _modes(build_jordan_wigner(n).c)
    mode_vals = np.stack([v for _, v in modes])
    hit = mode_vals != 0
    rows, cols = np.stack([r for r, _ in modes])[hit], np.nonzero(hit)[1]
    vals, vecs = np.linalg.eigh(H.matrix)
    t_values = np.asarray(list(t_list), dtype=float)
    one_particle = _one_particle_rows(Mhat.dense(), t_values, n)
    residuals = []
    for t, T in zip(t_values, one_particle):
        phases = np.exp(1j * vals * t)
        U = (vecs * phases) @ vecs.conj().T
        U_adj = U.conj().T
        worst = 0.0
        for j in range(n):
            lhs = (U[:, modes[j][0]] * modes[j][1]) @ U_adj
            rhs = np.zeros_like(lhs)
            rhs[rows, cols] = (T[j][:, None] * mode_vals)[hit]  # the 2n modes share no entry
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        residuals.append(worst)
    return HeisenbergReport(t_values=t_values, residuals=np.asarray(residuals))


def slice_chain(params: ModelParams, real: DisorderRealization, n: int):
    """Restrict a (params, realization) pair to its first n sites."""
    if n == params.n:
        return params, real
    return replace(params, n=n), DisorderRealization(seed=real.seed, index=real.index, nu=real.nu[:n].copy())


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
    Bs: Sequence[np.ndarray],
    t_grid: np.ndarray,
) -> np.ndarray:
    """sup over the grid of |[tau_t(A), B]| by dense conjugation, for each B in Bs.

    One eigendecomposition of H serves every time, and A_t is built once per
    time for all B.  i[A_t, B] is Hermitian, so its norm is its largest
    |eigenvalue|.
    """
    vals, vecs = np.linalg.eigh(H.matrix)
    A_eig = vecs.conj().T @ A @ vecs
    Bs = np.stack(Bs)
    best = np.zeros(len(Bs))
    for t in t_grid:
        phases = np.exp(1j * vals * float(t))
        At = vecs @ ((phases[:, None] * A_eig) * phases.conj()[None, :]) @ vecs.conj().T
        comm = 1j * (At @ Bs - Bs @ At)
        best = np.maximum(best, np.abs(np.linalg.eigvalsh(comm)).max(axis=-1))
    return best


@dataclass
class LRStat:
    separation: int
    mean_sup: float
    se: float
    num_realizations: int


def fermionic_route(j: int, observables: Sequence[str]) -> bool:
    """Whether lr_commutator_stats takes the fermionic route (A = B = sx at j = 0), not dense conjugation."""
    return j == 0 and tuple(observables) == ("x", "x")


def lr_commutator_stats(
    params: ModelParams,
    n: int,
    j: int,
    ks: Sequence[int],
    t_grid: np.ndarray | None = None,
    num_realizations: int = 50,
    seed: int = 0,
    observables: tuple[str, str] = ("x", "x"),
) -> list[LRStat]:
    """Disorder statistics of sup_t |[tau_t(A_j), B_k]| versus separation.

    A and B are single-site Paulis named by observables.  A = B = sx with
    j = 0 takes the exact fermionic route; anything else takes dense
    conjugation, which caps n.  The sup is taken over the documented time
    grid, default 400 points on [0, 10].
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, 10.0, 400)
    ks = [int(k) for k in ks]
    if any(not j < k < n for k in ks):
        raise ConfigError(f"need j < k < n, got j={j}, ks={ks}")
    use_fermionic = fermionic_route(j, observables)

    def one(index: int) -> np.ndarray:
        real = sample_disorder(params, seed, index)
        sliced_params, sliced_real = slice_chain(params, real, n)
        if use_fermionic:
            Mhat = assemble_hat_form(sliced_params, sliced_real).dense()
            return _fermionic_sup_commutator(Mhat, n, ks, t_grid)
        _guard_qubits(n)
        H = build_hamiltonian(sliced_params, sliced_real, n)
        A = site_operator(_PAULI_BY_NAME[observables[0]], j, n)
        Bs = [site_operator(_PAULI_BY_NAME[observables[1]], k, n) for k in ks]
        return _dense_sup_commutator(H, A, Bs, t_grid)

    rows = np.stack([one(index) for index in range(num_realizations)])
    out = []
    for col, k in enumerate(ks):
        vals = rows[:, col]
        se = float(vals.std(ddof=1) / np.sqrt(num_realizations)) if num_realizations > 1 else 0.0
        out.append(
            LRStat(separation=k - j, mean_sup=float(vals.mean()), se=se, num_realizations=num_realizations)
        )
    return out
