"""Correctness checks of the benchmark jobs.

Every check reads the artifacts a job wrote and compares them with a
computation made here, apart from the program, or with a property the
method must have.  Nothing is compared with a stored copy of earlier output.

The independent computations use only numpy and scipy:

* potentials are drawn from the documented stream, a Philox generator keyed
  on (seed, realization index), with the documented single-site laws;
* the ell = 2 chain is assembled directly in LAPACK lower band storage (its
  interleaved block layout has bandwidth 3) and diagonalized with
  `scipy.linalg.eig_banded`, a different LAPACK path from the dense `eigh`
  the program uses;
* many-body references build the spin Hamiltonian from Kronecker products.

A check returns a list of problems; an empty list means the output passed.
References depend only on a job's config, so a run computes each once and
checks every round against it.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np
import scipy.linalg

U64 = (1 << 64) - 1

EDGE_TOL = 1e-9  # eigenvalues this close to a bin edge may land on either side
LOGQ_TOL = 1e-6  # binned mean log Q against the recomputation
LOGQ_FLOOR = 1e-10  # bins holding a pair below this share of max Q are roundoff-limited
PAIRING_ABS_TOL = 1e-4
PAIRING_SE_FRACTION = 0.1
MIRROR_TOL = 1e-10  # exponents at E and -conj(E), same seed
HOPPING_TOL = 1e-12
THOULESS_TOL = 5e-2
ZERO_ENERGY_SE = 5.0
SHIFT_TOL = 1e-12
GREEN_TOL = 1e-8
WRONSKIAN_TOL = 1e-10
CHARPOLY_TOL = 1e-8
BAND_EDGE_TOL = 1e-6
BAND_COVER_TOL = 1e-2
COMMUTATOR_BOUND = 2.0
MONOTONE_SE = 2.0
DENSE_ROUTE_TOL = 1e-9
CAR_TOL = 1e-12
QUADRATIC_TOL = 1e-10
HEISENBERG_TOL = 1e-8
FREE_FERMION_TOL = 1e-8
FULL_RANK = 10


# ---------------------------------------------------------------------------
# reading artifacts


def read_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """(embedded config, header, rows as a 2-D float array) of a CLI CSV."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError(f"{path} has no config line")
    cfg = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]], dtype=float)
    return cfg, header, rows.reshape(-1, len(header))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def column(header: list[str], rows: np.ndarray, name: str) -> np.ndarray:
    return rows[:, header.index(name)]


def config_problems(embedded: dict, cfg: dict) -> list[str]:
    """Every field the job gave must come back unchanged in the artifact."""
    return [f"artifact config field {key!r} is {embedded.get(key)!r}, job gave {value!r}"
            for key, value in cfg.items() if embedded.get(key) != value]


# ---------------------------------------------------------------------------
# independent model computations


def sample_potential(rho: dict, seed: int, index: int, n: int) -> np.ndarray:
    """The n potential entries of realization `index` of stream `seed`."""
    rng = np.random.Generator(np.random.Philox(key=[int(seed) & U64, int(index) & U64]))
    if rho["kind"] == "uniform":
        return rng.uniform(rho["a"], rho["b"], n)
    if rho["kind"] == "two_point":
        return np.where(rng.random(n) < rho.get("p", 0.5), rho["a"], rho["b"])
    raise ValueError(f"no reference sampler for rho kind {rho['kind']!r}")


def chain_band(nu: np.ndarray, gamma: float, mu: float = 1.0) -> np.ndarray:
    """Lower band storage (4, 2n) of the ell = 2 chain in block order.

    Site k holds nu_k sigma_z; the hopping to site k+1 is -S with
    S = mu [[1, gamma], [-gamma, -1]], and -S^t below the diagonal.
    """
    n = nu.size
    band = np.zeros((4, 2 * n))
    band[0, 0::2] = nu
    band[0, 1::2] = -nu
    band[1, 1:-1:2] = mu * gamma  # M[2k+2, 2k+1]
    band[2, 0:-2:2] = -mu  # M[2k+2, 2k]
    band[2, 1:-2:2] = mu  # M[2k+3, 2k+1]
    band[3, 0:-2:2] = -mu * gamma  # M[2k+3, 2k]
    return band


def chain_eigenvalues(nu: np.ndarray, gamma: float, mu: float = 1.0) -> np.ndarray:
    return scipy.linalg.eig_banded(chain_band(nu, gamma, mu), lower=True, eigvals_only=True)


def ensemble_eigenvalues(cfg: dict, n: int, seed: int, count: int) -> list[np.ndarray]:
    return [chain_eigenvalues(sample_potential(cfg["rho"], seed, r, n), cfg["gamma"], cfg["mu"])
            for r in range(count)]


# ---------------------------------------------------------------------------
# ensemble workload


def reference_dos(cfg: dict) -> np.ndarray:
    return np.concatenate(ensemble_eigenvalues(cfg, cfg["n"], cfg["seed"], cfg["num_realizations"]))


def check_dos(cfg: dict, out: Path, ref: np.ndarray) -> list[str]:
    embedded, header, rows = read_csv(out / "dos.csv")
    problems = config_problems(embedded, cfg)
    lo, hi, mass = (column(header, rows, c) for c in ("bin_lo", "bin_hi", "mass"))
    if rows.shape[0] != cfg["bins"]:
        return problems + [f"{rows.shape[0]} bins, expected {cfg['bins']}"]
    edges = np.append(lo, hi[-1])
    if np.any(np.abs(lo[1:] - hi[:-1]) > 0.0):
        problems.append("bins are not contiguous")
    if not (edges[0] <= ref.min() and ref.max() <= edges[-1]):
        problems.append(f"bins [{edges[0]}, {edges[-1]}] miss the spectrum [{ref.min()}, {ref.max()}]")
    counts = np.rint(mass * ref.size).astype(int)
    if np.max(np.abs(counts - mass * ref.size)) > 1e-6:
        problems.append("masses are not multiples of 1 / (number of eigenvalues)")
    expected, _ = np.histogram(ref, bins=edges)
    near = np.abs(ref[:, None] - edges[None, :]) <= EDGE_TOL
    slack = np.zeros(counts.size, dtype=int)
    for j in np.nonzero(near.any(axis=0))[0]:  # an edge eigenvalue may sit in either bin
        k = int(near[:, j].sum())
        slack[max(j - 1, 0)] += k
        slack[min(j, counts.size - 1)] += k
    bad = np.nonzero(np.abs(counts - expected) > slack)[0]
    if bad.size:
        problems.append(f"bin counts differ from the banded eigenvalues in bins {bad.tolist()}")
    return problems


def _binned_mean_logs(Q: np.ndarray, boundary: int, min_pairs: int = 4):
    n = Q.shape[0]
    interior = np.arange(boundary, n - boundary)
    out = {}
    for d in range(1, interior.size):
        j = interior[: interior.size - d]
        vals = Q[j, j + d]
        vals = vals[vals > 0.0]
        if vals.size >= min_pairs:
            out[d] = (float(np.log(vals).mean()), int(vals.size), float(vals.min()))
    return out


def reference_correlator(cfg: dict) -> dict:
    lo, hi = cfg["window"]
    n = cfg["n"]
    Q = np.zeros((n, n))
    for r in range(cfg["num_realizations"]):
        nu = sample_potential(cfg["rho"], cfg["seed"], r, n)
        _, vecs = scipy.linalg.eig_banded(chain_band(nu, cfg["gamma"], cfg["mu"]), lower=True,
                                          select="v", select_range=(lo, hi))
        amplitudes = np.linalg.norm(vecs.reshape(n, 2, -1), axis=1)
        Q += amplitudes @ amplitudes.T
    Q /= cfg["num_realizations"]
    return {"bins": _binned_mean_logs(Q, cfg["boundary"]), "qmax": float(Q.max())}


def check_correlator(cfg: dict, out: Path, ref: dict) -> list[str]:
    embedded, header, rows = read_csv(out / "correlator.csv")
    problems = config_problems(embedded, cfg)
    fit = read_json(out / "fit.json")
    if not (fit["eta"] > 0.0 and fit["eta_ci"][0] > 0.0):
        problems.append(f"eta {fit['eta']} with CI {fit['eta_ci']} does not exclude zero decay")
    dist = column(header, rows, "dist").astype(int)
    if sorted(dist.tolist()) != sorted(ref["bins"]):
        return problems + ["populated distance bins differ from the recomputation"]
    for d, mean_log, count in zip(dist, column(header, rows, "mean_logQ"), column(header, rows, "count")):
        want, want_count, smallest = ref["bins"][d]
        if count != want_count:
            problems.append(f"distance {d}: {int(count)} pairs, expected {want_count}")
        elif smallest > LOGQ_FLOOR * ref["qmax"] and abs(mean_log - want) > LOGQ_TOL:
            problems.append(f"distance {d}: mean log Q {mean_log} against {want}")
    return problems


def reference_wegner(cfg: dict) -> dict:
    dists = {}
    for L in cfg["L_list"]:
        dists[L] = np.array([
            np.min(np.abs(chain_eigenvalues(sample_potential(cfg["rho"], cfg["seed"], (L << 32) | s, L),
                                            cfg["gamma"], cfg["mu"]) - cfg["E"]))
            for s in range(cfg["samples"])
        ])
    return dists


def check_wegner(cfg: dict, out: Path, ref: dict) -> list[str]:
    embedded, header, rows = read_csv(out / "wegner.csv")
    problems = config_problems(embedded, cfg)
    Ls = column(header, rows, "L").astype(int).tolist()
    if Ls != list(cfg["L_list"]):
        return problems + [f"lengths {Ls}, expected {cfg['L_list']}"]
    for L, eps, prob in zip(Ls, column(header, rows, "eps"), column(header, rows, "probability")):
        want_eps = math.exp(-cfg["sigma"] * L ** cfg["beta"])
        if abs(eps - want_eps) > 1e-12 * want_eps:
            problems.append(f"L={L}: eps {eps}, expected {want_eps}")
        dist = ref[L]
        sure = int(np.sum(dist < want_eps - EDGE_TOL))
        maybe = int(np.sum(np.abs(dist - want_eps) <= EDGE_TOL))
        hits = prob * cfg["samples"]
        if not sure - 1e-9 <= hits <= sure + maybe + 1e-9:
            problems.append(f"L={L}: probability {prob}, nearest eigenvalues give {sure / cfg['samples']}")
    return problems


# ---------------------------------------------------------------------------
# cocycle workload


def _exponents(out: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    embedded, header, rows = read_csv(out / "lyapunov.csv")
    m = sum(1 for h in header if h.startswith("gamma_"))
    gam = np.array([column(header, rows, f"gamma_{p}")[0] for p in range(1, m + 1)])
    se = np.array([column(header, rows, f"se_{p}")[0] for p in range(1, m + 1)])
    return embedded, gam, se


def check_lyapunov(cfg: dict, out: Path, partner: Path | None = None) -> list[str]:
    embedded, gam, se = _exponents(out)
    problems = config_problems(embedded, cfg)
    if gam.size != 4:
        return problems + [f"{gam.size} exponents, expected 4"]
    if np.any(np.diff(gam) > 0.0):
        problems.append(f"exponents {gam} are not in decreasing order")
    defects = np.abs(gam + gam[::-1])[:2]
    pair_se = np.sqrt(se**2 + se[::-1] ** 2)[:2]
    if np.any(defects > PAIRING_ABS_TOL) or np.any(defects > PAIRING_SE_FRACTION * pair_se):
        problems.append(f"pairing defects {defects} against se {pair_se}")
    if partner is not None:
        _, mirror, _ = _exponents(partner)
        if mirror.shape != gam.shape or np.max(np.abs(mirror - gam)) > MIRROR_TOL:
            problems.append(f"exponents {gam} differ from {mirror} at the mirrored energy")
    return problems


def reference_thouless(cfg: dict) -> np.ndarray:
    dos = cfg["dos"]
    return np.concatenate(ensemble_eigenvalues(cfg, dos["n"], cfg["seed"] + 1, dos["num_realizations"]))


def check_thouless(cfg: dict, out: Path, ref: np.ndarray) -> list[str]:
    embedded, header, rows = read_csv(out / "thouless.csv")
    problems = config_problems(embedded, cfg)
    if rows.shape[0] != len(cfg["energies"]):
        return problems + [f"{rows.shape[0]} energies, expected {len(cfg['energies'])}"]
    hopping = -0.5 * math.log(cfg["mu"] ** 2 * abs(cfg["gamma"] ** 2 - 1.0))
    for (re, im), row in zip(cfg["energies"], rows):
        got = dict(zip(header, row))
        E = complex(re, im)
        if abs(got["hopping_term"] - hopping) > HOPPING_TOL:
            problems.append(f"E={E}: hopping term {got['hopping_term']}, expected {hopping}")
        predicted = hopping + float(np.mean(np.log(np.abs(E - ref))))
        if abs(got["lyap_index"] - predicted) > THOULESS_TOL:
            problems.append(f"E={E}: index {got['lyap_index']} against Thouless {predicted}")
    return problems


def check_zero_energy(cfg: dict, out: Path, ref=None) -> list[str]:
    payload = read_json(out / "zero_energy.json")
    problems = config_problems(payload["config"], cfg)
    g = cfg["gamma"]
    shift = 0.5 * math.log((1.0 + g) / abs(1.0 - g))
    if abs(payload["shift"] - shift) > SHIFT_TOL:
        problems.append(f"shift {payload['shift']}, expected {shift}")
    pred, direct = np.array(payload["predicted"]), np.array(payload["direct"])
    se = np.hypot(payload["predicted_se"], payload["direct_se"])
    if pred.shape != (4,) or direct.shape != (4,):
        return problems + ["expected four predicted and four direct exponents"]
    worst = float(np.max(np.abs(pred - direct) / se))
    if worst > ZERO_ENERGY_SE:
        problems.append(f"direct exponents {direct} are {worst:.1f} se from the closed form {pred}")
    return problems


def check_green(cfg: dict, out: Path, ref=None) -> list[str]:
    embedded, header, rows = read_csv(out / "green_check.csv")
    problems = config_problems(embedded, cfg)
    if rows.shape[0] != cfg["instances"]:
        return problems + [f"{rows.shape[0]} instances, expected {cfg['instances']}"]
    worst_green = float(column(header, rows, "green_err").max())
    worst_wron = float(column(header, rows, "wronskian_dev").max())
    if not worst_green <= GREEN_TOL:
        problems.append(f"green_err {worst_green:.2e} against the dense inverse exceeds {GREEN_TOL}")
    if not worst_wron <= WRONSKIAN_TOL:
        problems.append(f"wronskian_dev {worst_wron:.2e} exceeds {WRONSKIAN_TOL}")
    return problems


def check_charpoly(cfg: dict, out: Path, ref=None) -> list[str]:
    embedded, header, rows = read_csv(out / "charpoly.csv")
    problems = config_problems(embedded, cfg)
    if rows.shape[0] != cfg["instances"]:
        return problems + [f"{rows.shape[0]} instances, expected {cfg['instances']}"]
    for name in ("identity_residual", "exterior_residual"):
        worst = float(column(header, rows, name).max())
        if not worst <= CHARPOLY_TOL:
            problems.append(f"{name} {worst:.2e} against the dense slogdet exceeds {CHARPOLY_TOL}")
    return problems


# ---------------------------------------------------------------------------
# bands-oracles workload


def read_intervals(out: Path) -> tuple[dict, np.ndarray]:
    embedded, _, rows = read_csv(out / "intervals.csv")
    return embedded, rows


def max_gap(intervals: np.ndarray, lo: float, hi: float) -> float:
    """Largest distance from a point of [lo, hi] to the interval union."""
    iv = intervals[np.argsort(intervals[:, 0])]
    worst = max(iv[0, 0] - lo, hi - iv[:, 1].max(), 0.0)
    reach = iv[0, 1]
    for a, b in iv[1:]:
        if a > reach:
            worst = max(worst, 0.5 * (a - reach))
        reach = max(reach, b)
    return float(worst)


def check_asspec(cfg: dict, out: Path, ref=None) -> list[str]:
    embedded, iv = read_intervals(out)
    problems = config_problems(embedded, cfg)
    hull = (float(iv[:, 0].min()), float(iv[:, 1].max()))
    if max(abs(hull[0] + 3.0), abs(hull[1] - 3.0)) > BAND_EDGE_TOL:
        problems.append(f"hull {hull}, expected [-3, 3]")
    gap = max_gap(iv, -3.0, 3.0)
    if gap > BAND_COVER_TOL:
        problems.append(f"union leaves a point of [-3, 3] {gap:.2e} away")
    return problems


def periodic_bands(potential: list[float], gamma: float) -> list[tuple[float, float]]:
    """Closed-form bands for period 1, and for the alternating field (-1, 1) at gamma 1/2."""
    if len(potential) == 1:
        # E^2 = (nu - 2x)^2 + 4 gamma^2 (1 - x^2), x = cos theta in [-1, 1], convex in x
        nu = potential[0]
        f = lambda x: (nu - 2.0 * x) ** 2 + 4.0 * gamma**2 * (1.0 - x * x)
        x_min = min(1.0, max(-1.0, nu / (2.0 * (1.0 - gamma**2))))
        lo, hi = math.sqrt(f(x_min)), max(math.sqrt(f(-1.0)), math.sqrt(f(1.0)))
        return [(-hi, hi)] if lo == 0.0 else [(-hi, -lo), (lo, hi)]
    if list(potential) == [-1.0, 1.0] and gamma == 0.5:
        # E^2 = [(7 + 3c) +- 2 sqrt(2 (1 - c))] / 2: peak 16/3 at c = 7/9, zero at c = -1
        return [(-4.0 / math.sqrt(3.0), 4.0 / math.sqrt(3.0))]
    raise ValueError("no closed form for this potential")


def check_periodic(cfg: dict, out: Path, ref=None) -> list[str]:
    embedded, iv = read_intervals(out)
    problems = config_problems(embedded, cfg)
    want = np.array(periodic_bands(cfg["potential"], cfg["gamma"]))
    if iv.shape != want.shape or np.max(np.abs(iv - want)) > BAND_EDGE_TOL:
        problems.append(f"bands {iv.tolist()}, closed form {want.tolist()}")
    return problems


def check_zariski(cfg: dict, out: Path, ref=None) -> list[str]:
    embedded, header, rows = read_csv(out / "zariski.csv")
    problems = config_problems(embedded, cfg)
    if column(header, rows, "E").tolist() != list(cfg["E_grid"]):
        return problems + ["energy grid differs from the config"]
    for E, rank, marginal in zip(*(column(header, rows, c) for c in ("E", "rank", "marginal_flag"))):
        if E != 0.0 and (rank != FULL_RANK or marginal):
            problems.append(f"E={E}: rank {int(rank)} (marginal {bool(marginal)}), expected {FULL_RANK}")
        if E == 0.0 and rank >= FULL_RANK:
            problems.append(f"E=0: rank {int(rank)}, expected below {FULL_RANK}")
    cert = read_json(out / "certificate.json")
    if not cert["passed"] or cert["num_samples"] != cfg["certificate_samples"]:
        problems.append(f"zero-energy certificate failed: {cert}")
    return problems


PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def spin_operator(name: str, j: int, n: int) -> np.ndarray:
    return reduce(np.kron, [np.eye(2)] * j + [PAULI[name]] + [np.eye(2)] * (n - 1 - j))


def spin_hamiltonian(nu: np.ndarray, gamma: float, mu: float = 1.0) -> np.ndarray:
    n = nu.size
    H = sum(mu * ((1 + gamma) * spin_operator("x", j, n) @ spin_operator("x", j + 1, n)
                  + (1 - gamma) * spin_operator("y", j, n) @ spin_operator("y", j + 1, n))
            for j in range(n - 1))
    return H + sum(nu[j] * spin_operator("z", j, n) for j in range(n))


def reference_lr_stats(cfg: dict) -> np.ndarray | None:
    """Dense sup_t |[tau_t(sx_0), sx_k]| per realization, for chains of at most 6 sites."""
    n = cfg["n_verify"]
    if n > 6:
        return None
    t_grid = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    out = np.zeros((cfg["num_realizations"], len(cfg["ks"])))
    A = spin_operator(cfg["observables"][0], cfg["j"], n)
    for r in range(cfg["num_realizations"]):
        nu = sample_potential(cfg["rho"], cfg["seed"], r, cfg["n"])[:n]
        vals, vecs = np.linalg.eigh(spin_hamiltonian(nu, cfg["gamma"], cfg["mu"]))
        A_eig = vecs.conj().T @ A @ vecs
        for c, k in enumerate(cfg["ks"]):
            B = spin_operator(cfg["observables"][1], k, n)
            for t in t_grid:
                phase = np.exp(1j * vals * t)
                At = vecs @ (phase[:, None] * A_eig * phase.conj()[None, :]) @ vecs.conj().T
                out[r, c] = max(out[r, c], np.linalg.norm(At @ B - B @ At, 2))
    return out


def check_lr_stats(cfg: dict, out: Path, ref: np.ndarray | None) -> list[str]:
    embedded, header, rows = read_csv(out / "lr_stats.csv")
    problems = config_problems(embedded, cfg)
    sep = column(header, rows, "separation").astype(int).tolist()
    if sep != [k - cfg["j"] for k in cfg["ks"]]:
        return problems + [f"separations {sep} do not match ks {cfg['ks']}"]
    means, se = column(header, rows, "mean_sup_comm"), column(header, rows, "se")
    if np.any(means > COMMUTATOR_BOUND + 1e-12) or np.any(means < 0.0):
        problems.append(f"mean sup-commutators {means} leave [0, 2]")
    slack = MONOTONE_SE * np.hypot(se[:-1], se[1:])
    if np.any(means[1:] > means[:-1] + slack):
        problems.append(f"means {means} increase by more than {MONOTONE_SE} se")
    if ref is not None:
        want = ref.mean(axis=0)
        want_se = ref.std(axis=0, ddof=1) / math.sqrt(ref.shape[0])
        if np.max(np.abs(means - want)) > DENSE_ROUTE_TOL or np.max(np.abs(se - want_se)) > DENSE_ROUTE_TOL:
            problems.append(f"means {means} differ from the dense spin-chain route {want}")
    return problems


def check_xy_verify(cfg: dict, out: Path, ref=None) -> list[str]:
    payload = read_json(out / "xy_verify.json")
    problems = config_problems(payload["config"], cfg)
    limits = {"car_defect": CAR_TOL, "quadratic_residual": QUADRATIC_TOL,
              "heisenberg_max_residual": HEISENBERG_TOL, "free_fermion_residual": FREE_FERMION_TOL,
              "shift_per_site": 1e-12}
    for key, limit in limits.items():
        if not abs(payload[key]) <= limit:
            problems.append(f"{key} {payload[key]:.2e} exceeds {limit}")
    if payload["scale"] != 1.0 or payload["n"] != cfg["n_verify"]:
        problems.append(f"scale {payload['scale']} and n {payload['n']}, expected 1.0 and {cfg['n_verify']}")
    return problems


# command -> (reference builder or None, check)
CHECKS = {
    "dos": (reference_dos, check_dos),
    "correlator": (reference_correlator, check_correlator),
    "wegner-probe": (reference_wegner, check_wegner),
    "lyapunov": (None, check_lyapunov),
    "thouless": (reference_thouless, check_thouless),
    "zero-energy": (None, check_zero_energy),
    "green-check": (None, check_green),
    "charpoly-check": (None, check_charpoly),
    "asspec": (None, check_asspec),
    "periodic": (None, check_periodic),
    "zariski": (None, check_zariski),
    "lr-stats": (reference_lr_stats, check_lr_stats),
    "xy-verify": (None, check_xy_verify),
}
