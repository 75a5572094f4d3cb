"""Job lists of the three benchmark workloads.

A job is one `randblock` subcommand run on one generated JSON config.  Every
config is a pure function of the workload seed: job k of a workload gets the
config seed `1000 * seed + k`, and the remaining random fields (energies,
spectral parameters, potentials) are drawn in a fixed order from
`numpy.random.default_rng(seed)`.  Exceptions are written next to the job:
the finite-chain transfer jobs keep fixed config seeds, because the CLI draws
their chain lengths from that seed and their cost would otherwise follow the
draw rather than the code, and the known-fault job is fixed entirely.

Each config writes out every field the subcommand reads, defaults included,
so the README can list the exact inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ensemble", "cocycle", "bands-oracles")

UNIFORM = {"kind": "uniform", "a": -1.0, "b": 1.0}
TWO_POINT = {"kind": "two_point", "a": 0.0, "b": 1.0, "p": 0.5}
GAPPED = {"kind": "uniform", "a": 2.5, "b": 3.5}
XY_FIELD = {"kind": "uniform", "a": -1.5, "b": 1.5}

TRANSFER_SEED = 20_260_000  # fixed config seeds of the finite-chain jobs
KNOWN_FAULT_E = [0.37, 0.2]


@dataclass(frozen=True)
class Job:
    name: str  # unique within the workload; names the config file and --out dir
    command: str  # randblock subcommand
    group: str | None  # end-to-end group letter; None feeds wall_s only
    cfg: dict
    partner: str | None = None  # job whose output this job's check compares against
    known_fault: bool = False  # fails on every run today; counted, never timed


def _pair(rng: np.random.Generator, re: tuple[float, float], im: tuple[float, float]) -> list[float]:
    return [round(float(rng.uniform(*re)), 6), round(float(rng.uniform(*im)), 6)]


def _model(n: int, gamma: float, rho: dict, seed: int) -> dict:
    return {"ell": 2, "n": n, "gamma": gamma, "mu": 1.0, "rho": dict(rho), "seed": seed}


def ensemble_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    E = round(float(rng.uniform(0.5, 1.5)), 6)
    return [
        Job("dos", "dos", "a", {**_model(1000, 0.5, UNIFORM, 1000 * seed + 1),
                                "num_realizations": 4, "bins": 50}),
        Job("correlator", "correlator", "b", {**_model(200, 0.5, TWO_POINT, 1000 * seed + 2),
                                              "window": [0.5, 1.5], "num_realizations": 60,
                                              "zeta": 0.9, "boundary": 5}),
        Job("wegner-probe", "wegner-probe", "c", {**_model(2, 0.5, UNIFORM, 1000 * seed + 3),
                                                  "E": E, "L_list": [50, 100, 200, 400],
                                                  "beta": 0.5, "sigma": 0.5, "samples": 12}),
    ]


def cocycle_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    E = _pair(rng, (0.5, 1.5), (0.2, 0.6))
    E_real = round(float(rng.uniform(0.5, 2.5)), 6)
    thouless_E = [_pair(rng, (-1.5, 1.5), (0.3, 0.6)) for _ in range(3)]
    z_green = [_pair(rng, (-1.5, 1.5), (0.2, 0.5)) for _ in range(2)]
    E_charpoly = [_pair(rng, (-1.5, 1.5), (0.2, 0.5)) for _ in range(2)]
    lyap = {**_model(2, 0.5, UNIFORM, 1000 * seed + 1), "steps": 50_000, "reorth_every": 10}
    return [
        Job("lyapunov-E", "lyapunov", "a", {**lyap, "E": E}),
        # sigma_x on every site maps M to -M, so -conj(E) has the same exponents
        Job("lyapunov-minus-conj-E", "lyapunov", "a", {**lyap, "E": [-E[0], E[1]]},
            partner="lyapunov-E"),
        Job("lyapunov-real", "lyapunov", "a", {**lyap, "seed": 1000 * seed + 2, "E": E_real}),
        Job("zero-energy-0.5", "zero-energy", "a", {**_model(2, 0.5, UNIFORM, 1000 * seed + 3),
                                                     "steps": 50_000}),
        Job("zero-energy-2", "zero-energy", "a", {**_model(2, 2.0, UNIFORM, 1000 * seed + 4),
                                                   "steps": 50_000}),
        Job("thouless", "thouless", "b", {**_model(2, 0.5, UNIFORM, 1000 * seed + 5),
                                          "energies": thouless_E, "steps": 30_000,
                                          "dos": {"n": 400, "num_realizations": 8, "bins": 50}}),
        Job("green-check-ell1", "green-check", "c", {"seed": TRANSFER_SEED + 1, "instances": 40,
                                                     "ell_values": [1], "L_max": 40,
                                                     "z": z_green[0]}),
        Job("green-check-ell23", "green-check", "c", {"seed": TRANSFER_SEED + 2, "instances": 60,
                                                      "ell_values": [2, 3], "L_max": 20,
                                                      "z": z_green[1]}),
        Job("charpoly-check-ell1", "charpoly-check", "c", {"seed": TRANSFER_SEED + 3, "instances": 40,
                                                           "ell_values": [1], "L_max": 200,
                                                           "E": E_charpoly[0]}),
        Job("charpoly-check-ell23", "charpoly-check", "c", {"seed": TRANSFER_SEED + 4,
                                                            "instances": 100, "ell_values": [2, 3],
                                                            "L_max": 20, "E": E_charpoly[1]}),
        # ell >= 2 chains of 75-150 sites: the rescaled transfer product loses
        # accuracy exponentially in L, so this job fails on every run
        Job("charpoly-check-long", "charpoly-check", None, {"seed": TRANSFER_SEED + 5,
                                                           "instances": 8, "ell_values": [2, 3],
                                                           "L_max": 150, "E": KNOWN_FAULT_E},
            known_fault=True),
    ]


def bands_oracles_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    nu = round(float(rng.uniform(-1.4, 1.4)), 6)
    gamma = round(float(rng.uniform(0.3, 0.8)), 6)
    grids = [sorted(round(float(s * m), 6) for s, m in zip(rng.choice([-1.0, 1.0], 12),
                                                           rng.uniform(0.1, 2.4, 12)))
             for _ in range(2)]
    lr = {**_model(8, 0.5, GAPPED, 1000 * seed + 6), "n_verify": 8, "j": 0, "t_max": 10.0,
          "t_points": 400, "observables": ["x", "x"], "method": "fermionic"}
    return [
        Job("asspec", "asspec", "a", {"rho": dict(UNIFORM), "gamma": 0.5, "max_period": 2,
                                      "samples_per_period": 11}),
        Job("lr-stats", "lr-stats", "b", {**lr, "ks": [1, 2, 3, 4, 5, 6, 7], "num_realizations": 6}),
        Job("lr-stats-short", "lr-stats", "b", {**lr, "n": 5, "n_verify": 5, "seed": 1000 * seed + 7,
                                                "ks": [1, 2, 3, 4], "num_realizations": 3}),
        Job("periodic-const-1", "periodic", "c", {"potential": [1.0], "gamma": 0.5}),
        Job("periodic-alternating", "periodic", "c", {"potential": [-1.0, 1.0], "gamma": 0.5}),
        Job("periodic-const-drawn", "periodic", "c", {"potential": [nu], "gamma": gamma}),
        Job("zariski-0.5", "zariski", "c", {"gamma": 0.5, "E_grid": grids[0] + [0.0], "depth": 3,
                                            "certificate_samples": 100, "seed": 1000 * seed + 1}),
        Job("zariski-2", "zariski", "c", {"gamma": 2.0, "E_grid": grids[1] + [0.0], "depth": 3,
                                          "certificate_samples": 100, "seed": 1000 * seed + 2}),
        Job("xy-verify-0.5", "xy-verify", "c", {**_model(6, 0.5, XY_FIELD, 1000 * seed + 3),
                                                "n_verify": 6, "t_list": [0.5, 1.7, 5.0]}),
        Job("xy-verify-1.5", "xy-verify", "c", {**_model(6, 1.5, XY_FIELD, 1000 * seed + 4),
                                                "n_verify": 6, "t_list": [0.5, 1.7, 5.0]}),
    ]


def warmup_jobs(workload: str) -> list[Job]:
    """Small runs of every job kind, so first-call costs land in set-up."""
    tiny = _model(20, 0.5, UNIFORM, 1)
    if workload == "ensemble":
        return [
            # the first n = 1000 eigensolve costs about twice a later one
            Job("warm-dos", "dos", None, {**_model(1000, 0.5, UNIFORM, 1), "num_realizations": 1,
                                          "bins": 50}),
            Job("warm-correlator", "correlator", None, {**_model(40, 0.5, TWO_POINT, 1),
                                                        "window": [0.5, 1.5], "num_realizations": 4}),
            Job("warm-wegner", "wegner-probe", None, {**tiny, "E": 1.0, "L_list": [20],
                                                      "beta": 0.5, "sigma": 0.5, "samples": 2}),
        ]
    if workload == "cocycle":
        return [
            Job("warm-lyapunov", "lyapunov", None, {**tiny, "E": [1.0, 0.5], "steps": 2000}),
            Job("warm-zero-energy", "zero-energy", None, {**tiny, "steps": 2000}),
            Job("warm-thouless", "thouless", None, {**tiny, "energies": [[1.0, 0.5]], "steps": 2000,
                                                    "dos": {"n": 40, "num_realizations": 2}}),
            Job("warm-green", "green-check", None, {"seed": 1, "instances": 3, "L_max": 6}),
            Job("warm-charpoly", "charpoly-check", None, {"seed": 1, "instances": 3, "L_max": 6}),
        ]
    if workload == "bands-oracles":
        return [
            Job("warm-asspec", "asspec", None, {"rho": dict(UNIFORM), "gamma": 0.5, "max_period": 1,
                                                "samples_per_period": 2}),
            Job("warm-lr-stats", "lr-stats", None, {**_model(4, 0.5, GAPPED, 1), "num_realizations": 2,
                                                    "t_points": 20}),
            Job("warm-periodic", "periodic", None, {"potential": [1.0], "gamma": 0.5}),
            Job("warm-zariski", "zariski", None, {"gamma": 0.5, "E_grid": [1.0], "seed": 1,
                                                  "certificate_samples": 4}),
            Job("warm-xy-verify", "xy-verify", None, {**_model(4, 0.5, XY_FIELD, 1)}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def jobs_for(workload: str, seed: int) -> list[Job]:
    builders = {"ensemble": ensemble_jobs, "cocycle": cocycle_jobs, "bands-oracles": bands_oracles_jobs}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = builders[workload](seed)
    if len({job.name for job in jobs}) != len(jobs):
        raise ValueError("job names must be unique")
    return jobs
