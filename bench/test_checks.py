"""Self-tests of the benchmark checks: each accepts real output and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q

Every test runs the CLI on a small config, asserts that the check accepts
the artifacts, then corrupts one number and asserts that the check rejects
them.  Repository tests (tests/) are not touched by these.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from randblock import cli  # noqa: E402
from randblock.model import assemble_block_jacobi, params_from_config, sample_disorder  # noqa: E402

UNIFORM = {"kind": "uniform", "a": -1.0, "b": 1.0}


def run(tmp_path: Path, command: str, cfg: dict, name: str = "job") -> Path:
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def edit_csv(path: Path, row: int, col: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    i = header.index(col)
    cells[i] = repr(float(fn(float(cells[i]))))
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_json(path: Path, fn) -> None:
    payload = json.loads(path.read_text())
    fn(payload)
    path.write_text(json.dumps(payload))


def model(n, gamma=0.5, rho=UNIFORM, seed=5):
    return {"ell": 2, "n": n, "gamma": gamma, "mu": 1.0, "rho": dict(rho), "seed": seed}


# ---------------------------------------------------------------------------
# the independent references themselves


@pytest.mark.parametrize("rho", [UNIFORM, {"kind": "two_point", "a": 0.0, "b": 1.0, "p": 0.5}])
def test_reference_chain_matches_program_matrix(rho):
    cfg = model(7, gamma=0.3, rho=rho)
    params = params_from_config(cfg)
    real = sample_disorder(params, 11, 4)
    nu = checks.sample_potential(rho, 11, 4, 7)
    np.testing.assert_array_equal(nu, real.nu)
    band = checks.chain_band(nu, 0.3)
    dense = np.diag(band[0])
    for d in (1, 2, 3):
        dense += np.diag(band[d, :-d], -d) + np.diag(band[d, :-d], d)
    np.testing.assert_array_equal(dense, assemble_block_jacobi(params, real).dense())


@pytest.mark.parametrize("nu,gamma", [(1.0, 0.5), (-0.7, 0.3), (1.3, 0.8), (0.2, 0.65)])
def test_period_one_closed_form_matches_bloch_scan(nu, gamma):
    from randblock.spectral import periodic_spectrum

    want = np.array(checks.periodic_bands([nu], gamma))
    np.testing.assert_allclose(periodic_spectrum([nu], gamma).intervals, want, atol=1e-7)


def test_max_gap():
    iv = np.array([[-3.0, -1.0], [-0.9, 3.0]])
    assert checks.max_gap(iv, -3.0, 3.0) == pytest.approx(0.05)
    assert checks.max_gap(iv, -3.5, 3.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# ensemble


def test_dos_check_rejects_a_moved_count(tmp_path):
    cfg = {**model(60), "num_realizations": 3, "bins": 20}
    out = run(tmp_path, "dos", cfg)
    ref = checks.reference_dos(cfg)
    assert checks.check_dos(cfg, out, ref) == []
    unit = 1.0 / ref.size
    edit_csv(out / "dos.csv", 5, "mass", lambda m: m - unit)
    edit_csv(out / "dos.csv", 6, "mass", lambda m: m + unit)
    assert checks.check_dos(cfg, out, ref)


def test_correlator_check_rejects_a_shifted_bin_and_no_decay(tmp_path):
    cfg = {**model(80, rho={"kind": "two_point", "a": 0.0, "b": 1.0, "p": 0.5}),
           "window": [0.5, 1.5], "num_realizations": 20, "zeta": 0.9, "boundary": 5}
    out = run(tmp_path, "correlator", cfg)
    ref = checks.reference_correlator(cfg)
    assert checks.check_correlator(cfg, out, ref) == []
    edit_csv(out / "correlator.csv", 2, "mean_logQ", lambda y: y + 1e-4)
    assert checks.check_correlator(cfg, out, ref)
    out = run(tmp_path, "correlator", cfg, "again")
    edit_json(out / "fit.json", lambda p: p.update(eta_ci=[-0.01, p["eta_ci"][1]]))
    assert checks.check_correlator(cfg, out, ref)


def test_wegner_check_rejects_an_extra_hit(tmp_path):
    cfg = {**model(2), "E": 0.8, "L_list": [10, 20, 40], "beta": 0.5, "sigma": 0.5, "samples": 6}
    out = run(tmp_path, "wegner-probe", cfg)
    ref = checks.reference_wegner(cfg)
    assert checks.check_wegner(cfg, out, ref) == []
    row = 1 if ref[20].min() > math.exp(-0.5 * 20 ** 0.5) else 2
    edit_csv(out / "wegner.csv", row, "probability", lambda p: p + 1.0 / 6 if p < 1 else p - 1.0 / 6)
    assert checks.check_wegner(cfg, out, ref)


# ---------------------------------------------------------------------------
# cocycle


def test_lyapunov_check_rejects_a_moved_exponent_and_a_broken_mirror(tmp_path):
    cfg = {**model(2), "E": [0.9, 0.4], "steps": 20_000, "reorth_every": 10}
    out = run(tmp_path, "lyapunov", cfg, "E")
    mirror = run(tmp_path, "lyapunov", {**cfg, "E": [-0.9, 0.4]}, "mirror")
    assert checks.check_lyapunov(cfg, out) == []
    assert checks.check_lyapunov({**cfg, "E": [-0.9, 0.4]}, mirror, out) == []
    _, _, se = checks._exponents(out)
    edit_csv(out / "lyapunov.csv", 0, "gamma_1", lambda g: g + 10 * se[0])
    assert checks.check_lyapunov(cfg, out)
    edit_csv(mirror / "lyapunov.csv", 0, "gamma_2", lambda g: g + 1e-8)
    out2 = run(tmp_path, "lyapunov", cfg, "E2")
    assert checks.check_lyapunov({**cfg, "E": [-0.9, 0.4]}, mirror, out2)


def test_thouless_check_rejects_a_wrong_index_and_hopping_term(tmp_path):
    cfg = {**model(2), "energies": [[0.5, 0.4]], "steps": 20_000,
           "dos": {"n": 100, "num_realizations": 4, "bins": 50}}
    out = run(tmp_path, "thouless", cfg)
    ref = checks.reference_thouless(cfg)
    assert checks.check_thouless(cfg, out, ref) == []
    edit_csv(out / "thouless.csv", 0, "lyap_index", lambda g: g + 0.1)
    assert checks.check_thouless(cfg, out, ref)
    out = run(tmp_path, "thouless", cfg, "again")
    edit_csv(out / "thouless.csv", 0, "hopping_term", lambda h: h + 1e-9)
    assert checks.check_thouless(cfg, out, ref)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_zero_energy_check_rejects_a_moved_exponent_and_shift(tmp_path, gamma):
    cfg = {**model(2, gamma=gamma), "steps": 20_000}
    out = run(tmp_path, "zero-energy", cfg)
    assert checks.check_zero_energy(cfg, out) == []
    payload = json.loads((out / "zero_energy.json").read_text())
    se = math.hypot(payload["predicted_se"][0], payload["direct_se"][0])
    edit_json(out / "zero_energy.json", lambda p: p["direct"].__setitem__(0, p["direct"][0] + 10 * se))
    assert checks.check_zero_energy(cfg, out)
    out = run(tmp_path, "zero-energy", cfg, "again")
    edit_json(out / "zero_energy.json", lambda p: p.update(shift=p["shift"] + 1e-9))
    assert checks.check_zero_energy(cfg, out)


def test_green_check_rejects_a_large_error(tmp_path):
    cfg = {"seed": 3, "instances": 4, "ell_values": [1, 2], "L_max": 8, "z": [0.7, 0.3]}
    out = run(tmp_path, "green-check", cfg)
    assert checks.check_green(cfg, out) == []
    edit_csv(out / "green_check.csv", 1, "green_err", lambda _: 1e-6)
    assert checks.check_green(cfg, out)
    out = run(tmp_path, "green-check", cfg, "again")
    edit_csv(out / "green_check.csv", 2, "wronskian_dev", lambda _: 1e-9)
    assert checks.check_green(cfg, out)


def test_charpoly_check_rejects_a_large_residual(tmp_path):
    cfg = {"seed": 3, "instances": 4, "ell_values": [1, 2], "L_max": 8, "E": [0.37, 0.2]}
    out = run(tmp_path, "charpoly-check", cfg)
    assert checks.check_charpoly(cfg, out) == []
    edit_csv(out / "charpoly.csv", 3, "exterior_residual", lambda _: 1e-7)
    assert checks.check_charpoly(cfg, out)


def test_known_fault_job_fails_its_check(tmp_path):
    job = next(j for j in workloads.cocycle_jobs(1) if j.known_fault)
    assert job.cfg == next(j for j in workloads.cocycle_jobs(2) if j.known_fault).cfg
    out = run(tmp_path, job.command, job.cfg)
    assert checks.check_charpoly(job.cfg, out)


def test_config_echo_is_checked(tmp_path):
    cfg = {"seed": 3, "instances": 2, "ell_values": [1], "L_max": 5, "z": [0.7, 0.3]}
    out = run(tmp_path, "green-check", cfg)
    assert checks.check_green({**cfg, "L_max": 6}, out)


# ---------------------------------------------------------------------------
# bands-oracles


def test_asspec_check_rejects_a_gap_and_a_short_hull(tmp_path):
    cfg = {"rho": dict(UNIFORM), "gamma": 0.5, "max_period": 2, "samples_per_period": 5}
    out = run(tmp_path, "asspec", cfg)
    assert checks.check_asspec(cfg, out) == []
    path = out / "intervals.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["-3.0,-0.05", "0.05,2.99"]) + "\n")
    problems = checks.check_asspec(cfg, out)
    assert any("hull" in p for p in problems) and any("away" in p for p in problems)


def test_periodic_check_rejects_the_isotropic_edge(tmp_path):
    cfg = {"potential": [-1.0, 1.0], "gamma": 0.5}
    out = run(tmp_path, "periodic", cfg)
    assert checks.check_periodic(cfg, out) == []
    path = out / "intervals.csv"
    lines = path.read_text().splitlines()
    root5 = math.sqrt(5.0)
    path.write_text("\n".join(lines[:2] + [f"{-root5!r},{root5!r}"]) + "\n")
    assert checks.check_periodic(cfg, out)
    cfg = {"potential": [1.0], "gamma": 0.5}
    out = run(tmp_path, "periodic", cfg, "const")
    assert checks.check_periodic(cfg, out) == []
    edit_csv(out / "intervals.csv", 1, "lo", lambda lo: lo + 1e-5)
    assert checks.check_periodic(cfg, out)


def test_zariski_check_rejects_wrong_ranks_and_a_failed_certificate(tmp_path):
    cfg = {"gamma": 0.5, "E_grid": [-1.2, 0.4, 0.0], "depth": 3, "certificate_samples": 10, "seed": 4}
    out = run(tmp_path, "zariski", cfg)
    assert checks.check_zariski(cfg, out) == []
    edit_csv(out / "zariski.csv", 0, "rank", lambda _: 9)
    assert checks.check_zariski(cfg, out)
    out = run(tmp_path, "zariski", cfg, "zero")
    edit_csv(out / "zariski.csv", 2, "rank", lambda _: 10)
    assert checks.check_zariski(cfg, out)
    out = run(tmp_path, "zariski", cfg, "cert")
    edit_json(out / "certificate.json", lambda p: p.update(passed=False))
    assert checks.check_zariski(cfg, out)


def test_lr_stats_check_rejects_growth_and_a_dense_route_mismatch(tmp_path):
    cfg = {**model(4, rho={"kind": "uniform", "a": 2.5, "b": 3.5}), "n_verify": 4, "j": 0,
           "ks": [1, 2, 3], "t_max": 10.0, "t_points": 60, "num_realizations": 3,
           "observables": ["x", "x"], "method": "fermionic"}
    out = run(tmp_path, "lr-stats", cfg)
    ref = checks.reference_lr_stats(cfg)
    assert checks.check_lr_stats(cfg, out, ref) == []
    edit_csv(out / "lr_stats.csv", 0, "mean_sup_comm", lambda m: m + 1e-6)
    assert any("dense" in p for p in checks.check_lr_stats(cfg, out, ref))
    for row, mean in ((1, 0.5), (2, 0.9)):
        edit_csv(out / "lr_stats.csv", row, "mean_sup_comm", lambda _: mean)
        edit_csv(out / "lr_stats.csv", row, "se", lambda _: 0.01)
    assert any("increase" in p for p in checks.check_lr_stats(cfg, out, None))
    edit_csv(out / "lr_stats.csv", 0, "mean_sup_comm", lambda _: 2.1)
    assert any("leave" in p for p in checks.check_lr_stats(cfg, out, None))


def test_xy_verify_check_rejects_a_large_residual(tmp_path):
    cfg = {**model(5, rho={"kind": "uniform", "a": -1.5, "b": 1.5}), "n_verify": 5,
           "t_list": [0.5, 1.7]}
    out = run(tmp_path, "xy-verify", cfg)
    assert checks.check_xy_verify(cfg, out) == []
    edit_json(out / "xy_verify.json", lambda p: p.update(heisenberg_max_residual=1e-6))
    assert checks.check_xy_verify(cfg, out)


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_a_function_of_the_seed(workload):
    assert workloads.jobs_for(workload, 7) == workloads.jobs_for(workload, 7)
    assert workloads.jobs_for(workload, 7) != workloads.jobs_for(workload, 8)
    for job in workloads.jobs_for(workload, 7):
        assert job.command in checks.CHECKS
        assert job.group in (None, "a", "b", "c")


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    from randblock import localization, spectral
    from tracing import Tracer

    originals = (cli.main, spectral.eigensolve, localization.eigensolve, np.linalg.qr)
    tracer = Tracer()
    tracer.install()
    try:
        run(tmp_path, "lyapunov", {**model(2), "E": [0.9, 0.4], "steps": 2000, "reorth_every": 10})
        run(tmp_path, "wegner-probe", {**model(2), "E": 0.8, "L_list": [10], "beta": 0.5, "sigma": 0.5,
                                       "samples": 3}, "wegner")
    finally:
        tracer.uninstall()
    assert (cli.main, spectral.eigensolve, localization.eigensolve, np.linalg.qr) == originals
    m = tracer.layer_metrics()
    assert m["cli.main.calls"] == 2
    assert m["lyapunov.lyapunov_spectrum.calls"] == 1 and m["lyapunov.steps"] >= 2000
    assert m["lyapunov.qr.calls"] == m["lyapunov.steps"] / 10
    assert m["spectral.eigensolve.values.calls"] == 3 and m["spectral.eigensolve.max_dim"] == 20
