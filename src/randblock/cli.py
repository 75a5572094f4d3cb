"""Command line driver.

Every subcommand reads one JSON config, writes its results under --out, and
embeds the config in each output file (a `# config:` line in CSV, a
"config" key in JSON) so results stay traceable to their inputs.  Exit
codes: 0 success, 2 bad config, 3 numerical failure; failures also emit a
machine-readable JSON object on stderr.  --threads (or RANDBLOCK_THREADS)
only parallelizes independent realizations and never changes any number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import localization, lyapunov, spectral, transfer, xy_oracle
from .errors import ConfigError, NumericalFailure
from .furstenberg import energy_sweep_rank, zero_energy_reducibility_certificate
from .model import (
    ModelParams,
    assemble_block_jacobi,
    assemble_hat_form,
    params_from_config,
    random_instance,
    realization_rng,
    rho_from_config,
    sample_disorder,
    write_dense_csv,
)
from .parallel import resolve_threads


def _config_line(cfg: dict) -> str:
    return "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, cfg: dict, header: Sequence[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(_config_line(cfg) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: str, cfg: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"config": cfg, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required field {key!r}")
    return cfg[key]


_REQUIRED = object()


def _number(value, kind: type, name: str):
    """kind(value) for a config value; a value kind cannot take is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from exc


def _field(cfg: dict, key: str, kind: type, default=_REQUIRED):
    """cfg[key] converted by kind, or default when absent; required without a default."""
    value = _require(cfg, key) if default is _REQUIRED else cfg.get(key, default)
    return _number(value, kind, key)


def _resolve_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config field 'seed' or --seed)")
    cfg["seed"] = _number(seed, int, "seed")  # embedded provenance must reproduce the run
    return cfg["seed"]


def _complex_pair(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        z = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        z = complex(_number(value[0], float, name), _number(value[1], float, name))
    else:
        raise ConfigError(f"{name} must be a number or [re, im] pair")
    if not np.isfinite(z):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return z


def _progress(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    num = _field(cfg, "num_realizations", int, 1)
    specs = spectral.ensemble_spectra(params, num, seed, threads=args.threads)
    rows = []
    for r, spec in enumerate(specs):
        for i, lam in enumerate(spec.eigenvalues):
            rows.append((r, i, lam))
    _write_csv(os.path.join(out, "eigenvalues.csv"), cfg, ["realization", "index", "lambda"], rows)
    if cfg.get("dump_matrix", False):
        real = sample_disorder(params, seed, 0)
        write_dense_csv(assemble_block_jacobi(params, real), os.path.join(out, "matrix.csv"))
    _progress(args, f"diagonalized {num} realizations of n={params.n}")


def _cmd_dos(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    num = _field(cfg, "num_realizations", int, 20)
    bins = _field(cfg, "bins", int, 50)
    specs = spectral.ensemble_spectra(params, num, seed, threads=args.threads)
    dos = spectral.dos_histogram(specs, bins=bins)
    rows = zip(dos.edges[:-1], dos.edges[1:], dos.mass)
    _write_csv(os.path.join(out, "dos.csv"), cfg, ["bin_lo", "bin_hi", "mass"], rows)
    _progress(args, f"dos over {num} realizations, total mass {dos.total_mass}")


def _cmd_periodic(cfg: dict, out: str, args) -> None:
    potential = _require(cfg, "potential")
    gamma = _field(cfg, "gamma", float)
    bands = spectral.periodic_spectrum(potential, gamma)
    _write_csv(os.path.join(out, "intervals.csv"), cfg, ["lo", "hi"], bands.intervals)
    _progress(args, f"{bands.intervals.shape[0]} bands")


def _cmd_asspec(cfg: dict, out: str, args) -> None:
    rho = rho_from_config(_require(cfg, "rho"))
    gamma = _field(cfg, "gamma", float)
    union = spectral.almost_sure_spectrum_approx(
        rho,
        gamma,
        max_period=_field(cfg, "max_period", int, 2),
        samples_per_period=_field(cfg, "samples_per_period", int, 41),
    )
    _write_csv(os.path.join(out, "intervals.csv"), cfg, ["lo", "hi"], union.intervals)
    _progress(args, f"{union.intervals.shape[0]} intervals, hull {union.hull}")


# largest L_max * max(ell_values) of green-check and charpoly-check: their dense
# (L ell)^2 reference takes 256 MB per complex copy at this size
_MAX_DENSE_DIM = 4000


def _random_chains(cfg: dict, args, default_instances: int, stream: int):
    """Yield (i, ell, L, M) for the random finite chains of green-check and charpoly-check."""
    seed = _resolve_seed(cfg, args)
    instances = _field(cfg, "instances", int, default_instances)
    ell_values = cfg.get("ell_values", [1, 2, 3])
    if not isinstance(ell_values, list) or not ell_values:
        raise ConfigError(f"ell_values must be a non-empty list of integers, got {ell_values!r}")
    ell_values = [_number(e, int, "ell_values") for e in ell_values]
    L_max = _field(cfg, "L_max", int, 50)
    if instances < 1 or min(ell_values) < 1 or L_max < 2:
        raise ConfigError("need instances >= 1, every ell_values entry >= 1 and L_max >= 2")
    if L_max * max(ell_values) > _MAX_DENSE_DIM:
        raise ConfigError(
            f"L_max * max(ell_values) = {L_max * max(ell_values)} exceeds {_MAX_DENSE_DIM}, "
            "the largest dense reference matrix built"
        )
    rng = realization_rng(seed, stream)
    for i in range(instances):
        ell = int(rng.choice(ell_values))
        L = int(rng.integers(2, L_max + 1))
        yield i, ell, L, random_instance(rng, ell, L)


def _cmd_green_check(cfg: dict, out: str, args) -> None:
    z = _complex_pair(cfg.get("z", [0.7, 0.3]), "z")
    rows = []
    worst_cond = 0.0
    for i, ell, L, M in _random_chains(cfg, args, 100, 0):
        evaluator = transfer.GreenEvaluator(M, z)
        worst_cond = max(worst_cond, evaluator.pivot_cond)
        resolvent = np.linalg.inv(M.dense() - z * np.eye(L * ell))
        scale = np.linalg.norm(resolvent, 2)
        reference = resolvent.reshape(L, ell, L, ell).swapaxes(1, 2)
        worst = float(np.max(np.abs(evaluator.blocks() - reference)))
        W = transfer.wronskian(*transfer.fundamental_solutions(M, z), None)
        wdev = float(np.max(np.abs(W - W[0]))) / max(1.0, float(np.max(np.abs(W[0]))))
        rows.append((i, ell, L, z.real, z.imag, worst / scale, wdev))
    _write_csv(
        os.path.join(out, "green_check.csv"),
        cfg,
        ["instance", "ell", "L", "z_re", "z_im", "green_err", "wronskian_dev"],
        rows,
    )
    _progress(args, f"worst green err {max(r[5] for r in rows):.3e}, worst pivot cond {worst_cond:.3e}")


def _cmd_charpoly_check(cfg: dict, out: str, args) -> None:
    E = _complex_pair(cfg.get("E", 0.37), "E")
    rows = []
    for i, ell, L, M in _random_chains(cfg, args, 20, 1):
        rep = transfer.charpoly_identity_check(M, E)
        rows.append((i, ell, L, E.real, E.imag, rep.identity_residual, rep.exterior_residual))
    _write_csv(
        os.path.join(out, "charpoly.csv"),
        cfg,
        ["instance", "ell", "L", "E_re", "E_im", "identity_residual", "exterior_residual"],
        rows,
    )
    _progress(args, f"worst identity residual {max(r[5] for r in rows):.3e}")


def _cmd_lyapunov(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    E = _complex_pair(_require(cfg, "E"), "E")
    steps = _field(cfg, "steps", int, lyapunov.DEFAULT_STEPS)
    reorth = _field(cfg, "reorth_every", int, lyapunov.DEFAULT_REORTH)
    cfg.setdefault("steps", steps)
    cfg.setdefault("reorth_every", reorth)
    spec = lyapunov.lyapunov_spectrum(params, E, steps=steps, seed=seed, reorth_every=reorth)
    m = spec.exponents.size
    header = (
        ["E_re", "E_im"]
        + [f"gamma_{p}" for p in range(1, m + 1)]
        + [f"se_{p}" for p in range(1, m + 1)]
        + ["steps", "seed"]
    )
    row = [E.real, E.imag, *spec.exponents, *spec.se, spec.steps, seed]
    _write_csv(os.path.join(out, "lyapunov.csv"), cfg, header, [row])
    _progress(args, f"exponents {spec.exponents}")


def _cmd_thouless(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    energies = [_complex_pair(e, "energies[]") for e in _require(cfg, "energies")]
    steps = _field(cfg, "steps", int, lyapunov.DEFAULT_STEPS)
    dos_cfg = cfg.get("dos", {})
    if not isinstance(dos_cfg, dict):
        raise ConfigError(f"dos must be an object, got {dos_cfg!r}")
    dos_n = _field(dos_cfg, "n", int, params.n)
    dos_num = _field(dos_cfg, "num_realizations", int, 20)
    dos_bins = _field(dos_cfg, "bins", int, 50)
    cfg.setdefault("steps", steps)
    cfg["dos"] = {"n": dos_n, "num_realizations": dos_num, "bins": dos_bins, **dos_cfg}
    dos_params = ModelParams.xy(n=dos_n, gamma=float(params.gamma[0]), rho=params.rho, mu=float(params.mu[0]))
    specs = spectral.ensemble_spectra(dos_params, dos_num, seed + 1, threads=args.threads)
    dos = spectral.dos_histogram(specs, bins=dos_bins)
    rows = []
    for E in energies:
        rep = lyapunov.thouless_check(params, E, dos, steps=steps, seed=seed)
        rows.append(
            (E.real, E.imag, rep.index_value, rep.index_se, rep.hopping_term, rep.dos_term,
             rep.predicted, rep.residual)
        )
        _progress(args, f"E={E}: residual {rep.residual:+.5f}")
    _write_csv(
        os.path.join(out, "thouless.csv"),
        cfg,
        ["E_re", "E_im", "lyap_index", "lyap_se", "hopping_term", "dos_term", "predicted", "residual"],
        rows,
    )


def _cmd_zero_energy(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    gamma = float(params.gamma[0])
    steps = _field(cfg, "steps", int, lyapunov.DEFAULT_STEPS)
    cfg.setdefault("steps", steps)
    aux = lyapunov.zero_energy_aux_exponent(gamma, params.rho, steps=steps, seed=seed)
    pred = lyapunov.zero_energy_closed_form(gamma, aux)
    direct = lyapunov.lyapunov_spectrum(params, 0.0, steps=steps, seed=seed + 1)
    payload = {
        "gamma": gamma,
        "branch": pred.branch,
        "shift": pred.shift,
        "aux_exponent": {"value": aux.value, "se": aux.se, "steps": aux.steps},
        "predicted": list(map(float, pred.exponents)),
        "predicted_se": list(map(float, pred.se)),
        "direct": list(map(float, direct.exponents)),
        "direct_se": list(map(float, direct.se)),
        "max_deviation_in_se": float(
            np.max(np.abs(pred.exponents - direct.exponents) / np.sqrt(pred.se**2 + direct.se**2))
        ),
    }
    _write_json(os.path.join(out, "zero_energy.json"), cfg, payload)
    _progress(args, f"deviation {payload['max_deviation_in_se']:.2f} se")


def _cmd_alpha_scan(cfg: dict, out: str, args) -> None:
    seed = _resolve_seed(cfg, args)
    gamma = _field(cfg, "gamma", float)
    rho = rho_from_config(_require(cfg, "rho"))
    steps = _field(cfg, "steps", int, lyapunov.DEFAULT_STEPS)
    grid_points = _field(cfg, "grid_points", int, 9)
    cfg.setdefault("steps", steps)
    cfg.setdefault("grid_points", grid_points)
    result = lyapunov.critical_alpha_scan(
        gamma,
        rho,
        _field(cfg, "alpha_lo", float),
        _field(cfg, "alpha_hi", float),
        steps=steps,
        seed=seed,
        grid_points=grid_points,
    )
    rows = zip(result.alphas, result.f_values, result.se_values)
    _write_csv(os.path.join(out, "scan.csv"), cfg, ["alpha", "f_alpha", "se"], rows)
    _write_json(
        os.path.join(out, "scan_roots.json"),
        cfg,
        {"shift": result.shift, "roots": [list(r) for r in result.roots], "bracketed": result.bracketed},
    )
    _progress(args, f"roots {result.roots}")


def _cmd_zariski(cfg: dict, out: str, args) -> None:
    gamma = _field(cfg, "gamma", float)
    grid = [_number(E, float, "E_grid") for E in _require(cfg, "E_grid")]
    depth = _field(cfg, "depth", int, 3)
    records = energy_sweep_rank(gamma, grid, depth=depth)
    rows = [(r.E, r.dimension, r.marginal) for r in records]
    _write_csv(os.path.join(out, "zariski.csv"), cfg, ["E", "rank", "marginal_flag"], rows)
    if cfg.get("certificate_samples"):
        seed = _resolve_seed(cfg, args)
        rng = realization_rng(seed, 2)
        nu = rng.uniform(-2.0, 2.0, _field(cfg, "certificate_samples", int))
        cert = zero_energy_reducibility_certificate(gamma, nu)
        _write_json(
            os.path.join(out, "certificate.json"),
            cfg,
            {
                "branch": cert.branch,
                "pattern_max_dev": cert.pattern_max_dev,
                "block_max_dev": cert.block_max_dev,
                "det_max_dev": cert.det_max_dev,
                "num_samples": cert.num_samples,
                "passed": cert.passed,
            },
        )
    _progress(args, f"ranks {sorted({r.dimension for r in records})}")


def _cmd_correlator(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    window = _require(cfg, "window")
    if not (
        isinstance(window, (list, tuple))
        and len(window) == 2
        and all(isinstance(x, (int, float)) and math.isfinite(x) for x in window)
        and window[0] <= window[1]
    ):
        raise ConfigError(f"window must be [lo, hi], two finite numbers with lo <= hi, got {window!r}")
    num = _field(cfg, "num_realizations", int, 100)
    zeta = _field(cfg, "zeta", float, 0.9)
    lo, hi = (_number(x, float, "window") for x in window)
    field = localization.ensemble_correlator(params, (lo, hi), num, seed, threads=args.threads)
    fit = localization.fit_decay(field, zeta=zeta, boundary=_field(cfg, "boundary", int, 5))
    rows = zip(fit.distances, fit.mean_logs, fit.bin_se, fit.counts)
    _write_csv(os.path.join(out, "correlator.csv"), cfg, ["dist", "mean_logQ", "se", "count"], rows)
    _write_json(
        os.path.join(out, "fit.json"),
        cfg,
        {
            "zeta": fit.zeta,
            "eta": fit.eta,
            "eta_ci": [fit.eta_ci[0], fit.eta_ci[1]],
            "C": float(np.exp(fit.log_C)),
            "eta_se": fit.eta_se,
            "curvature_flag": fit.curvature_flag,
        },
    )
    _progress(args, f"eta {fit.eta:.4f} ci {fit.eta_ci}")


def _cmd_wegner_probe(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    records = localization.wegner_probe(
        params,
        _field(cfg, "E", float),
        [_number(L, int, "L_list") for L in _require(cfg, "L_list")],
        beta=_field(cfg, "beta", float),
        sigma=_field(cfg, "sigma", float),
        samples=_field(cfg, "samples", int, 100),
        seed=seed,
        threads=args.threads,
    )
    rows = [(r.L, r.eps, r.probability) for r in records]
    _write_csv(os.path.join(out, "wegner.csv"), cfg, ["L", "eps", "probability"], rows)
    _progress(args, f"probabilities {[r.probability for r in records]}")


def _cmd_xy_verify(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    n = _field(cfg, "n_verify", int, min(params.n, 6))
    t_list = [_number(t, float, "t_list") for t in cfg.get("t_list", [0.5, 1.7, 5.0])]
    real = sample_disorder(params, seed, 0)
    sliced_params, sliced_real = xy_oracle.slice_chain(params, real, n)
    H = xy_oracle.build_hamiltonian(sliced_params, sliced_real, n)
    Mhat = assemble_hat_form(sliced_params, sliced_real)
    fermions = xy_oracle.build_jordan_wigner(min(n, 8))
    quad = xy_oracle.verify_quadratic_form(H, Mhat)
    heis = xy_oracle.verify_heisenberg_identity(params, real, n, t_list)
    free_dev = xy_oracle.verify_free_fermion_spectrum(H, Mhat)
    payload = {
        "n": n,
        "car_defect": fermions.car_defect(),
        "quadratic_residual": quad.residual,
        "heisenberg_max_residual": heis.max_residual,
        "free_fermion_residual": free_dev,
        "scale": quad.scale,
        "shift_per_site": quad.shift_per_site,
    }
    _write_json(os.path.join(out, "xy_verify.json"), cfg, payload)
    _write_json(
        os.path.join(out, "convention.json"),
        cfg,
        {"scale": quad.scale, "shift_per_site": quad.shift_per_site},
    )
    _progress(args, f"quadratic residual {quad.residual:.2e}")


def _cmd_lr_stats(cfg: dict, out: str, args) -> None:
    params = params_from_config(cfg)
    seed = _resolve_seed(cfg, args)
    n = _field(cfg, "n_verify", int, min(params.n, 8))
    j = _field(cfg, "j", int, 0)
    ks = [_number(k, int, "ks") for k in cfg.get("ks", list(range(j + 1, n)))]
    t_max = _field(cfg, "t_max", float, 10.0)
    t_points = _field(cfg, "t_points", int, 400)
    stats = xy_oracle.lr_commutator_stats(
        params,
        n,
        j,
        ks,
        t_grid=np.linspace(0.0, t_max, t_points),
        num_realizations=_field(cfg, "num_realizations", int, 50),
        seed=seed,
        observables=tuple(cfg.get("observables", ["x", "x"])),
        method=cfg.get("method", "auto"),
        threads=args.threads,
    )
    rows = [(s.separation, s.mean_sup, s.se) for s in stats]
    _write_csv(os.path.join(out, "lr_stats.csv"), cfg, ["separation", "mean_sup_comm", "se"], rows)
    _progress(args, f"means {[round(s.mean_sup, 4) for s in stats]}")


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "dos": _cmd_dos,
    "periodic": _cmd_periodic,
    "asspec": _cmd_asspec,
    "green-check": _cmd_green_check,
    "charpoly-check": _cmd_charpoly_check,
    "lyapunov": _cmd_lyapunov,
    "thouless": _cmd_thouless,
    "zero-energy": _cmd_zero_energy,
    "alpha-scan": _cmd_alpha_scan,
    "zariski": _cmd_zariski,
    "correlator": _cmd_correlator,
    "wegner-probe": _cmd_wegner_probe,
    "xy-verify": _cmd_xy_verify,
    "lr-stats": _cmd_lr_stats,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", required=True, help="output directory (created if missing)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--threads", type=int, default=None, help="worker threads (default: RANDBLOCK_THREADS or 1)")
    common.add_argument("--verbose", action="store_true", help="progress messages on stderr")
    parser = argparse.ArgumentParser(prog="randblock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sub.add_parser(name, parents=[common])
    return parser


def run(argv: Sequence[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    resolve_threads(args.threads)  # validate early
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    _HANDLERS[args.command](cfg, args.out, args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        run(argv)
    except ConfigError as exc:
        json.dump({"error": str(exc), "kind": "config"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericalFailure as exc:
        json.dump({"error": str(exc), "kind": "numerical"}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
