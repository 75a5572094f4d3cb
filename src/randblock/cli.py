"""Command line driver.

Every subcommand reads one JSON config, writes its results under --out, and
embeds its effective config in each output file (a `# config:` line in CSV,
a "config" key in JSON) so results reproduce from their own files.  Every
field is declared once, in `_COMMANDS` or the model tables it reuses, with a
type, a default, a lower bound and, for a field that sizes an array or
counts realizations, instances or samples, the upper bound `_MAX_SIZE`
(`_MAX_STEPS` for cocycle steps).  `model._parse` checks them all and writes
each absent field into the embedded config with its default; a subcommand
that holds many chains also bounds their total sites by `_MAX_SIZE`.

Exit codes: 0 success, 2 bad config, 3 numerical failure; failures also emit a
machine-readable JSON object on stderr, and an almost surely constant disorder
law emits {"warning": ..., "kind": "TrivialDisorderWarning"} there.  Every
subcommand draws its realizations one after another, in index order
(green-check and charpoly-check then run them as lanes of passes).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import localization, lyapunov, spectral, transfer, xy_oracle
from .errors import ConfigError, NumericalFailure
from .furstenberg import lie_closure_dimension, zero_energy_reducibility_certificate
from .model import (
    _MAX_SIZE,
    _MODEL_FIELDS,
    _REQUIRED,
    Field,
    ModelParams,
    TrivialDisorderWarning,
    _float,
    _int,
    _list,
    _parse,
    assemble_block_jacobi,
    assemble_hat_form,
    random_instance,
    realization_rng,
    sample_disorder,
    write_dense_csv,
)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, cfg: dict, header: Sequence[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write("# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: str, cfg: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"config": cfg, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _progress(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# field types besides those of model: each maps a JSON value to its parsed value


def _positive(value, name: str) -> float:
    if not _float(value, name) > 0.0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return float(value)


def _complex(value, name: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_float(value[0], name), _float(value[1], name))
    return complex(_float(value, name))


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _window(value, name: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2) or _float(value[0], name) > _float(value[1], name):
        raise ConfigError(f"{name} must be [lo, hi] with lo <= hi, got {value!r}")
    return float(value[0]), float(value[1])


def _paulis(value, name: str) -> tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2 and all(p in ("x", "y", "z") for p in value)):
        raise ConfigError(f'{name} must be two of "x", "y", "z", got {value!r}')
    return tuple(value)


# upper bound of the cocycle steps, which set only the amount of work; the
# largest step count of the tests and the benchmark is the default 100,000
_MAX_STEPS = 10**9


def _parse_config(command: str, cfg, seed: int | None = None) -> SimpleNamespace:
    """The values a subcommand runs with; cfg becomes its effective config."""
    fields = _COMMANDS[command][1]
    if seed is not None and "seed" in fields and isinstance(cfg, dict):
        cfg["seed"] = seed  # embedded provenance must reproduce the run
    return SimpleNamespace(**_parse(fields, cfg))


# largest dimension of a dense matrix the CLI builds; a complex matrix of this
# size takes 256 MB per copy
_MAX_DENSE_DIM = 4000
# entries of the largest array of one green-check or charpoly-check pass
_PASS_ENTRIES = 2**17


def _check_dense(what: str, dim: int) -> None:
    if dim > _MAX_DENSE_DIM:
        raise ConfigError(f"{what} = {dim} exceeds {_MAX_DENSE_DIM}, the largest dense matrix built")


def _check_sites(what: str, sites: int) -> None:
    """ConfigError when the chains a subcommand holds at once have more than _MAX_SIZE sites in all."""
    if sites > _MAX_SIZE:
        raise ConfigError(f"{what} = {sites} exceeds {_MAX_SIZE}, the most chain sites held at once")


# ---------------------------------------------------------------------------
# subcommand handlers: each gets the parsed values, the effective config to
# embed, the output directory and the command line arguments


def _params(v, n: int | None = None) -> ModelParams:
    """The chain of the model fields on n sites (default v.n); ModelParams refuses mu = 0 and |gamma| = 1."""
    return ModelParams(n or v.n, v.gamma, v.rho, v.mu)


def _cmd_spectrum(v, cfg: dict, out: str, args) -> None:
    if v.dump_matrix:
        _check_dense("2 n", 2 * v.n)
    _check_sites("num_realizations x n", v.num_realizations * v.n)
    params = _params(v)
    specs = spectral.ensemble_spectra(params, v.num_realizations, v.seed)
    rows = []
    for r, spec in enumerate(specs):
        for i, lam in enumerate(spec.eigenvalues):
            rows.append((r, i, lam))
    _write_csv(os.path.join(out, "eigenvalues.csv"), cfg, ["realization", "index", "lambda"], rows)
    if v.dump_matrix:
        real = sample_disorder(params, v.seed, 0)
        write_dense_csv(assemble_block_jacobi(params, real), os.path.join(out, "matrix.csv"))
    _progress(args, f"diagonalized {v.num_realizations} realizations of n={v.n}")


def _cmd_dos(v, cfg: dict, out: str, args) -> None:
    width = v.num_realizations * (v.bins + 1)  # of the count sweep over every chain and bin edge
    if width > _MAX_SIZE:
        raise ConfigError(f"num_realizations x (bins + 1) = {width} exceeds {_MAX_SIZE}, the widest count sweep")
    _check_sites("num_realizations x n", v.num_realizations * v.n)
    dos = spectral.dos_histogram(_params(v), v.num_realizations, v.seed, v.bins)
    rows = zip(dos.edges[:-1], dos.edges[1:], dos.mass)
    _write_csv(os.path.join(out, "dos.csv"), cfg, ["bin_lo", "bin_hi", "mass"], rows)
    _progress(args, f"dos over {v.num_realizations} realizations, total mass {dos.total_mass}")


def _cmd_periodic(v, cfg: dict, out: str, args) -> None:
    bands = spectral.periodic_spectrum(v.potential, v.gamma)
    _write_csv(os.path.join(out, "intervals.csv"), cfg, ["lo", "hi"], bands.intervals)
    _progress(args, f"{bands.intervals.shape[0]} bands")


def _cmd_asspec(v, cfg: dict, out: str, args) -> None:
    union = spectral.almost_sure_spectrum_approx(
        v.rho, v.gamma, max_period=v.max_period, samples_per_period=v.samples_per_period
    )
    _write_csv(os.path.join(out, "intervals.csv"), cfg, ["lo", "hi"], union.intervals)
    _progress(args, f"{union.intervals.shape[0]} intervals, hull {union.hull}")


def _chain_passes(v, stream: int, cost: Callable[[int], int], check: Callable):
    """Yield (instance, M, result) for the random finite chains of green-check and charpoly-check.

    The chains are drawn from one stream in instance order.  The chains of
    each ell run as one pass, check(chains) giving one result per chain,
    once one more chain would take their number times cost(L) ell x ell
    blocks of the longest above _PASS_ENTRIES entries, and at the end.
    """
    _check_dense("L_max * max(ell_values)", v.L_max * max(v.ell_values))

    def run(chains):
        instances, Ms = zip(*chains)
        try:
            return zip(instances, Ms, check(Ms))
        except NumericalFailure as exc:  # a failure of a pass names the chain, and so its instance
            raise NumericalFailure(f"instance {instances[exc.chain]}: {exc}") from exc

    rng = realization_rng(v.seed, stream)
    passes: dict[int, tuple[int, list]] = {}  # ell -> (longest L, chains)
    for i in range(v.instances):
        ell = int(rng.choice(v.ell_values))
        L = int(rng.integers(2, v.L_max + 1))
        M = random_instance(rng, ell, L)
        longest, chains = passes.get(ell, (L, []))
        if chains and (len(chains) + 1) * cost(max(longest, L)) * ell**2 > _PASS_ENTRIES:
            yield from run(chains)
            longest, chains = L, []
        chains.append((i, M))
        passes[ell] = (max(longest, L), chains)
    for _, chains in passes.values():
        yield from run(chains)


def _cmd_green_check(v, cfg: dict, out: str, args) -> None:
    z = v.z

    def check(chains):
        evaluator = transfer.GreenEvaluator(chains, z)
        Ws = transfer.wronskian(chains, *transfer.fundamental_solutions(chains, z))
        return list(zip(evaluator.blocks(), Ws, evaluator.pivot_cond))

    rows = [None] * v.instances
    worst_cond = 0.0
    for i, M, (G, W, cond) in _chain_passes(v, 0, lambda L: L * L, check):
        L, ell = M.n, M.ell
        worst_cond = max(worst_cond, float(cond))
        resolvent = np.linalg.inv(M.dense() - z * np.eye(L * ell))
        scale = np.linalg.norm(resolvent, 2)
        reference = resolvent.reshape(L, ell, L, ell).swapaxes(1, 2)
        worst = float(np.max(np.abs(G - reference)))
        wdev = float(np.max(np.abs(W - W[0]))) / max(1.0, float(np.max(np.abs(W[0]))))
        rows[i] = (i, ell, L, z.real, z.imag, worst / scale, wdev)
    _write_csv(
        os.path.join(out, "green_check.csv"),
        cfg,
        ["instance", "ell", "L", "z_re", "z_im", "green_err", "wronskian_dev"],
        rows,
    )
    _progress(args, f"worst green err {max(r[5] for r in rows):.3e}, worst pivot cond {worst_cond:.3e}")


def _cmd_charpoly_check(v, cfg: dict, out: str, args) -> None:
    rows = [None] * v.instances
    # a site holds 2 routes x 4 ell x ell blocks of factors
    for i, M, rep in _chain_passes(v, 1, lambda L: 8 * L, lambda chains: transfer.charpoly_identity_check(chains, v.E)):
        rows[i] = (i, M.ell, M.n, v.E.real, v.E.imag, rep.identity_residual, rep.exterior_residual)
    _write_csv(
        os.path.join(out, "charpoly.csv"),
        cfg,
        ["instance", "ell", "L", "E_re", "E_im", "identity_residual", "exterior_residual"],
        rows,
    )
    _progress(args, f"worst identity residual {max(r[5] for r in rows):.3e}")


def _cmd_lyapunov(v, cfg: dict, out: str, args) -> None:
    spec = lyapunov.lyapunov_spectrum(_params(v), v.E, steps=v.steps, seed=v.seed, reorth_every=v.reorth_every)
    m = spec.exponents.size
    header = (
        ["E_re", "E_im"]
        + [f"gamma_{p}" for p in range(1, m + 1)]
        + [f"se_{p}" for p in range(1, m + 1)]
        + ["steps", "seed"]
    )
    row = [v.E.real, v.E.imag, *spec.exponents, *spec.se, spec.steps, v.seed]
    _write_csv(os.path.join(out, "lyapunov.csv"), cfg, header, [row])
    _progress(args, f"exponents {spec.exponents}")


def _cmd_thouless(v, cfg: dict, out: str, args) -> None:
    _check_sites("dos.num_realizations x dos.n", v.dos.num_realizations * v.dos.n)
    dos_params = _params(v, v.dos.n)
    chains = [
        assemble_block_jacobi(dos_params, sample_disorder(dos_params, v.seed + 1, r))
        for r in range(v.dos.num_realizations)
    ]
    rows = []
    for rep in lyapunov.thouless_check(_params(v), v.energies, chains, steps=v.steps, seed=v.seed):
        E = rep.energy
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


def _cmd_zero_energy(v, cfg: dict, out: str, args) -> None:
    params, seed = _params(v), v.seed
    gamma = params.gamma
    aux = lyapunov.zero_energy_aux_exponent(gamma, params.rho, steps=v.steps, seed=seed)
    pred = lyapunov.zero_energy_closed_form(gamma, aux)
    direct = lyapunov.lyapunov_spectrum(params, 0.0, steps=v.steps, seed=seed + 1)
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


def _cmd_alpha_scan(v, cfg: dict, out: str, args) -> None:
    result = lyapunov.critical_alpha_scan(
        v.gamma, v.rho, v.alpha_lo, v.alpha_hi, steps=v.steps, seed=v.seed, grid_points=v.grid_points
    )
    rows = zip(result.alphas, result.f_values, result.se_values)
    _write_csv(os.path.join(out, "scan.csv"), cfg, ["alpha", "f_alpha", "se"], rows)
    _write_json(
        os.path.join(out, "scan_roots.json"),
        cfg,
        {"shift": result.shift, "roots": [list(r) for r in result.roots], "bracketed": result.bracketed},
    )
    _progress(args, f"roots {result.roots}")


def _cmd_zariski(v, cfg: dict, out: str, args) -> None:
    records = [lie_closure_dimension(E, v.gamma) for E in v.E_grid]
    rows = [(r.E, r.dimension, r.marginal, r.smallest_pivot, r.largest_rejected) for r in records]
    _write_csv(os.path.join(out, "zariski.csv"), cfg,
               ["E", "rank", "marginal_flag", "smallest_pivot", "largest_rejected"], rows)
    if v.certificate_samples:
        rng = realization_rng(v.seed, 2)
        nu = rng.uniform(-2.0, 2.0, v.certificate_samples)
        cert = zero_energy_reducibility_certificate(v.gamma, nu)
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


def _cmd_correlator(v, cfg: dict, out: str, args) -> None:
    _check_dense("2 n", 2 * v.n)
    field = localization.ensemble_correlator(_params(v), v.window, v.num_realizations, v.seed)
    fit = localization.fit_decay(field, zeta=v.zeta, boundary=v.boundary)
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


def _cmd_wegner_probe(v, cfg: dict, out: str, args) -> None:
    _check_sites("samples x max(L_list)", v.samples * max(v.L_list))
    records = localization.wegner_probe(
        _params(v), v.E, v.L_list, beta=v.beta, sigma=v.sigma, samples=v.samples, seed=v.seed
    )
    rows = [(r.L, r.eps, r.probability) for r in records]
    _write_csv(os.path.join(out, "wegner.csv"), cfg, ["L", "eps", "probability"], rows)
    _progress(args, f"probabilities {[r.probability for r in records]}")


def _cmd_xy_verify(v, cfg: dict, out: str, args) -> None:
    _check_dense("2**n_verify", 2**v.n_verify)
    params, n = _params(v), v.n_verify
    real = sample_disorder(params, v.seed, 0)
    sliced_params, sliced_real = xy_oracle.slice_chain(params, real, n)
    H = xy_oracle.build_hamiltonian(sliced_params, sliced_real, n)
    Mhat = assemble_hat_form(sliced_params, sliced_real)
    # the CAR check is capped at 8 modes: the n dense complex 2^n x 2^n modes take 740 MB at n = 11
    fermions = xy_oracle.build_jordan_wigner(min(n, 8))
    quad = xy_oracle.verify_quadratic_form(H, Mhat)
    heis = xy_oracle.verify_heisenberg_identity(params, real, n, v.t_list)
    free_dev = xy_oracle.verify_free_fermion_spectrum(H, Mhat)
    payload = {
        "n": n,
        "car_modes": fermions.n,
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


def _cmd_lr_stats(v, cfg: dict, out: str, args) -> None:
    _check_dense("2 n_verify", 2 * v.n_verify)  # the hat matrix of the fermionic route
    if not xy_oracle.fermionic_route(v.j, v.observables):
        _check_dense("2**n_verify", 2**v.n_verify)
    stats = xy_oracle.lr_commutator_stats(
        _params(v),
        v.n_verify,
        v.j,
        v.ks,
        t_grid=np.linspace(0.0, v.t_max, v.t_points),
        num_realizations=v.num_realizations,
        seed=v.seed,
        observables=v.observables,
    )
    rows = [(s.separation, s.mean_sup, s.se) for s in stats]
    _write_csv(os.path.join(out, "lr_stats.csv"), cfg, ["separation", "mean_sup_comm", "se"], rows)
    _progress(args, f"means {[round(s.mean_sup, 4) for s in stats]}")


# ---------------------------------------------------------------------------
# the field table

_SEED = Field(_int)
_MODEL = {**_MODEL_FIELDS, "seed": _SEED}
_STEPS = Field(_int, lyapunov.DEFAULT_STEPS, low=1, high=_MAX_STEPS)
_CHAINS = {"seed": _SEED, "ell_values": Field(_list(_int), [1, 2, 3], low=1), "L_max": Field(_int, 50, low=2)}

_COMMANDS: dict[str, tuple[Callable, dict]] = {
    "spectrum": (_cmd_spectrum, {**_MODEL, "num_realizations": Field(_int, 1, low=1, high=_MAX_SIZE),
                                 "dump_matrix": Field(_bool, False)}),
    "dos": (_cmd_dos, {**_MODEL, "num_realizations": Field(_int, 20, low=1, high=_MAX_SIZE),
                       "bins": Field(_int, 50, low=1, high=_MAX_SIZE)}),
    "periodic": (_cmd_periodic, {"potential": Field(_list(_float)), "gamma": _MODEL["gamma"]}),
    "asspec": (_cmd_asspec, {"rho": _MODEL["rho"], "gamma": _MODEL["gamma"], "max_period": Field(_int, 2, low=1),
                             "samples_per_period": Field(_int, 41, low=1, high=_MAX_SIZE)}),
    "green-check": (_cmd_green_check, {**_CHAINS, "instances": Field(_int, 100, low=1, high=_MAX_SIZE),
                                       "z": Field(_complex, [0.7, 0.3])}),
    "charpoly-check": (_cmd_charpoly_check, {**_CHAINS, "instances": Field(_int, 20, low=1, high=_MAX_SIZE),
                                             "E": Field(_complex, 0.37)}),
    "lyapunov": (_cmd_lyapunov, {**_MODEL, "E": Field(_complex), "steps": _STEPS,
                                 "reorth_every": Field(_int, lyapunov.DEFAULT_REORTH, low=1)}),
    "thouless": (_cmd_thouless, {**_MODEL, "energies": Field(_list(_complex)), "steps": _STEPS,
                                 "dos": Field({"n": Field(_int, lambda v: v["n"], low=2, high=_MAX_SIZE),
                                               "num_realizations": Field(_int, 20, low=1, high=_MAX_SIZE)}, {})}),
    "zero-energy": (_cmd_zero_energy, {**_MODEL, "steps": _STEPS}),
    "alpha-scan": (_cmd_alpha_scan, {"seed": _SEED, "gamma": _MODEL["gamma"], "rho": _MODEL["rho"],
                                     "alpha_lo": Field(_float), "alpha_hi": Field(_float), "steps": _STEPS,
                                     "grid_points": Field(_int, 9, low=1, high=_MAX_SIZE)}),
    "zariski": (_cmd_zariski, {"gamma": _MODEL["gamma"], "E_grid": Field(_list(_float)),
                               "certificate_samples": Field(_int, 0, low=0, high=_MAX_SIZE),
                               # only the certificate draws, so a run without one needs no seed
                               "seed": Field(_int, lambda v: _REQUIRED if v["certificate_samples"] else 0)}),
    "correlator": (_cmd_correlator, {**_MODEL, "window": Field(_window),
                                     "num_realizations": Field(_int, 100, low=1, high=_MAX_SIZE),
                                     "zeta": Field(_positive, 0.9),
                                     "boundary": Field(_int, 5, low=0, high=lambda v: (v["n"] - 2) // 2)}),
    "wegner-probe": (_cmd_wegner_probe, {**_MODEL, "E": Field(_float),
                                         "L_list": Field(_list(_int), low=2, high=_MAX_SIZE),
                                         "beta": Field(_positive), "sigma": Field(_positive),
                                         "samples": Field(_int, 100, low=1, high=_MAX_SIZE)}),
    "xy-verify": (_cmd_xy_verify, {**_MODEL, "n_verify": Field(_int, lambda v: min(v["n"], 6), low=2,
                                                                  high=lambda v: v["n"]),
                                   "t_list": Field(_list(_float), [0.5, 1.7, 5.0])}),
    "lr-stats": (_cmd_lr_stats, {**_MODEL, "n_verify": Field(_int, lambda v: min(v["n"], 8), low=2,
                                                                high=lambda v: v["n"]),
                                 "j": Field(_int, 0, low=0),
                                 "ks": Field(_list(_int), lambda v: list(range(v["j"] + 1, v["n_verify"]))),
                                 "t_max": Field(_float, 10.0), "t_points": Field(_int, 400, low=1, high=_MAX_SIZE),
                                 "num_realizations": Field(_int, 50, low=1, high=_MAX_SIZE),
                                 "observables": Field(_paulis, ["x", "x"])}),
}


@functools.cache  # one parser per process: building it takes about 1 ms, as much as a small job
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", required=True, help="output directory (created if missing)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--verbose", action="store_true", help="progress messages on stderr")
    parser = argparse.ArgumentParser(prog="randblock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def run(argv: Sequence[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    values = _parse_config(args.command, cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    _COMMANDS[args.command][0](values, cfg, args.out, args)


def _show_warning(show, message, category, *args) -> None:
    """A TrivialDisorderWarning becomes one JSON line on stderr; `show` gets every other warning."""
    if issubclass(category, TrivialDisorderWarning):
        print(json.dumps({"warning": str(message), "kind": "TrivialDisorderWarning"}), file=sys.stderr)
    else:
        show(message, category, *args)


def main(argv: Sequence[str] | None = None) -> int:
    # catch_warnings restores showwarning on exit and leaves the filters as they are
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        try:
            run(argv)
        except ConfigError as exc:
            print(json.dumps({"error": str(exc), "kind": "config"}), file=sys.stderr)
            return 2
        except NumericalFailure as exc:
            print(json.dumps({"error": str(exc), "kind": "numerical"}), file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
