"""Benchmark of the `randblock` command line, run in-process.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

One run is one fresh process with the program's defaults: no --threads,
RANDBLOCK_THREADS and the BLAS thread count as found (they are recorded,
never changed).  A run

1. sets up: imports the program from `src/`, writes the job configs that
   the seed determines (see workloads.py) and runs a small warm-up job of
   every kind;
2. runs whole rounds of the workload's jobs, each job one call of
   `randblock.cli.main(argv)`, until the next round would end after
   --seconds (at least one round; with --trace 1, pairs of an untraced and a
   traced round);
3. sets up twice more in child processes, so that set-up time is a median;
4. checks every job of every round against references computed apart from
   the program (checks.py);
5. prints a summary and, as the last line of standard output, one JSON
   object: correct, attempted, failed and the metrics (the end-to-end ones
   with --trace 0, the per-layer ones with --trace 1).

A job fails when the CLI exits non-zero, raises, or its output fails its
check.  `correct` is false when any job fails other than the known fault
marked in workloads.py.  Run records go to bench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_PROBES = 2  # child processes that repeat the set-up
PROBE_TIMEOUT_S = 120
# Machine speed on a shared host drifts by up to a third within minutes.  Every
# job is bracketed by a fixed calibration kernel, and times are reported at
# the nominal speed: raw seconds * CALIBRATION_NOMINAL_S / calibration seconds.
CALIBRATION_KIND = {"ensemble": "lapack", "cocycle": "interpreter", "bands-oracles": "interpreter"}
CALIBRATION_NOMINAL_S = {"lapack": 0.019, "interpreter": 0.014}
THREAD_ENV = ("RANDBLOCK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("group_a_s", "s"), ("group_b_s", "s"), ("group_c_s", "s")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "cocycle", "bands-oracles"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (used by the run itself)")
    return parser.parse_args(argv)


def import_program():
    """Import `randblock` from this checkout's src/, never from elsewhere."""
    package = SRC / "randblock"
    if not (package / "cli.py").is_file():
        raise RuntimeError(f"no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import randblock.cli

    if Path(randblock.cli.__file__).resolve().parent != package.resolve():
        raise RuntimeError(f"imported randblock from {randblock.cli.__file__}, not {package}")
    return randblock.cli


def write_configs(jobs, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        (cfg_dir / f"{job.name}.json").write_text(json.dumps(job.cfg, indent=1))


def run_job(cli, job, cfg_dir: Path, out: Path) -> tuple[float, int | None, str]:
    """(wall seconds, exit code or None if it raised, error text)."""
    argv = [job.command, "--config", str(cfg_dir / f"{job.name}.json"), "--out", str(out)]
    start = time.perf_counter()
    try:
        code, error = cli.main(argv), ""
    except Exception:  # a crash is a failed job; the run goes on
        code, error = None, traceback.format_exc()
    return time.perf_counter() - start, code, error


def set_up(workload: str, seed: int, workdir: Path):
    """Import, config generation and warm-up; returns (cli, jobs, seconds)."""
    start = time.perf_counter()
    cli = import_program()
    from workloads import jobs_for, warmup_jobs

    jobs = jobs_for(workload, seed)
    warm = warmup_jobs(workload)
    write_configs(jobs + warm, workdir / "configs")
    for job in warm:
        _, code, error = run_job(cli, job, workdir / "configs", workdir / "warmup" / job.name)
        if code != 0:
            raise RuntimeError(f"warm-up job {job.name} failed with {code}: {error}")
    return cli, jobs, time.perf_counter() - start


def calibrate(kind: str) -> float:
    """Fastest of three passes of a fixed kernel like the workload's work.

    "lapack" is one dense symmetric eigensolve with the default BLAS
    threads; "interpreter" mixes a Python loop, 4x4 numpy products and QR,
    and a small eigensolve.  Garbage left by the previous job is collected
    first, outside the passes.
    """
    import numpy as np

    gc.collect()
    size = 600 if kind == "lapack" else 200
    matrix = np.cos(np.add.outer(np.arange(float(size)), np.arange(float(size))))
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        if kind == "interpreter":
            total = 0
            for i in range(100_000):
                total += i * i
            x, a = np.eye(4), np.full((4, 4), 0.25) + np.eye(4)
            for _ in range(150):
                x, _ = np.linalg.qr(a @ x)
        np.linalg.eigvalsh(matrix)
        passes.append(time.perf_counter() - start)
    return min(passes)


def run_round(cli, workload: str, jobs, workdir: Path, label: str, tracer=None) -> dict:
    """Per job: (seconds, exit code, error, calibration seconds around the job)."""
    results = {}
    kind = CALIBRATION_KIND[workload]
    before = calibrate(kind)
    for job in jobs:
        out = workdir / label / job.name
        if tracer is not None:
            tracer.job = job.name
            tracer.install()
        try:
            seconds, code, error = run_job(cli, job, workdir / "configs", out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.counters["cli.artifact_bytes"] += sum(f.stat().st_size for f in out.glob("*"))
        after = calibrate(kind)
        results[job.name] = (seconds, code, error, 0.5 * (before + after))
        before = after
    return results


def job_seconds(workload: str, jobs, rounds: list[dict], normalized: bool = True) -> dict:
    """Median over rounds of each timed job, rescaled to the nominal machine speed."""
    nominal = CALIBRATION_NOMINAL_S[CALIBRATION_KIND[workload]]
    return {
        job.name: statistics.median(
            r[job.name][0] * (nominal / r[job.name][3] if normalized else 1.0)
            for r in rounds)
        for job in jobs if not job.known_fault
    }


def group_times(jobs, seconds: dict) -> dict:
    """wall_s and group_<x>_s from per-job times; the known fault is timed in neither."""
    times = {"wall_s": 0.0, "group_a_s": 0.0, "group_b_s": 0.0, "group_c_s": 0.0}
    for job in jobs:
        if job.known_fault:
            continue
        times["wall_s"] += seconds[job.name]
        if job.group is not None:
            times[f"group_{job.group}_s"] += seconds[job.name]
    return times


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def check_rounds(jobs, rounds: list[tuple[str, dict]], workdir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems of unexpected failures) over all rounds."""
    from checks import CHECKS

    refs = {}
    for job in jobs:
        build = CHECKS[job.command][0]
        if build is not None:
            refs[job.name] = build(job.cfg)
    attempted = failed = 0
    unexpected = []
    for label, results in rounds:
        for job in jobs:
            attempted += 1
            _, code, error, _ = results[job.name]
            out = workdir / label / job.name
            if code != 0:
                problems = [f"exit code {code} {error.strip()}"]
            else:
                ref = workdir / label / job.partner if job.partner else refs.get(job.name)
                try:
                    problems = CHECKS[job.command][1](job.cfg, out, ref)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                if not job.known_fault:
                    unexpected.append(f"{label}/{job.name}: " + "; ".join(problems))
    return attempted, failed, unexpected


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (KeyError, TypeError):
        pass
    cpu = ""
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cli_threads": "default (no --threads)",
    }


def measure(args) -> dict:
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=RUNS))
    try:
        cli, jobs, setup_s = set_up(args.workload, args.seed, workdir)
        kind = CALIBRATION_KIND[args.workload]
        setup_s *= CALIBRATION_NOMINAL_S[kind] / statistics.median(calibrate(kind) for _ in range(3))
        if args.setup_probe:
            return {"setup_s": setup_s}

        rounds: list[tuple[str, dict]] = []
        plain, traced = [], []
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        start = time.perf_counter()
        while True:
            step = time.perf_counter()
            plain.append(run_round(cli, args.workload, jobs, workdir, f"r{len(rounds)}"))
            rounds.append((f"r{len(rounds)}", plain[-1]))
            if tracer is not None:
                traced.append(run_round(cli, args.workload, jobs, workdir, f"r{len(rounds)}-traced", tracer))
                rounds.append((f"r{len(rounds)}-traced", traced[-1]))
            now = time.perf_counter()
            if now - start + (now - step) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        setups = [setup_s]
        if tracer is None:
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        attempted, failed, unexpected = check_rounds(jobs, rounds, workdir)

        if tracer is None:
            metrics = group_times(jobs, job_seconds(args.workload, jobs, plain))
            metrics.update(setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)
            units = dict(END_TO_END)
        else:
            from tracing import PER_LAYER

            metrics = tracer.layer_metrics(rounds=len(traced))
            metrics["tracing.overhead_s"] = (group_times(jobs, job_seconds(args.workload, jobs, traced))["wall_s"]
                                             - group_times(jobs, job_seconds(args.workload, jobs, plain))["wall_s"])
            units = dict(PER_LAYER)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": machine_record(), "setup_samples_s": setups,
            "rounds": [{"label": label, "jobs": {name: {"s": r[0], "exit": r[1], "calibration_s": r[3]}
                                                 for name, r in res.items()}}
                       for label, res in rounds],
            "raw_job_medians_s": job_seconds(args.workload, jobs, plain, normalized=False),
            "unexpected_failures": unexpected,
        }
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1))
        if tracer is not None:
            tracer.write(RUNS / f"{name}-spans.jsonl")
        for problem in unexpected:
            print(f"FAILED {problem}", file=sys.stderr)
        return {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = measure(args)
    except Exception as exc:  # no result line, so the run reads as failed
        traceback.print_exc()
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if not args.setup_probe:
        print(f"workload {args.workload} seed {args.seed}: {result['attempted']} jobs attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
