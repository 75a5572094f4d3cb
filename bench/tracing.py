"""Spans and counters around the layers of `randblock`, for a traced round.

`Tracer.install()` wraps each layer's public functions wherever the program
binds them (a module that did `from .spectral import eigensolve` holds its
own reference, so every module namespace is searched), plus a few methods
and the numpy/scipy linear-algebra kernels.  Spans are kept in memory as
(id, parent, job, name, start, end) and written out when the run ends.
`uninstall()` restores every original.

A kernel call is charged to the layer whose span is the innermost open one.
`Tracer.layer_metrics()` reduces spans and counters to the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy.linalg

LAYERS = ("cli", "model", "spectral", "transfer", "lyapunov", "furstenberg", "localization",
          "xy_oracle", "parallel")

# (module, attribute, span name); a None span name only counts calls
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("model", "sample_disorder", "model.sample_disorder"),
    ("model", "assemble_block_jacobi", "model.assemble"),
    ("model", "assemble_hat_form", "model.assemble"),
    ("model", "random_instance", "model.random_instance"),
    ("spectral", "dos_histogram", "spectral.dos_histogram"),
    ("spectral", "periodic_spectrum", "spectral.periodic_spectrum"),
    ("spectral", "floquet_symbol", None),
    ("localization", "ensemble_correlator", "localization.ensemble_correlator"),
    ("localization", "fit_decay", "localization.fit_decay"),
    ("localization", "wegner_probe", "localization.wegner_probe"),
    ("lyapunov", "lyapunov_spectrum", "lyapunov.lyapunov_spectrum"),
    ("lyapunov", "thouless_check", "lyapunov.thouless_check"),
    ("lyapunov", "zero_energy_aux_exponent", "lyapunov.scalar_reduction"),
    ("transfer", "transfer_matrix", None),
    ("transfer", "fundamental_solutions", "transfer.fundamental_solutions"),
    ("transfer", "charpoly_identity_check", "transfer.charpoly"),
    ("xy_oracle", "lr_commutator_stats", "xy_oracle.lr_commutator_stats"),
    ("xy_oracle", "build_hamiltonian", "xy_oracle.build_hamiltonian"),
    ("xy_oracle", "verify_quadratic_form", "xy_oracle.verify"),
    ("xy_oracle", "verify_heisenberg_identity", "xy_oracle.verify"),
    ("xy_oracle", "verify_free_fermion_spectrum", "xy_oracle.verify"),
    ("furstenberg", "lie_closure_dimension", "furstenberg.lie_closure_dimension"),
    ("furstenberg", "zero_energy_reducibility_certificate", "furstenberg.certificate"),
]

KERNELS = [
    (np.linalg, ("eigvalsh", "eigh", "qr", "solve", "inv", "det", "slogdet", "svd", "lstsq", "cond")),
    (scipy.linalg, ("expm", "eigh", "qr", "eig_banded")),
]

PER_LAYER = [
    ("cli.main.calls", "count"), ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("model.sample_disorder.calls", "count"), ("model.sample_disorder.s", "s"),
    ("model.assemble.s", "s"), ("model.dense.calls", "count"), ("model.dense.s", "s"),
    ("model.dense.bytes", "bytes"),
    ("spectral.eigensolve.values.calls", "count"), ("spectral.eigensolve.values.s", "s"),
    ("spectral.eigensolve.vectors.calls", "count"), ("spectral.eigensolve.vectors.s", "s"),
    ("spectral.eigensolve.max_dim", "count"), ("spectral.eigvalsh.calls", "count"),
    ("spectral.dos_histogram.s", "s"), ("spectral.periodic_spectrum.calls", "count"),
    ("spectral.periodic_spectrum.s", "s"), ("spectral.floquet_symbol.calls", "count"),
    ("localization.ensemble_correlator.self_s", "s"), ("localization.fit_decay.s", "s"),
    ("localization.wegner_probe.self_s", "s"),
    ("parallel.parallel_map.calls", "count"), ("parallel.items", "count"),
    ("parallel.threads", "count"),
    ("lyapunov.lyapunov_spectrum.calls", "count"), ("lyapunov.lyapunov_spectrum.self_s", "s"),
    ("lyapunov.steps", "count"), ("lyapunov.us_per_step", "us"), ("lyapunov.factor_draw.s", "s"),
    ("lyapunov.qr.calls", "count"), ("lyapunov.scalar_reduction.s", "s"),
    ("lyapunov.thouless_check.calls", "count"),
    ("transfer.transfer_matrix.calls", "count"), ("transfer.fundamental_solutions.calls", "count"),
    ("transfer.fundamental_solutions.s", "s"), ("transfer.green_block.calls", "count"),
    ("transfer.green.s", "s"), ("transfer.charpoly.s", "s"),
    ("xy_oracle.lr_commutator_stats.self_s", "s"), ("xy_oracle.expm.calls", "count"),
    ("xy_oracle.expm.distinct_ratio", "ratio"), ("xy_oracle.build_hamiltonian.s", "s"),
    ("xy_oracle.verify.s", "s"),
    ("furstenberg.lie_closure_dimension.calls", "count"), ("furstenberg.lie_closure_dimension.s", "s"),
    ("furstenberg.elements", "count"), ("furstenberg.certificate.s", "s"),
] + [(f"{layer}.linalg.calls", "count") for layer in LAYERS if layer != "parallel"] + [
    ("tracing.overhead_s", "s"),
]


# maxima and ratios; every other metric is a sum and is reported per round
NOT_SUMMED = {"spectral.eigensolve.max_dim", "parallel.threads", "xy_oracle.expm.distinct_ratio",
              "lyapunov.us_per_step"}


class Tracer:
    """In-memory spans and counters; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str | None, str, float, float]] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.expm_inputs: set[bytes] = set()
        self.job: str | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def innermost_layer(self) -> str:
        stack = self._stack()
        return stack[-1][1].split(".", 1)[0] if stack else "none"

    def run_span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.job, name, start, end))

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` in every randblock module namespace that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "randblock" or name.startswith("randblock.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _span_wrapper(self, fn, name: str | None, counter: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += 1
            if name is None:
                return fn(*args, **kwargs)
            result = tracer.run_span(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and kernel; distinct expm inputs are counted per install."""
        self.expm_inputs = set()
        import randblock.cli  # noqa: F401  (imports every layer module)
        from randblock import lyapunov, model, parallel, spectral, transfer

        modules = {name: sys.modules[f"randblock.{name}"] for name in LAYERS}
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            counter = f"{mod_name}.{attr}.calls"
            on_result = self._closure_result if attr == "lie_closure_dimension" else None
            self._rebind(original, self._span_wrapper(original, span, counter, on_result))

        tracer = self

        def eigensolve(M, want_vectors=True):
            kind = "vectors" if want_vectors else "values"
            dim = M.n * M.ell if isinstance(M, model.BlockJacobiMatrix) else np.shape(M)[0]
            tracer.counters[f"spectral.eigensolve.{kind}.calls"] += 1
            tracer.maxima["spectral.eigensolve.max_dim"] = max(
                tracer.maxima["spectral.eigensolve.max_dim"], dim)
            return tracer.run_span(f"spectral.eigensolve.{kind}", original_eigensolve, M,
                                   want_vectors=want_vectors)

        original_eigensolve = spectral.eigensolve
        self._rebind(original_eigensolve, functools.wraps(original_eigensolve)(eigensolve))

        for cls in (model.BlockJacobiMatrix, model.HatBlockMatrix):
            self._set(cls, "dense", self._dense_wrapper(cls.dense))
        for method in ("__init__", "block"):
            original = getattr(transfer.GreenEvaluator, method)
            counter = "transfer.green_block.calls" if method == "block" else "transfer.green.inits"
            self._set(transfer.GreenEvaluator, method,
                      self._span_wrapper(original, "transfer.green", counter))

        original_qr = lyapunov._qr_exponents

        def qr_exponents(draw_factors, *args, **kwargs):
            def draw(rng, m):
                factors = tracer.run_span("lyapunov.factor_draw", draw_factors, rng, m)
                tracer.counters["lyapunov.steps"] += factors.shape[0]
                return factors

            return original_qr(draw, *args, **kwargs)

        self._rebind(original_qr, functools.wraps(original_qr)(qr_exponents))

        original_map = parallel.parallel_map

        def parallel_map(fn, items, threads=None):
            work = list(items)
            tracer.counters["parallel.parallel_map.calls"] += 1
            tracer.counters["parallel.items"] += len(work)
            tracer.maxima["parallel.threads"] = max(tracer.maxima["parallel.threads"],
                                                    parallel.resolve_threads(threads))
            return original_map(fn, work, threads=threads)

        self._rebind(original_map, functools.wraps(original_map)(parallel_map))

        for owner, names in KERNELS:
            for kname in names:
                self._set(owner, kname, self._kernel_wrapper(getattr(owner, kname), kname))

    def _closure_result(self, args, kwargs, result) -> None:
        self.counters["furstenberg.elements"] += result.num_elements

    def _dense_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def dense(matrix_self):
            out = tracer.run_span("model.dense", fn, matrix_self)
            tracer.counters["model.dense.calls"] += 1
            tracer.counters["model.dense.bytes"] += out.size * out.itemsize  # computed from sizes
            return out

        return dense

    def _kernel_wrapper(self, fn, kname: str):
        tracer = self

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            local = tracer._local
            if getattr(local, "in_kernel", False):  # a kernel calling another counts once
                return fn(*args, **kwargs)
            layer = tracer.innermost_layer()
            tracer.counters[f"{layer}.linalg.calls"] += 1
            tracer.counters[f"{layer}.{kname}.calls"] += 1
            if kname == "expm" and layer == "xy_oracle":
                digest = hashlib.blake2b(np.ascontiguousarray(args[0]).tobytes(), digest_size=16)
                tracer.expm_inputs.add(digest.digest())
            local.in_kernel = True
            try:
                return fn(*args, **kwargs)
            finally:
                local.in_kernel = False

        return kernel

    def uninstall(self) -> None:
        self.counters["xy_oracle.expm.distinct"] += len(self.expm_inputs)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, rounds: int = 1) -> dict[str, float]:
        """Per-layer metrics per round, over `rounds` traced rounds recorded since construction."""
        total = defaultdict(float)
        child = defaultdict(float)
        by_id = {}
        for span_id, parent, _, name, start, end in self.spans:
            total[name] += end - start
            by_id[span_id] = name
        for span_id, parent, _, name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for span_id, parent, _, name, start, end in self.spans:
            self_time[name] += (end - start) - child[span_id]

        c = self.counters
        steps = c["lyapunov.steps"]
        engine_s = total["lyapunov.lyapunov_spectrum"] + total["lyapunov.scalar_reduction"]
        expm_calls = c["xy_oracle.expm.calls"]
        m = {
            "cli.main.calls": c["cli.main.calls"],
            "cli.self_s": self_time["cli.main"],
            "cli.artifact_bytes": c["cli.artifact_bytes"],
            "model.sample_disorder.calls": c["model.sample_disorder.calls"],
            "model.sample_disorder.s": total["model.sample_disorder"],
            "model.assemble.s": total["model.assemble"],
            "model.dense.calls": c["model.dense.calls"],
            "model.dense.s": total["model.dense"],
            "model.dense.bytes": c["model.dense.bytes"],
            "spectral.eigensolve.values.calls": c["spectral.eigensolve.values.calls"],
            "spectral.eigensolve.values.s": total["spectral.eigensolve.values"],
            "spectral.eigensolve.vectors.calls": c["spectral.eigensolve.vectors.calls"],
            "spectral.eigensolve.vectors.s": total["spectral.eigensolve.vectors"],
            "spectral.eigensolve.max_dim": self.maxima["spectral.eigensolve.max_dim"],
            "spectral.eigvalsh.calls": c["spectral.eigvalsh.calls"],
            "spectral.dos_histogram.s": total["spectral.dos_histogram"],
            "spectral.periodic_spectrum.calls": c["spectral.periodic_spectrum.calls"],
            "spectral.periodic_spectrum.s": total["spectral.periodic_spectrum"],
            "spectral.floquet_symbol.calls": c["spectral.floquet_symbol.calls"],
            "localization.ensemble_correlator.self_s": self_time["localization.ensemble_correlator"],
            "localization.fit_decay.s": total["localization.fit_decay"],
            "localization.wegner_probe.self_s": self_time["localization.wegner_probe"],
            "parallel.parallel_map.calls": c["parallel.parallel_map.calls"],
            "parallel.items": c["parallel.items"],
            "parallel.threads": self.maxima["parallel.threads"],
            "lyapunov.lyapunov_spectrum.calls": c["lyapunov.lyapunov_spectrum.calls"],
            "lyapunov.lyapunov_spectrum.self_s": self_time["lyapunov.lyapunov_spectrum"],
            "lyapunov.steps": steps,
            "lyapunov.us_per_step": 1e6 * engine_s / steps if steps else 0.0,
            "lyapunov.factor_draw.s": total["lyapunov.factor_draw"],
            "lyapunov.qr.calls": c["lyapunov.qr.calls"],
            "lyapunov.scalar_reduction.s": total["lyapunov.scalar_reduction"],
            "lyapunov.thouless_check.calls": c["lyapunov.thouless_check.calls"],
            "transfer.transfer_matrix.calls": c["transfer.transfer_matrix.calls"],
            "transfer.fundamental_solutions.calls": c["transfer.fundamental_solutions.calls"],
            "transfer.fundamental_solutions.s": total["transfer.fundamental_solutions"],
            "transfer.green_block.calls": c["transfer.green_block.calls"],
            "transfer.green.s": total["transfer.green"],
            "transfer.charpoly.s": total["transfer.charpoly"],
            "xy_oracle.lr_commutator_stats.self_s": self_time["xy_oracle.lr_commutator_stats"],
            "xy_oracle.expm.calls": expm_calls,
            "xy_oracle.expm.distinct_ratio": c["xy_oracle.expm.distinct"] / expm_calls if expm_calls else 0.0,
            "xy_oracle.build_hamiltonian.s": total["xy_oracle.build_hamiltonian"],
            "xy_oracle.verify.s": total["xy_oracle.verify"],
            "furstenberg.lie_closure_dimension.calls": c["furstenberg.lie_closure_dimension.calls"],
            "furstenberg.lie_closure_dimension.s": total["furstenberg.lie_closure_dimension"],
            "furstenberg.elements": c["furstenberg.elements"],
            "furstenberg.certificate.s": total["furstenberg.certificate"],
        }
        for layer in LAYERS:
            if layer != "parallel":
                m[f"{layer}.linalg.calls"] = c[f"{layer}.linalg.calls"]
        return {k: float(v) if k in NOT_SUMMED else float(v) / rounds for k, v in m.items()}

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line with the counters."""
        with open(path, "w") as fh:
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters), "maxima": dict(self.maxima)}) + "\n")
