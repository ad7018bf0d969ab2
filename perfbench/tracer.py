"""In-memory span tracer that wraps capwave's public functions from outside.

capwave modules import many functions by name (``from .harmonics import
synthesize``), so patching only the defining module would miss most calls.
``Tracer.install`` therefore replaces every binding of the original function
object in every loaded ``capwave.*`` module, and ``uninstall`` restores them.

Each call records one span ``[name, start, end, parent]`` in a list; nothing
is written until the run ends. Counters (points evaluated, failed solves,
distinct arguments) are taken in the same wrappers, per benchmark operation.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "bench.op"


def _synth_nodes(arguments) -> int:
    points = arguments["points"]
    n_nodes = getattr(points, "n_nodes", None)
    if n_nodes is not None:
        return int(n_nodes)
    shape = np.shape(points)
    return 1 if len(shape) == 1 else int(shape[0])


def _gram_key(arguments):
    return (arguments["n_max"], arguments["rho"])


def _multiplier_key(arguments):
    psi = arguments["pair"].psi_tilde.values.tobytes()
    return (hashlib.blake2b(psi, digest_size=16).digest(),
            arguments["kernel_rho"], arguments["n_max"])


# (module, function) -> extra counters taken at the wrapper:
# "nodes" sums points evaluated, "distinct" keys distinct_ratio, "failed"
# counts calls that raised.
TARGETS = {
    ("harmonics", "synthesize"): {"nodes": _synth_nodes},
    ("harmonics", "analyze"): {},
    ("harmonics", "cap_grid"): {},
    ("harmonics", "sphere_grid"): {},
    ("vector_field", "vector_synthesize"): {"nodes": _synth_nodes},
    ("vector_field", "vector_wavelet_transform_local"): {},
    ("vector_field", "vector_scaling_transform"): {},
    ("vector_field", "vector_optimize"): {},
    ("legendre", "gauss_rule"): {},
    ("legendre", "legendre_all"): {},
    ("kernels", "gram_scalar"): {"distinct": _gram_key},
    ("kernels", "gram_vector"): {"distinct": _gram_key},
    ("kernels", "optimize"): {"failed": True},
    ("kernels", "localization_ratio"): {},
    ("kernels", "kernel_eval"): {},
    ("transforms", "wavelet_multipliers"): {"distinct": _multiplier_key},
    ("transforms", "approximate_coefficients"): {},
    ("transforms", "add_noise"): {},
    ("transforms", "relative_error"): {},
    ("transforms", "field_samples"): {},
    ("transforms", "upward_continue"): {},
    ("experiments", "run_table"): {},
    ("experiments", "build_model"): {},
    ("experiments", "write_table"): {},
    ("cli", "main"): {},
    ("cli", "load_config"): {},
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric this tracer reports, with its unit."""
    units = {}
    for (module, func), extra in TARGETS.items():
        name = f"{module}.{func}"
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
        if "nodes" in extra:
            units[f"{name}.nodes"] = "nodes/op"
        if "distinct" in extra:
            units[f"{name}.distinct_ratio"] = "ratio"
        if "failed" in extra:
            units[f"{name}.failed"] = "failed/op"
    units[f"{ROOT}.self_s"] = "s/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Spans and counters for the calls made during benchmark operations."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.ops = 0
        self.nodes: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self._op_keys: dict[str, list] = defaultdict(list)
        self._ratios: dict[str, list[float]] = defaultdict(list)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op_keys.clear()
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.ops += 1
            for name, keys in self._op_keys.items():
                self._ratios[name].append(len(set(keys)) / len(keys))

    def _wrap(self, name: str, fn, extra: dict):
        nodes = extra.get("nodes")
        distinct = extra.get("distinct")
        count_failed = extra.get("failed", False)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nodes is not None or distinct is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                if nodes is not None:
                    self.nodes[name] += nodes(arguments)
                if distinct is not None:
                    self._op_keys[name].append(distinct(arguments))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                if count_failed:
                    self.failed[name] += 1
                raise
            finally:
                self._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "capwave") -> None:
        """Wrap every binding of each target across the package's modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for (module, func), extra in TARGETS.items():
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return totals

    def wall_s(self) -> float:
        """Summed duration of the root spans, the traced operations' wall time."""
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-operation values for every name in ``metric_units``."""
        ops = max(self.ops, 1)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        self_s = self.self_times()
        out = {}
        for name in metric_units():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[base] / ops
            elif kind == "self_s":
                out[name] = self_s[base] / ops
            elif kind == "nodes":
                out[name] = self.nodes[base] / ops
            elif kind == "failed":
                out[name] = self.failed[base] / ops
            elif kind == "distinct_ratio":
                ratios = self._ratios[base]
                out[name] = sum(ratios) / len(ratios) if ratios else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
