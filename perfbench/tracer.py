"""Span tracer that wraps the public functions of every ``angen`` module.

The tracer lives entirely in the benchmark: it replaces module attributes
with timing wrappers and puts every original back on ``restore``.  A
function imported into another module (``angen.resolvent.integrate_vector``
is ``angen.vecint.integrate_vector``) is re-bound there too, because the
caller looks the name up in its own module globals.

Each wrapped call records one span: parent span, name, start and end.
Counters are taken at the same boundaries.  Two private functions are
hooked for counting only, because they are the boundaries the counts live
at: ``vecint._nodes`` builds one truncation window of ``integrate_vector``
and ``cli._write_csv`` writes one report file.

Spans are kept in memory; ``summary`` turns them into per-layer numbers.
The workloads run in one thread, so one span stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "vecint",
    "kernel",
    "group_models",
    "resolvent",
    "smoothing",
    "reconstruction",
    "cli",
)

# functions whose output rows are U_t samples computed by the group layer
_ROW_PRODUCERS = {"apply_Uz", "apply_Uz_batch", "group_matrix"}
# functions whose inclusive time is reported on its own
_INCLUSIVE = {
    "resolvent.compute_Qmu": "resolvent.qmu_s",
    "resolvent.graph_restricted_norm": "resolvent.norm_s",
    "reconstruction.reconstruct_Ut_delta": "reconstruction.delta_s",
    "reconstruction.reconstruct_Ut_cz": "reconstruction.cz_s",
    "reconstruction.decay_bound_fit": "reconstruction.bound_fit_s",
}

# every per-layer metric, with its unit, in report order
METRICS = {
    "vecint.calls": "count",
    "vecint.windows": "count",
    "vecint.nodes_sampled": "count",
    "vecint.useful_node_ratio": "ratio",
    "vecint.self_s": "s",
    "kernel.points": "count",
    "kernel.self_s": "s",
    "group_models.rows": "count",
    "group_models.bytes_computed": "bytes",
    "group_models.self_s": "s",
    "resolvent.qmu_calls": "count",
    "resolvent.qmu_s": "s",
    "resolvent.norm_s": "s",
    "smoothing.calls": "count",
    "smoothing.self_s": "s",
    "reconstruction.delta_s": "s",
    "reconstruction.cz_s": "s",
    "reconstruction.bound_fit_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
}

COUNT_METRICS = tuple(k for k, unit in METRICS.items() if unit in ("count", "bytes"))


def _angen_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "angen" or name.startswith("angen.")]


class Tracer:
    """Wraps ``angen`` functions while installed; use as a context manager.

    Span fields are kept in flat arrays (``parent``, ``name``, ``start``,
    ``end``), so recording allocates no objects the garbage collector tracks.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.parent = array("q")
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._codes: dict[str, int] = {}
        self._stack: list[int] = []
        self._windows: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"angen.{layer}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    replace[id(obj)] = (obj, self._wrap(layer, name, obj))
        vecint = importlib.import_module("angen.vecint")
        cli = importlib.import_module("angen.cli")
        replace[id(vecint._nodes)] = (vecint._nodes, self._window_hook(vecint._nodes))
        replace[id(cli._write_csv)] = (cli._write_csv, self._csv_hook(cli._write_csv))

        for mod in _angen_modules():
            for name, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, hit[1])
        return self

    def restore(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _code(self, qualname: str, layer: str) -> int:
        if qualname not in self._codes:
            self._codes[qualname] = len(self.names)
            self.names.append(qualname)
            self.layers.append(layer)
        return self._codes[qualname]

    def traced(self, qualname: str, layer: str, fn, after=None):
        """fn wrapped so that each call records one span; after(result) runs on success."""
        code = self._code(qualname, layer)
        parents, names, starts, ends = self.parent, self.name, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(code)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap(self, layer: str, name: str, fn):
        counts = self.counts
        after = None
        if layer == "kernel" and name in ("eval_kernel", "eval_kernel_array"):

            def after(result):
                counts["kernel.points"] += int(np.size(result))

        elif layer == "group_models" and name in _ROW_PRODUCERS:

            def after(result):
                counts["group_models.rows"] += result.shape[0] if result.ndim == 2 else 1
                counts["group_models.bytes_computed"] += result.nbytes

        wrapper = self.traced(f"{layer}.{name}", layer, fn, after)
        if name != "integrate_vector":
            return wrapper

        @functools.wraps(fn)
        def quadrature(*args, **kwargs):
            windows = []
            self._windows.append(windows)
            try:
                result = wrapper(*args, **kwargs)
            finally:
                self._windows.pop()
                counts["vecint.calls"] += 1
                counts["vecint.windows"] += len(windows)
                counts["vecint.nodes_sampled"] += sum(windows)
            counts["vecint.accepted_nodes"] += windows[-1]
            return result

        return quadrature

    def _window_hook(self, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            ts, ws = fn(*args, **kwargs)
            if self._windows:
                self._windows[-1].append(len(ts))
            return ts, ws

        return hook

    def _csv_hook(self, fn):
        @functools.wraps(fn)
        def hook(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            self.counts["cli.csv_bytes"] += path.stat().st_size

        return hook

    # -- reporting ----------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Calls, inclusive time and self time (duration minus child spans) per span name."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}

    def summary(self) -> dict[str, float]:
        """Every per-layer metric of METRICS for the spans recorded so far."""
        c = self.counts
        out = {k: float(c[k]) for k in COUNT_METRICS}
        nodes = c["vecint.nodes_sampled"]
        out["vecint.useful_node_ratio"] = c["vecint.accepted_nodes"] / nodes if nodes else 0.0
        for key in _INCLUSIVE.values():
            out[key] = 0.0
        for layer in ("vecint", "kernel", "group_models", "smoothing", "cli"):
            out[f"{layer}.self_s"] = 0.0
        for (name, (calls, incl, own)), layer in zip(self.by_name().items(), self.layers):
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += own
            if layer == "smoothing":
                out["smoothing.calls"] += calls
            if name == "resolvent.compute_Qmu":
                out["resolvent.qmu_calls"] = float(calls)
            if name in _INCLUSIVE:
                out[_INCLUSIVE[name]] = incl
        return {k: out[k] for k in METRICS}

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: id, parent, name, start, end (s from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        lines = ["id,parent,name,start_s,end_s"]
        for i, (parent, code, start, end) in enumerate(zip(self.parent, self.name, self.start, self.end)):
            lines.append(f"{i},{parent},{self.names[code]},{start - t0:.9f},{end - t0:.9f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
