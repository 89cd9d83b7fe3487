"""Spans and counts around the public functions of every heatcavity layer.

``Tracer.install`` replaces each public function of the layer modules with
a wrapper under every name a caller can resolve it by: the defining module,
each module that imported it by name, and any tuple or dict of callables a
module keeps (``verify.ALL_CHECKS``, ``cli._COMMANDS``).  The wrapper records
one span per call (name, start, end, parent) in memory.  Nothing under
``src/`` is edited.

Spans opened on a worker thread with no enclosing span of their own take the
main thread's innermost open span as parent, so probe chunks run by the
reconstruct thread pool count as children of ``recon.reconstruct``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

import numpy as np

LAYERS = ("cli", "geometry", "kernels", "forward", "ndmap", "recon", "io", "verify", "oracles")

#: Left unwrapped: called once per number written, so a span each would
#: swamp the trace and move the formatting cost out of write_stop1's self time.
UNTRACED = {"io.format_float"}


def _inf(grid) -> int:
    return int(np.sum(~np.isfinite(grid.values)))


def _rhs(density) -> int:
    return 1 if density.values.ndim == 2 else int(density.values.shape[2])


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


#: Work counted per call: span name -> {metric name: f(args, kwargs, result)}.
COUNTS = {
    "kernels.gamma_time_integral": {
        "kernels.gamma_time_integral.elements": lambda a, k, r: int(np.size(r))
    },
    "kernels.dnu_gamma_time_integral": {
        "kernels.dnu_gamma_time_integral.elements": lambda a, k, r: int(np.size(r))
    },
    "forward.solve_neumann": {"forward.solve_neumann.rhs": lambda a, k, r: _rhs(r)},
    "forward.green_probe_traces": {
        "forward.green_probe_traces.points": lambda a, k, r: int(r.shape[2])
    },
    "recon.eigendecompose": {
        "recon.eigendecompose.n": lambda a, k, r: int(r.lambdas.size),
        "recon.retained": lambda a, k, r: int(r.retained),
    },
    "recon.reconstruct": {
        "recon.probes": lambda a, k, r: len(r),
        "recon.inf_probes": lambda a, k, r: _inf(r),
    },
    "io.write_stop1": {"io.write_stop1.bytes": lambda a, k, r: _file_bytes(a, k)},
    "io.read_stop1": {"io.read_stop1.bytes": lambda a, k, r: _file_bytes(a, k)},
}
PASSED = {"verify.checks_passed": lambda a, k, r: int(bool(r.passed))}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = {}
        self.points: set = set()  # distinct (curve, point) pairs classified
        self.functions: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        counters = PASSED if name.startswith("verify.check_") else COUNTS.get(name, {})
        self.counts.update(dict.fromkeys(counters, 0))
        self.functions.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            with self._lock:
                for key, count in counters.items():
                    self.counts[key] += count(args, kwargs, result)
                if name == "geometry.point_in_region":
                    y = np.asarray(args[0], dtype=float)
                    self.points.add((args[1].spec, float(y[0]), float(y[1])))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers under all of its names."""
        layers = {name: importlib.import_module(f"heatcavity.{name}") for name in LAYERS}
        wrappers = {
            obj: self.wrap(f"{layer}.{attr}", obj)
            for layer, mod in layers.items()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj)
            and not attr.startswith("_")
            and obj.__module__ == mod.__name__
            and f"{layer}.{attr}" not in UNTRACED
        }
        for mod in [*layers.values(), importlib.import_module("heatcavity")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, tuple) and any(o in wrappers for o in obj if callable(o)):
                    setattr(mod, attr, tuple(wrappers.get(o, o) for o in obj))
                elif isinstance(obj, dict) and any(
                    callable(o) and o in wrappers for o in obj.values()
                ):
                    obj.update({k: wrappers[v] for k, v in obj.items() if v in wrappers})

    def records(self) -> dict:
        counts = dict(self.counts)
        counts["geometry.point_in_region.points"] = len(self.points)
        return {"functions": self.functions, "spans": self.spans, "counts": counts}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and self seconds.

    Self time is a span's duration minus the part of it its child spans
    cover; children running in parallel on worker threads count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _ in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out
