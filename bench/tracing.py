"""Span recording for the traced benchmark run.

A ``Tracer`` wraps module-level functions from outside the package.  Each
call through a wrapper records one span: boundary id, parent span, start
and end.  Spans are kept in compact in-memory arrays with a parent link and
summarized only when the sample ends, so recording costs a few appends per
call and nothing is written while the program runs.

``summarize`` turns the spans into per-boundary ``calls``, inclusive ``s``
and ``self_s``.  A span's self time is its duration minus the durations of
its direct children; spans nest strictly because the program is single
threaded at the Python level.  For a recursive boundary (``canonical_json``)
the inclusive time counts only outermost spans, so no interval is counted
twice, while ``calls`` counts every call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

NS = 1e-9

# (module, function) pairs wrapped in every groverian namespace binding them.
BOUNDARIES = [
    ("cli", "main"),
    ("families", "expand_state_family"),
    ("families", "expand_density_family"),
    ("fileio", "load_state"),
    ("fileio", "canonical_json"),
    ("statevector", "random_state"),
    ("statevector", "apply_local"),
    ("statevector", "schmidt"),
    ("product_opt", "pmax_overlap"),
    ("product_opt", "pmax_mixed"),
    ("product_opt", "pmax_grid_oracle"),
    ("product_opt", "product_amps"),
    ("grover", "grover_iterate"),
    ("grover", "run_grover"),
    ("grover", "optimal_iterations"),
    ("grover", "pmax_simulated"),
    ("measures", "groverian"),
    ("measures", "groverian_mixed"),
    ("measures", "majorizes"),
]
# Wrapped only where the optimizer binds it: the per-site update's contraction.
CONTRACT = ("statevector", "_contract_all_but", "product_opt")

# Two optimizer restarts count as reaching the same optimum within this gap.
RESTART_USEFUL_TOL = 1e-9


class Tracer:
    """In-memory span recorder; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outer = array("b")
        self.counters: dict[str, float] = {}
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack = [-1]

    def boundary_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter(self, bid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(bid)
        self.span_parent.append(self._stack[-1])
        self.span_outer.append(self._depth[bid] == 0)
        self.span_end.append(0)
        self._stack.append(idx)
        self._depth[bid] += 1
        self.span_start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()
        self._depth[self.span_name[idx]] -= 1

    def wrap(self, name: str, fn, on_return=None):
        """Return a wrapper recording a span per call of ``fn``.

        ``on_return(args, result, outer)`` runs after a successful call to
        update counters; a failing counter is itself counted, and exceptions
        from ``fn`` pass through unchanged.
        """
        bid = self.boundary_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(bid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if on_return is not None:
                try:
                    on_return(args, result, bool(self.span_outer[idx]))
                except Exception:  # a counter must never change the program's run
                    self.count(f"hook_errors.{name}")
            return result

        return traced


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-boundary calls, inclusive seconds and self seconds."""
    names = np.frombuffer(tracer.span_name, dtype=np.int32)
    parent = np.frombuffer(tracer.span_parent, dtype=np.int64)
    start = np.frombuffer(tracer.span_start, dtype=np.int64)
    end = np.frombuffer(tracer.span_end, dtype=np.int64)
    outer = np.frombuffer(tracer.span_outer, dtype=np.int8).astype(bool)
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_time = dur - child
    k = len(tracer.names)
    calls = np.bincount(names, minlength=k)
    inclusive = np.bincount(names[outer], weights=dur[outer], minlength=k)
    self_sum = np.bincount(names, weights=self_time, minlength=k)
    return {
        name: {
            "calls": int(calls[i]),
            "s": float(inclusive[i]) * NS,
            "self_s": float(self_sum[i]) * NS,
        }
        for i, name in enumerate(tracer.names)
    }


def span_durations(tracer: Tracer, name: str) -> np.ndarray:
    """Durations in seconds of every span of one boundary."""
    if name not in tracer.names:
        return np.zeros(0)
    bid = tracer.boundary_id(name)
    names = np.frombuffer(tracer.span_name, dtype=np.int32)
    start = np.frombuffer(tracer.span_start, dtype=np.int64)
    end = np.frombuffer(tracer.span_end, dtype=np.int64)
    mask = names == bid
    return (end[mask] - start[mask]) * NS


def _count_contract(tracer):
    def hook(args, result, outer):
        tracer.count("contract.bytes", args[0].nbytes)

    return hook


def _count_restarts(tracer):
    def hook(args, result, outer):
        per_restart = result.best_per_restart
        best = max(per_restart)
        tracer.count("restarts", result.restarts_used)
        tracer.count(
            "restarts.useful",
            sum(1 for v in per_restart if best - v <= RESTART_USEFUL_TOL),
        )

    return hook


def _count_iterate(tracer):
    def hook(args, result, outer):
        # One read and one write of the complex128 amplitude array.
        tracer.count("iterate.bytes", 2 * 16 * result.shape.total)

    return hook


def _count_file(tracer):
    def hook(args, result, outer):
        tracer.count("load_state.bytes", os.path.getsize(args[0]))

    return hook


def _count_json(tracer):
    def hook(args, result, outer):
        if outer:
            tracer.count("canonical_json.bytes", len(result.encode("utf-8")))

    return hook


HOOKS = {
    "product_opt.pmax_overlap": _count_restarts,
    "product_opt.pmax_mixed": _count_restarts,
    "grover.grover_iterate": _count_iterate,
    "fileio.load_state": _count_file,
    "fileio.canonical_json": _count_json,
}


def install(tracer: Tracer) -> tuple[list[str], list[str]]:
    """Wrap every boundary in the imported groverian modules.

    Returns the verify check names and the boundaries that could not be
    found, so a renamed function is named in the report, not silently 0.
    """
    package = [
        m for name, m in sys.modules.items()
        if name == "groverian" or name.startswith("groverian.")
    ]
    missing = []
    for module_name, attr in BOUNDARIES:
        name = f"{module_name}.{attr}"
        fn = getattr(sys.modules.get(f"groverian.{module_name}"), attr, None)
        if fn is None:
            missing.append(name)
            continue
        hook = HOOKS.get(name)
        wrapped = tracer.wrap(name, fn, hook(tracer) if hook else None)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)

    module_name, attr, binder = CONTRACT
    binding = sys.modules.get(f"groverian.{binder}")
    fn = getattr(binding, attr, None)
    if fn is None:
        missing.append(f"{module_name}.{attr}")
    else:
        wrapped = tracer.wrap(f"{module_name}.{attr}", fn, _count_contract(tracer))
        setattr(binding, attr, wrapped)

    checks = getattr(sys.modules.get("groverian.verify"), "SUITES", {}).get("all")
    if checks is None:
        missing.append("verify.SUITES")
        return [], missing
    names = [check.__name__ for check in checks]
    for i, check in enumerate(checks):
        checks[i] = tracer.wrap(f"verify.{check.__name__}", check)
    return names, missing


def layer_metrics(tracer: Tracer, check_names) -> dict[str, float]:
    """Per-layer metrics of one traced sample (bandwidth share added later)."""
    stats = summarize(tracer)
    out: dict[str, float] = {}
    for module_name, attr in BOUNDARIES + [CONTRACT[:2]]:
        name = f"{module_name}.{attr}"
        s = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.s"] = s["s"]
        out[f"{name}.self_s"] = s["self_s"]
    for check in check_names:
        out[f"verify.{check}.s"] = stats.get(f"verify.{check}", {"s": 0.0})["s"]

    c = tracer.counters
    contract = "statevector._contract_all_but"
    calls = out[f"{contract}.calls"]
    out[f"{contract}.us_per_call"] = out[f"{contract}.s"] / calls * 1e6 if calls else 0.0
    out[f"{contract}.bytes_computed"] = c.get("contract.bytes", 0)
    restarts = out["product_opt.restarts"] = c.get("restarts", 0)
    out["product_opt.restart_useful_ratio"] = (
        c.get("restarts.useful", 0) / restarts if restarts else 0.0
    )
    iterate = span_durations(tracer, "grover.grover_iterate")
    out["grover.grover_iterate.ms_median"] = (
        float(np.median(iterate)) * 1e3 if iterate.size else 0.0
    )
    out["grover.grover_iterate.bytes_computed"] = c.get("iterate.bytes", 0)
    out["fileio.load_state.bytes"] = c.get("load_state.bytes", 0)
    out["fileio.canonical_json.bytes"] = c.get("canonical_json.bytes", 0)
    return out
