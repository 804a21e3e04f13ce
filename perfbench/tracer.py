"""Span tracer that wraps manymatch's public functions from outside the package.

Each listed function is replaced, in every ``manymatch.*`` module namespace
that binds it, by a wrapper that records one span: the function's name, its
start and end, its parent span and the op it ran in.  Spans are kept in flat
arrays in memory and written out once, at the end of the run.  A span's self
time is its duration minus the durations of its children; calls are nested
and single-threaded, so the children never overlap.

``core.choice_mask`` runs millions of times per op and is not wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

from manymatch import stability

import workloads

LAYERS = {
    "fileformat": ("parse_market", "render_matching", "matching_to_dict"),
    "axioms": ("check_substitutable", "check_lad"),
    "stability": ("enumerate_stable", "is_stable", "blocking_pairs", "is_individually_rational"),
    "solver": ("deferred_acceptance", "apply_rule", "side_optimal", "compare_common",
               "compare_blair"),
    "manipulation": ("verify_gmt", "gmt_counterexample_check", "evaluate_misreport",
                     "make_misreport", "truncation_strategy", "restrict_preference",
                     "candidate_set_H"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

# Derived per-layer metrics and their units, in report order.
DERIVED = (
    ("axioms.cache_hit_ratio", "ratio"),
    ("stability.enumerate_stable.cache_hit_ratio", "ratio"),
    ("stability.masks_scanned", "count/op"),
    ("stability.masks_per_s", "1/s"),
    ("stability.stable_per_mask", "ratio"),
    ("manipulation.candidates_per_s", "1/s"),
    ("manipulation.rule_failure_ratio", "ratio"),
    ("solver.apply_rule.calls_per_candidate", "count"),
    ("fileformat.parse_market.bytes_per_s", "B/s"),
    ("trace.overhead_ops_per_s", "ops/s"),
    ("trace.top_level_coverage", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.total_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(DERIVED)
    return units


def _cached_functions():
    """The package's lru_cache objects, for hit and miss counts."""
    return {
        "axioms": (workloads.CHECK_SUBSTITUTABLE, workloads.CHECK_LAD),
        "enumerate": (stability._enumerate_cached,),
    }


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.op_walls: list[float] = []
        self.masks_scanned = 0
        self.stable_found = 0
        self.candidates = 0
        self.rule_failures = 0
        self.parse_bytes = 0
        self.cache = {key: [0, 0] for key in _cached_functions()}
        self._snapshot = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "manymatch" or name.startswith("manymatch."))]
        hooks = {
            "stability.enumerate_stable": self._enumerate_hook,
            "manipulation.gmt_counterexample_check": self._counterexample_hook,
            "fileformat.parse_market": self._parse_hook,
        }
        for index, span_name in enumerate(SPAN_NAMES):
            module_name, fn_name = span_name.split(".")
            original = getattr(sys.modules[f"manymatch.{module_name}"], fn_name)
            wrapper = self._wrap(index, original, hooks.get(span_name))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._restore.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._restore):
            setattr(module, fn_name, original)
        self._restore.clear()

    def _wrap(self, index, original, hook):
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                if hook is None:
                    return original(*args, **kwargs)
                return hook(original, args, kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, original)

    def _enumerate_hook(self, original, args, kwargs):
        cached = stability._enumerate_cached
        misses = cached.cache_info().misses
        result = original(*args, **kwargs)
        if cached.cache_info().misses > misses:
            p = args[0]
            self.masks_scanned += 1 << (p.num_firms * p.num_workers)
            self.stable_found += len(result)
        return result

    def _counterexample_hook(self, original, args, kwargs):
        report = original(*args, **kwargs)
        self.candidates += report.candidates_total
        self.rule_failures += report.rule_failures
        return report

    def _parse_hook(self, original, args, kwargs):
        self.parse_bytes += len(args[0].encode("utf-8"))
        return original(*args, **kwargs)

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self._snapshot = {key: [(c.cache_info().hits, c.cache_info().misses) for c in fns]
                          for key, fns in _cached_functions().items()}

    def end_op(self, wall: float) -> None:
        self.op_walls.append(wall)
        for key, fns in _cached_functions().items():
            for (hits, misses), c in zip(self._snapshot[key], fns):
                info = c.cache_info()
                self.cache[key][0] += info.hits - hits
                self.cache[key][1] += info.misses - misses
        self.current_op = -1

    # -- results -----------------------------------------------------------

    def summary(self, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict[str, float]:
        count = len(self.start)
        ops = max(len(self.op_walls), 1)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        self_time = [0.0] * len(SPAN_NAMES)
        top_level = 0.0
        for sid in range(count):
            k = self.name[sid]
            duration = self.end[sid] - self.start[sid]
            calls[k] += 1
            total[k] += duration
            self_time[k] += duration - child[sid]
            if self.parent[sid] < 0 and self.op[sid] >= 0:
                top_level += duration

        out = {}
        for k, span_name in enumerate(SPAN_NAMES):
            out[f"{span_name}.calls"] = calls[k] / ops
            out[f"{span_name}.total_s"] = total[k] / ops
            out[f"{span_name}.self_s"] = self_time[k] / ops

        index = {span_name: k for k, span_name in enumerate(SPAN_NAMES)}
        enum_self = self_time[index["stability.enumerate_stable"]]
        gmt_total = total[index["manipulation.gmt_counterexample_check"]]
        parse_total = total[index["fileformat.parse_market"]]
        traced_wall = sum(self.op_walls)
        out.update({
            "axioms.cache_hit_ratio": _ratio(*self.cache["axioms"]),
            "stability.enumerate_stable.cache_hit_ratio": _ratio(*self.cache["enumerate"]),
            "stability.masks_scanned": self.masks_scanned / ops,
            "stability.masks_per_s": self.masks_scanned / enum_self if enum_self else 0.0,
            "stability.stable_per_mask":
                self.stable_found / self.masks_scanned if self.masks_scanned else 0.0,
            "manipulation.candidates_per_s": self.candidates / gmt_total if gmt_total else 0.0,
            "manipulation.rule_failure_ratio":
                self.rule_failures / self.candidates if self.candidates else 0.0,
            "solver.apply_rule.calls_per_candidate": self._apply_rule_per_candidate(index),
            "fileformat.parse_market.bytes_per_s":
                self.parse_bytes / parse_total if parse_total else 0.0,
            "trace.overhead_ops_per_s": traced_ops_per_s - untraced_ops_per_s,
            "trace.top_level_coverage": top_level / traced_wall if traced_wall else 0.0,
        })
        return out

    def _apply_rule_per_candidate(self, index) -> float:
        """apply_rule calls made inside evaluate_misreport, per evaluated
        candidate (one evaluate_misreport call)."""
        apply_rule = index["solver.apply_rule"]
        evaluate = index["manipulation.evaluate_misreport"]
        evaluations = inside = 0
        for sid in range(len(self.start)):
            k = self.name[sid]
            if k == evaluate:
                evaluations += 1
            elif k == apply_rule:
                p = self.parent[sid]
                while p >= 0 and self.name[p] != evaluate:
                    p = self.parent[p]
                inside += p >= 0
        return inside / evaluations if evaluations else 0.0

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw column arrays."""
        header = {
            "names": SPAN_NAMES,
            "spans": len(self.start),
            "columns": [["name", self.name.typecode], ["parent", self.parent.typecode],
                        ["op", self.op.typecode], ["start", self.start.typecode],
                        ["end", self.end.typecode]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.op, self.start, self.end):
                column.tofile(fh)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
