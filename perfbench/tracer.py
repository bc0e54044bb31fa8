"""Outside-in tracing: public program functions replaced by timing wrappers.

`from .x import f` binds f into each importing module at import time, so a
wrapper must replace every binding of the original function object in every
loaded plicode module, not just the attribute on its defining module.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# (module, function) pairs wrapped in a traced run.
TRACED = (
    ("instances", "random_instance"),
    ("instances", "adjacency_matrix"),
    ("instances", "instance_hash"),
    ("fields", "essential_columns"),
    ("fields", "solve_consistent"),
    ("decoding", "is_valid_code"),
    ("decoding", "decodable_messages"),
    ("decoding", "decode_value"),
    ("bingreedy", "bingreedy"),
    ("bingreedy", "sort_and_group"),
    ("bingreedy", "greedy_assign"),
    ("randomized", "randomized_code"),
    ("randomized", "plan_bins"),
    ("oracle", "optimal_code_length"),
    ("oracle", "minrank_fitted"),
    ("oracle", "min_field_for_length2"),
    ("bench", "run_benchmark"),
)

ITEM = "item"

COUNTERS = (
    "fields.essential_columns.cells",
    "bingreedy.rows_raw",
    "bingreedy.rows_zero",
    "bingreedy.groups",
    "randomized.rows_drawn",
    "randomized.rows_zero",
    "oracle.optimal_code_length.enumerated",
    "oracle.minrank_fitted.enumerated",
)


def _essential_cells(counters, args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    counters["fields.essential_columns.cells"] += int(a.shape[0]) * int(a.shape[1])


def _bingreedy_report(counters, args, kwargs, out):
    report = out[1]
    counters["bingreedy.rows_raw"] += report.rows_raw
    counters["bingreedy.rows_zero"] += report.rows_raw - report.rows_pruned
    for rnd in report.rounds:
        for g in rnd.groups:
            counters["bingreedy.groups"] += 1
            if g.eff:
                frac = g.sat / g.eff
                counters["bingreedy.min_group_sat_frac"] = min(
                    counters.get("bingreedy.min_group_sat_frac", 1.0), frac
                )


def _randomized_report(counters, args, kwargs, out):
    report = out[1]
    counters["randomized.rows_drawn"] += report.rows_raw
    counters["randomized.rows_zero"] += report.rows_raw - report.rows_pruned


def _enumerated(key):
    def observe(counters, args, kwargs, out):
        counters[key] += out.enumerated

    return observe


OBSERVERS = {
    "fields.essential_columns": _essential_cells,
    "bingreedy.bingreedy": _bingreedy_report,
    "randomized.randomized_code": _randomized_report,
    "oracle.optimal_code_length": _enumerated("oracle.optimal_code_length.enumerated"),
    "oracle.minrank_fitted": _enumerated("oracle.minrank_fitted.enumerated"),
}


class Tracer:
    """Spans kept in memory as [name, parent, item, start, end]; counters by name."""

    def __init__(self, modules):
        """Find every binding of each TRACED function in the loaded plicode modules."""
        self.spans: list[list] = []
        self.counters: dict[str, float] = {k: 0 for k in COUNTERS}
        self._stack: list[int] = []
        self._item = -1
        loaded = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "plicode" or name.startswith("plicode.")
        ]
        self._bindings = []
        for mod_name, fn_name in TRACED:
            orig = getattr(getattr(modules, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in loaded:
                self._bindings += [
                    (mod, attr, orig, wrapper) for attr, v in vars(mod).items() if v is orig
                ]

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self._item, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    def begin_item(self, k: int) -> list:
        self._item = k
        return self._open(ITEM)

    def end_item(self, rec: list) -> None:
        self._close(rec)
        self._item = -1

    def _wrap(self, name: str, orig):
        observe = OBSERVERS.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self.counters, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for mod, attr, orig, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, wrapper in self._bindings:
            setattr(mod, attr, orig)

    @property
    def bindings(self) -> list[str]:
        return [f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._bindings]

    def layer_totals(self, items: range | None = None, scale=None) -> dict[str, dict[str, float]]:
        """Busy ms, self ms (busy minus child spans) and calls per span name.

        scale[k], when given, multiplies the durations of item k's spans.
        """
        child = [0.0] * len(self.spans)
        for name, parent, item, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for idx, (name, parent, item, t0, t1) in enumerate(self.spans):
            if items is not None and item not in items:
                continue
            f = 1000.0 * (scale[item] if scale else 1.0)
            agg = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            agg["ms"] += (t1 - t0) * f
            agg["self_ms"] += (t1 - t0 - child[idx]) * f
            agg["calls"] += 1
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, parent id, item, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for idx, (name, parent, item, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, parent, item, round(t0, 7), round(t1, 7)]))
                fh.write("\n")

