"""Span tracing of satgame from outside the library.

`Tracer` wraps the layer-boundary functions of the imported `satgame`
modules at every binding callers use (the defining module, every module that
imported the name with `from .x import ...`, and the class attribute for
methods) and restores the originals on exit. Each call records one span:
name, start, end, parent span and operation id, kept in flat arrays in memory
until the task ends. `Tracer.summary` turns them into calls and self times
(span minus child spans) per span name, and `layer_metrics` turns the
summaries of one operation's tasks into per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable, Optional

# Module-level functions wrapped at every binding, by defining module.
FUNCTIONS = {
    "graph": ("everywhere_traceable",),
    "families": (
        "creates_forbidden", "legal_moves", "has_legal_move", "is_legal",
        "is_free", "contains_subgraph",
    ),
    "engine": ("play", "apply_action", "is_terminal"),
    "shapes": ("label_component",),
    "solver": ("solve", "best_response"),
    "analysis": ("saturated_graphs", "free_graphs", "trace_stats"),
    "verify": ("suite_claims",),
}

# (module, class, method, span name); a Strategy call is named after the
# strategy it runs, see `_strategy_span`.
METHODS = (
    ("graph", "Graph", "components", "graph.components"),
    ("graph", "Graph", "canonical_key", "graph.canonical_key"),
    ("graph", "Graph", "add_edge", "graph.add_edge"),
    ("engine", "GameRecord", "replay", "engine.GameRecord.replay"),
    ("strategies", "Strategy", "__call__", None),
)

# the strategies the workloads run; `random:<seed>` counts as `random`
STRATEGIES = (
    "traceable", "s-p4", "p-p4", "s-p5", "p-p5", "p-star", "random", "greedy-min", "greedy-max",
)

_MISSING = object()


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self, package: ModuleType, op_id: int):
        self.package = package
        self.op_id = op_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.op = array("I")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # observations made at span boundaries, for ratios
        self.canon_inputs: set = set()
        self.legal_edges = 0
        self.absent_edges = 0
        self.free_kept = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn: Callable, name: Optional[str], observe: Optional[Callable]) -> Callable:
        fixed = None if name is None else self._name_id(name)
        name_of, parent, op, start, end = self.name_of, self.parent, self.op, self.start, self.end
        stack, op_id, clock = self._stack, self.op_id, time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._strategy_span(args[0])
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _strategy_span(self, strategy) -> int:
        return self._name_id("strategies.decide." + strategy.name.partition(":")[0])

    def _observe_canonical(self, args, result) -> None:
        g = args[0]
        self.canon_inputs.add((g.n, g.adj))

    def _observe_legal_moves(self, args, result) -> None:
        g = args[0]
        self.legal_edges += len(result)
        self.absent_edges += g.n * (g.n - 1) // 2 - g.m

    def _observe_free_graphs(self, args, result) -> None:
        if args[0] >= 2:  # n = 1 is returned without examining candidates
            self.free_kept += len(result)

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package.__name__
                                  or name.startswith(self.package.__name__ + "."))
        ]
        observers = {
            "families.legal_moves": self._observe_legal_moves,
            "analysis.free_graphs": self._observe_free_graphs,
            "graph.canonical_key": self._observe_canonical,
        }
        for short, funcs in FUNCTIONS.items():
            home = getattr(self.package, short, None)
            for fname in funcs:
                original = getattr(home, fname, _MISSING)
                if original is _MISSING:
                    continue  # the layer no longer has this function
                span = f"{short}.{fname}"
                wrapper = self._wrap(original, span, observers.get(span))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, value))
                            setattr(m, attr, wrapper)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(getattr(self.package, short, None), cls_name, None)
            original = vars(cls).get(meth, _MISSING) if cls is not None else _MISSING
            if original is _MISSING:
                continue
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, observers.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Calls and self time per span name, and the observed counts."""
        n = len(self.name_of)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        names, name_of = self.names, self.name_of
        canon = self._name_ids.get("graph.canonical_key")
        free = self._name_ids.get("analysis.free_graphs")
        candidates = 0
        for i in range(n):
            name = names[name_of[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
            if name_of[i] == canon and parent[i] >= 0 and name_of[parent[i]] == free:
                candidates += 1
        return {
            "calls": dict(calls), "self_s": dict(self_s), "spans": n,
            "canon_distinct": len(self.canon_inputs), "legal_edges": self.legal_edges,
            "absent_edges": self.absent_edges, "free_kept": self.free_kept,
            "free_candidates": candidates,
        }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ratio") or ".table_hit_ratio." in metric:
        return "ratio"
    if "per_s" in metric:
        return "1/s"
    if "self_s" in metric or metric.endswith("overhead_s") or "_s." in metric:
        return "s"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], search: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    `summaries` holds `Tracer.summary()` of each task of the operation.
    `search` maps every search task's name to what is known of it in this
    operation: its `counts`, its traced `summary` and its untraced `op_s`
    (empty for workloads that do not run it), so that every workload
    reports the same metrics.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total = defaultdict(int)
    for summary in summaries:
        for span, c in summary["calls"].items():
            calls[span] += c
        for span, t in summary["self_s"].items():
            self_s[span] += t
        for key in ("spans", "canon_distinct", "legal_edges", "absent_edges", "free_kept",
                    "free_candidates"):
            total[key] += summary[key]
    out: dict[str, float] = {}

    def both(span: str) -> None:
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.self_s"] = self_s.get(span, 0.0)

    for span in ("graph.canonical_key", "graph.components", "graph.add_edge",
                 "graph.everywhere_traceable"):
        both(span)
    out["graph.canonical_key.distinct_ratio"] = _ratio(
        total["canon_distinct"], calls.get("graph.canonical_key", 0))
    for fname in FUNCTIONS["families"]:
        both(f"families.{fname}")
    out["families.legal_moves.legal_ratio"] = _ratio(total["legal_edges"], total["absent_edges"])
    for span in ("engine.play", "engine.apply_action", "engine.is_terminal",
                 "engine.GameRecord.replay", "shapes.label_component"):
        both(span)
    for name in STRATEGIES:
        out[f"strategies.decide.calls.{name}"] = calls.get(f"strategies.decide.{name}", 0)
        out[f"strategies.decide.self_s.{name}"] = self_s.get(f"strategies.decide.{name}", 0.0)
    out["analysis.trace_stats.self_s"] = self_s.get("analysis.trace_stats", 0.0)
    out["verify.suite_claims.self_s"] = self_s.get("verify.suite_claims", 0.0)
    out["analysis.free_graphs.candidates"] = total["free_candidates"]
    out["analysis.free_graphs.keep_ratio"] = _ratio(total["free_kept"], total["free_candidates"])
    out["analysis.saturated_graphs.self_s"] = self_s.get("analysis.saturated_graphs", 0.0)
    for inst, known in search.items():
        counts = known.get("counts", {})
        summary = known.get("summary", {"calls": {}, "self_s": {}})
        op_s = known.get("op_s", 0.0)
        positions = counts.get("positions", 0)
        out[f"solver.positions_expanded.{inst}"] = positions
        out[f"solver.positions_per_s.{inst}"] = _ratio(positions, op_s)
        out[f"solver.self_s.{inst}"] = sum(
            summary["self_s"].get(span, 0.0) for span in ("solver.solve", "solver.best_response"))
        if inst.startswith("best_response_"):  # its table is internal and keyed by labels
            out[f"best_response_s.{inst.removeprefix('best_response_')}"] = op_s
            continue
        canon = summary["calls"].get("graph.canonical_key", 0)
        out[f"solve_s.{inst}"] = op_s
        out[f"solver.table_entries.{inst}"] = counts.get("table_entries", 0)
        out[f"solver.table_hit_ratio.{inst}"] = 1 - positions / canon if positions and canon else 0.0
    out["trace.spans"] = total["spans"]
    return out
