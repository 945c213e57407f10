"""Span tracing for the benchmark's traced run.

While a Tracer is active, each traced function is replaced, in the module
that looks it up at call time, by a wrapper that records a span: its name,
the call it belongs to, the enclosing span, the start and end times and
the WorkCounter total at both ends. Leaving the tracer puts the original
functions back, so untraced calls run the program unchanged. Spans stay in
memory; the caller writes them out once, when the run ends.

Calls run with threads=1, so spans nest strictly and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import dpar
import dpar.coloring
import dpar.hitting
import dpar.matching
import dpar.mis
import dpar.ntheory
import dpar.rounding


def _local_round_info(args, kwargs, result) -> dict:
    return {"cost_pairs": len(args[0].cost_c), "classes": int(result.num_classes)}


def _hitting_info(args, kwargs, result) -> dict:
    return {"hit_constant": float(result.hit_constant)}


# (owner, attribute, span name, info hook). The owner is the module (or
# class) through which the caller finds the function.
TRACE_POINTS: list[tuple[Any, str, str, Callable | None]] = [
    (dpar, "maximal_independent_set", "mis.maximal_independent_set", None),
    (dpar, "maximal_matching", "matching.maximal_matching", None),
    (dpar, "hitting_set", "hitting.hitting_set", _hitting_info),
    (dpar, "core_mis_hitting", "mis.core_mis_hitting", None),
    (dpar.mis, "independentish_set", "mis.independentish_set", None),
    (dpar.mis, "core_mis_hitting", "mis.core_mis_hitting", None),
    (dpar.mis, "edge_buckets", "mis.edge_buckets", None),
    (dpar.mis.MisAuxInstance, "__post_init__", "mis.MisAuxInstance.check", None),
    (dpar.mis, "compact_subgraph", "graph.compact_subgraph", None),
    (dpar.mis, "color_delta_squared", "coloring.color_delta_squared", None),
    (dpar.mis, "run_half", "hitting.run_half", None),
    (dpar.matching, "hitting_set", "hitting.hitting_set", _hitting_info),
    (dpar.matching, "sort_edges_to_csr", "graph.sort_edges_to_csr", None),
    (dpar.matching, "color_delta_squared", "coloring.color_delta_squared", None),
    (dpar.hitting, "run_half", "hitting.run_half", None),
    (dpar.hitting, "local_round", "rounding.local_round", _local_round_info),
    (dpar.hitting, "precompute_tables", "ntheory.precompute_tables", None),
    (dpar.rounding, "graph_from_directed_slots", "graph.graph_from_directed_slots", None),
    (dpar.rounding, "defective_coloring", "coloring.defective_coloring", None),
    (dpar.coloring, "precompute_tables", "ntheory.precompute_tables", None),
    (dpar.ntheory.NumberTheoryTables, "sqrt_table", "ntheory.sqrt_table", None),
]


@dataclass
class Span:
    name: str
    call: int
    parent: int  # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    work_start: int = 0
    work_end: int = 0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def units(self) -> int:
        return self.work_end - self.work_start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call = -1
        self._stack: list[int] = []
        self._work = None

    def _units(self) -> int:
        return self._work.total if self._work is not None else 0

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            sp = Span(name, self.call, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(sp)
            sp.work_start = self._units()
            sp.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                sp.work_end = self._units()
                self._stack.pop()
            if info is not None:
                sp.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self, work):
        """Trace one call charging `work`; originals are restored on exit."""
        self.call += 1
        self._work = work
        saved = []
        try:
            for owner, attr, name, info in TRACE_POINTS:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, info))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self._work = None

    def totals(self, call: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds and units, and
        the summed or maximal info fields, over one traced call."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.call == call]
        child_s: dict[int, float] = {}
        child_u: dict[int, int] = {}
        for _, s in spans:
            if s.parent >= 0:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
                child_u[s.parent] = child_u.get(s.parent, 0) + s.units
        out: dict[str, dict[str, float]] = {}
        for i, s in spans:
            t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0, "self_units": 0})
            t["calls"] += 1
            t["s"] += s.seconds
            t["self_s"] += s.seconds - child_s.get(i, 0.0)
            t["units"] += s.units
            t["self_units"] += s.units - child_u.get(i, 0)
            for k, v in s.info.items():
                if k == "hit_constant":
                    t[k] = max(t.get(k, 0.0), v)
                else:
                    t[k] = t.get(k, 0) + v
        return out

    def dump(self) -> list[list]:
        return [
            [s.name, s.call, s.parent, s.start, s.end, s.work_start, s.work_end, s.info]
            for s in self.spans
        ]
