"""Tracing for the benchmark's traced run — all of it from the outside.

Three instruments, none of which touch ``src/``:

- :func:`profiled` runs a callable under ``cProfile`` and
  :func:`fold_by_layer` folds the profile's self time (``tottime``) by
  ``src/repro/<pkg>/<module>``.  Self time of builtins and the standard
  library (``heappush``, ``deque.popleft``, ``random`` ...) is charged
  to the repro module that called it, through the profile's caller
  edges, so the heap work ``sim.core`` asks for counts as ``sim.core``.
- :class:`SpanLog` keeps the harness's own spans (name, start, end,
  parent) in memory; they are written out with the result document.
- :class:`HeapWatch` samples ``len(sim._heap)`` at period boundaries by
  scheduling a harness callback on the simulator — only in the traced
  run, because it adds events.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Callable, Dict, List, Optional, Tuple

from spec import TRACE_LAYERS
from stats import percentile

OTHER = "other"


class SpanLog:
    """Harness spans, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.spans: List[dict] = []

    def open(self, name: str, parent: Optional[int] = None) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": self.clock(), "end": None,
                           "parent": parent})
        return len(self.spans) - 1

    def close(self, span_id: int) -> float:
        span = self.spans[span_id]
        span["end"] = self.clock()
        return span["end"] - span["start"]

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> None:
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent})


class HeapWatch:
    """Heap-depth samples and the warm-up/measure split of a traced run.

    ``begin`` is called by a workload just before it drives one
    simulator; with a period it schedules one sampling callback per
    period boundary, and the callback at the warm-up boundary stamps
    the host clock so the run span can be split into ``warmup`` and
    ``measure``.  ``end`` closes the segment.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.depths: List[int] = []
        #: (start, warmup_end or None, end) per driven simulator.
        self.segments: List[List[Optional[float]]] = []

    def begin(self, sim=None, period: Optional[float] = None,
              warmup: int = 0, periods: int = 0) -> None:
        self.segments.append([self.clock(), None, None])
        if sim is None or period is None:
            return
        for k in range(1, warmup + periods + 1):
            sim.schedule_at(sim.now + k * period, self._boundary, sim,
                            k == warmup)

    def _boundary(self, sim, warmup_ends: bool) -> None:
        self.depths.append(len(sim._heap))
        if warmup_ends:
            self.segments[-1][1] = self.clock()

    def sample(self, sim) -> None:
        """Manual sample, for runs the harness advances in slices."""
        self.depths.append(len(sim._heap))

    def end(self) -> None:
        self.segments[-1][2] = self.clock()

    def spans_into(self, log: SpanLog, prefix: str, parent: int) -> None:
        """Turn the recorded segments into warmup/measure spans."""
        for start, warmup_end, end in self.segments:
            if warmup_end is not None:
                log.add(f"{prefix}.warmup", start, warmup_end, parent)
                start = warmup_end
            log.add(f"{prefix}.measure", start, end, parent)

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self.depths)
        if not ordered:
            return {"trace.heap_depth_p50": 0, "trace.heap_depth_max": 0}
        return {"trace.heap_depth_p50": percentile(ordered, 50.0),
                "trace.heap_depth_max": ordered[-1]}


def profiled(fn: Callable[[], None]) -> pstats.Stats:
    """Run ``fn`` under cProfile; return its stats."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return pstats.Stats(profile)


def _layer_of(filename: str) -> Optional[str]:
    """``pkg.module`` for a file under ``src/repro``, "harness" for the
    benchmark's own files, None for builtins and everything else."""
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        rel = filename[at + len(marker):]
        if rel.endswith(".py"):
            rel = rel[:-3]
        return rel.replace("/", ".")
    if "/benchmarks/layered/" in filename:
        return "harness"
    return None


def fold_by_layer(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Self seconds and call counts per layer.

    A function in a repro (or harness) module owns its own self time.
    A function outside them is owned by its callers: each caller edge
    carries the self time spent on that edge, and an edge whose caller
    is itself outside is passed further up in proportion to the
    cumulative time of *its* caller edges.  What cannot be traced to an
    owner (profile roots) lands in "other".
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    layer_of = {func: _layer_of(func[0]) for func in table}
    owners_memo: Dict[Tuple, Dict[str, float]] = {}

    def owners(func, trail=()) -> Dict[str, float]:
        """Distribution over layers of who is responsible for ``func``."""
        own = layer_of.get(func)
        if own is not None:
            return {own: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        if func in trail or func not in table:
            return {OTHER: 1.0}
        callers = table[func][4]
        weight = sum(edge[3] for edge in callers.values())
        if not callers or weight <= 0:
            return {OTHER: 1.0}
        dist: Dict[str, float] = {}
        for caller, edge in callers.items():
            share = edge[3] / weight
            for layer, part in owners(caller, trail + (func,)).items():
                dist[layer] = dist.get(layer, 0.0) + share * part
        owners_memo[func] = dist
        return dist

    out: Dict[str, Dict[str, float]] = {}

    def charge(layer: str, seconds: float, calls: int = 0) -> None:
        row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += calls

    for func, (_cc, nc, tt, _ct, callers) in table.items():
        own = layer_of[func]
        if own is not None:
            charge(own, tt, nc)
            continue
        edge_total = 0.0
        for caller, edge in callers.items():
            edge_total += edge[2]
            for layer, part in owners(caller, (func,)).items():
                charge(layer, edge[2] * part)
        # Self time not on any caller edge (the profile's entry points).
        if tt > edge_total:
            charge(OTHER, tt - edge_total)
    return out


def layer_metrics(folded: Dict[str, Dict[str, float]],
                  work_units: int) -> Dict[str, float]:
    """``trace.<layer>.self_share`` / ``.calls_per_op`` for the named
    layers, everything else under ``trace.other.self_share``."""
    total = sum(row["self_s"] for row in folded.values())
    metrics: Dict[str, float] = {}
    named = 0.0
    for layer in TRACE_LAYERS:
        row = folded.get(layer, {"self_s": 0.0, "calls": 0})
        share = row["self_s"] / total if total else 0.0
        named += share
        metrics[f"trace.{layer}.self_share"] = share
        metrics[f"trace.{layer}.calls_per_op"] = (
            row["calls"] / work_units if work_units else 0.0
        )
    metrics[f"trace.{OTHER}.self_share"] = (1.0 - named) if total else 0.0
    return metrics


def top_unnamed(folded: Dict[str, Dict[str, float]],
                count: int = 5) -> List[Tuple[str, float]]:
    """The biggest layers hidden inside "other", for the report."""
    total = sum(row["self_s"] for row in folded.values()) or 1.0
    rest = [(layer, row["self_s"] / total) for layer, row in folded.items()
            if layer not in TRACE_LAYERS]
    return sorted(rest, key=lambda item: -item[1])[:count]
