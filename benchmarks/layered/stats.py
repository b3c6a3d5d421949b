"""Small numeric helpers shared by the harness: order statistics over a
handful of repeats, the verdict rule, and the calibration loop."""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, List, Sequence

CALIBRATION_EVENTS = 300_000


def summarize(values: Sequence[float], best: str = "median"
              ) -> Dict[str, object]:
    """The reported value, median, quartiles and raw values of one
    metric's repeats.

    ``best`` picks the reported ``value``: the median for quantities
    whose noise is two-sided (ratios, memory), ``"min"`` / ``"max"``
    for host times and rates, whose noise on a shared box is one-sided —
    a neighbour can only slow a repeat down — so the fastest repeat is
    the steadiest estimate of what the code costs (README, "Measurement
    rules").  Quartiles are ``statistics.quantiles(values, n=4)``, the
    rule the PR driver applies, and collapse to the single value when
    only one repeat exists.
    """
    raw = [float(v) for v in values]
    if not raw:
        raise ValueError("summarize needs at least one value")
    if len(raw) == 1:
        q1 = q3 = raw[0]
    else:
        q1, _q2, q3 = statistics.quantiles(raw, n=4)
    median = statistics.median(raw)
    value = {"median": median, "min": min(raw), "max": max(raw)}[best]
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "raw": raw}


def spread(summary: Dict[str, object]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    if not median:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(median)


def percentile(ordered: List[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        raise ValueError("percentile of an empty list")
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def calibration_round(events: int = CALIBRATION_EVENTS) -> float:
    """CPU seconds of one synthetic event-loop round.

    The same shape as ``repro.cluster.perfgate``'s calibration (heap
    pushes/pops of time-ordered tuples, a Python callback, integer
    traffic), kept here so the harness does not depend on a module the
    roadmap plans to fold into it.  Dividing a workload's host time by
    this cancels machine speed to first order.
    """
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    seq = 0

    def callback(a: int, b: int) -> int:
        return a + b

    start = time.process_time()
    for i in range(events):
        seq += 1
        push(heap, (i * 1e-6, seq, callback, (i, seq)))
        if i & 1:
            _t, _s, fn, args = pop(heap)
            acc += fn(*args)
    while heap:
        _t, _s, fn, args = pop(heap)
        acc += fn(*args)
    return time.process_time() - start
