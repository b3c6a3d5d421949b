"""The CI performance gate: catch simulator slowdowns, not slow runners.

Raw wall-clock thresholds are useless across heterogeneous CI hosts, so
the gate normalizes: it times a *calibration* microbenchmark — a
synthetic event loop exercising the same CPython primitives as the
simulator's hot path (heap pushes/pops of time-ordered tuples, Python
callbacks, attribute traffic) — and divides the gate workload's time by
it.  Machine speed cancels to first order; what remains tracks how much
work the simulator does per simulated op, which is exactly what a
performance regression changes.

Usage::

    python -m repro.cluster.perfgate                  # check vs baseline
    python -m repro.cluster.perfgate --write          # re-baseline
    python -m repro.cluster.perfgate --tolerance 0.25

The committed baseline lives at
``benchmarks/results/perf_baseline.json``; a normalized score more than
``tolerance`` (default 25%) above the baseline fails the gate.

Beside the timing the gate holds a noise-free **event budget**: the
workload's scheduled-event count (``Simulator._seq``) and events per
completed op are exact for the seed, so they are compared against the
baseline's ``events`` / ``events_per_op`` ceilings with no tolerance —
a change that reintroduces a per-op or per-tick timer fails here even
on a runner too noisy for the timing to show it.  The fluid path has
no events, so its budget is **calls per period**: Python-level calls
into ``src/repro`` while a 512-flow engine runs, counted with
``sys.setprofile`` and held under ``fluid_calls_per_period`` the same
way — a per-flow Python loop coming back into the period step is two
orders of magnitude over it.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
import time
from typing import List, Optional

DEFAULT_BASELINE = "benchmarks/results/perf_baseline.json"
DEFAULT_TOLERANCE = 0.25

_CALIBRATION_EVENTS = 300_000

#: The fluid cell: the ``fluid_1m_tenants`` shape, a tenth of its length.
_FLUID_CELL = dict(num_clients=1_000_000, tenants=32, groups_per_tenant=16,
                   periods=60, seed=11)

#: Exact-count budgets: baseline key -> what exceeding it means.
_CEILINGS = {
    "events": "a timer or completion came back onto the heap?",
    "events_per_op": "a timer or completion came back onto the heap?",
    "fluid_calls_per_period": "a per-flow Python loop came back into "
                              "the fluid period step?",
}


def _calibration_round(events: int = _CALIBRATION_EVENTS) -> float:
    """Seconds of process time for one synthetic event-loop round."""
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


def _workload_round() -> tuple:
    """``(seconds of process time, events scheduled, ops completed)``
    for one gate-workload run.

    The workload is one cell of the pinned Fig. 12 sweep (uniform
    reservations at 70%, K=500) — the configuration the tentpole
    speedup was measured on, run through the same scenario the parallel
    runner uses.
    """
    from repro.cluster.runner import run_fig12_point

    start = time.process_time()
    cluster, _result, _reservations = run_fig12_point(
        {"distribution": "uniform", "fraction": 0.7}, 0)
    seconds = time.process_time() - start
    completed = sum(m.completed.total
                    for m in cluster.metrics.clients.values())
    return seconds, cluster.sim._seq, completed


def _fluid_calls_per_period() -> float:
    """Python-level calls into ``src/repro`` per period of the fluid
    cell's run phase (exact for the seed; setup is not counted)."""
    from repro.fluid.scenario import build_fluid_scale

    _hierarchy, engine, _ledger, _capacity = build_fluid_scale(**_FLUID_CELL)
    # .../src/repro/ — this file is repro/cluster/perfgate.py.
    here = os.path.abspath(__file__)
    prefix = os.path.dirname(os.path.dirname(here)) + os.sep
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            calls += 1

    periods = _FLUID_CELL["periods"]
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        engine.run(periods)
    finally:
        sys.setprofile(previous)
    return calls / periods


def measure(rounds: int = 5) -> dict:
    """Calibration, workload, and the normalized gate score.

    Calibration and workload rounds are interleaved in time and the
    score is the *median of per-round ratios*: a slow phase of a shared
    CI host inflates the round's calibration and workload together, so
    the ratio stays put where back-to-back block timing would not.
    """
    import statistics

    calibrations = []
    workloads = []
    ratios = []
    for _ in range(rounds):
        calibration = _calibration_round()
        workload, events, completed = _workload_round()
        calibrations.append(calibration)
        workloads.append(workload)
        ratios.append(workload / calibration)
    return {
        "calibration_seconds": round(statistics.median(calibrations), 4),
        "workload_seconds": round(statistics.median(workloads), 4),
        "normalized": round(statistics.median(ratios), 4),
        # Exact for the seed: every round schedules the same events.
        "events": events,
        "events_per_op": round(events / completed, 4),
        "fluid_calls_per_period": round(_fluid_calls_per_period(), 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression (0.25 = 25%%)")
    parser.add_argument("--write", action="store_true",
                        help="write the current measurement as the baseline")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved measurement rounds")
    args = parser.parse_args(argv)

    current = measure(rounds=args.rounds)
    print(f"calibration: {current['calibration_seconds']:.3f}s  "
          f"workload: {current['workload_seconds']:.3f}s  "
          f"normalized: {current['normalized']:.3f}  "
          f"events: {current['events']}  "
          f"events_per_op: {current['events_per_op']:.4f}  "
          f"fluid_calls_per_period: {current['fluid_calls_per_period']:.4f}")

    if args.write:
        with open(args.baseline, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read baseline {args.baseline}: {err}", file=sys.stderr)
        return 2
    reference = baseline["normalized"]
    limit = reference * (1.0 + args.tolerance)
    regression = current["normalized"] / reference - 1.0
    print(f"baseline normalized: {reference:.3f}  limit: {limit:.3f}  "
          f"delta: {regression:+.1%}")
    failed = False
    if current["normalized"] > limit:
        print(f"FAIL: normalized score regressed {regression:+.1%} "
              f"(> {args.tolerance:.0%} allowed)", file=sys.stderr)
        failed = True
    # Baselines written before a budget existed carry no ceiling for it.
    for key, suspect in _CEILINGS.items():
        ceiling = baseline.get(key)
        if ceiling is not None and current[key] > ceiling:
            print(f"FAIL: {key} {current[key]} exceeds the committed "
                  f"ceiling {ceiling} ({suspect})", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
