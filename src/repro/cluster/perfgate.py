"""The CI exact-budget gate: catch work coming back, on any runner.

The gate holds four counts that repeat exactly for a fixed seed, so
they are compared against committed ceilings with no tolerance and no
clock: the scheduled-event count (``Simulator._seq``) of one Fig. 12
cell and its events per completed op — a change that reintroduces a
per-op or per-tick timer fails here however noisy the runner — the
**backlog records** the cell's engines hold at run end (one per run of
queued ops; a container per queued op is what the cyclic collector
walks, which no profiler attributes — a run costs one record plus 8 B
per queued key, its keys packed in one int64 column) — and,
because the fluid path has no events, its **calls per period**:
Python-level calls into ``src/repro`` while a 512-flow engine runs,
counted with ``sys.setprofile`` — a per-flow Python loop coming back
into the period step is two orders of magnitude over it.

Usage::

    python -m repro.cluster.perfgate                  # check vs baseline
    python -m repro.cluster.perfgate --write          # re-pin

The committed ceilings live at ``benchmarks/results/perf_baseline.json``
(lower them by hand when a PR removes events).  Host time is not
measured here: ``benchmarks/layered`` is the one stopwatch.

``events`` is ``Simulator._seq``, the count of heap positions handed
out, not of callbacks run: it includes the seq an engine reserves when
it starts an empty-poll chain (the timer form's retry slot, kept so a
chain turned real early lands exactly there; see
``QoSEngine._start_polls``), whether or not anything is ever pushed
with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

DEFAULT_BASELINE = "benchmarks/results/perf_baseline.json"

#: The fluid cell: the ``fluid_1m_tenants`` shape, a tenth of its length.
_FLUID_CELL = dict(num_clients=1_000_000, tenants=32, groups_per_tenant=16,
                   periods=60, seed=11)

#: Exact-count budgets: baseline key -> what exceeding it means.
_CEILINGS = {
    "events": "a timer or completion came back onto the heap?",
    "events_per_op": "a timer or completion came back onto the heap?",
    "backlog_records": "a per-op record came back into the engine "
                       "backlog?",
    "fluid_calls_per_period": "a per-flow Python loop came back into "
                              "the fluid period step?",
}


def _workload_counts() -> tuple:
    """``(events scheduled, ops completed, backlog records)`` for one
    gate-workload run.

    The workload is one cell of the pinned Fig. 12 sweep (uniform
    reservations at 70%, K=500), run through the same scenario the
    parallel runner uses.  Its clients ask for more than they are
    granted, so most of every burst is still queued at run end; the
    records are what the engines hold that backlog in.
    """
    from repro.cluster.runner import run_fig12_point

    cluster, _result, _reservations = run_fig12_point(
        {"distribution": "uniform", "fraction": 0.7}, 0)
    completed = sum(m.completed.total
                    for m in cluster.metrics.clients.values())
    records = sum(len(ctx.engine._queue) for ctx in cluster.clients)
    return cluster.sim._seq, completed, records


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


def measure() -> dict:
    """The four gated counts, each exact for the seed."""
    events, completed, records = _workload_counts()
    return {
        "events": events,
        "events_per_op": round(events / completed, 4),
        "backlog_records": records,
        "fluid_calls_per_period": round(_fluid_calls_per_period(), 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--write", action="store_true",
                        help="write the current counts as the baseline")
    args = parser.parse_args(argv)

    if not args.write:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"cannot read baseline {args.baseline}: {err}",
                  file=sys.stderr)
            return 2

    current = measure()
    print("  ".join(f"{key}: {current[key]:g}" for key in _CEILINGS))

    if args.write:
        with open(args.baseline, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    failed = False
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
