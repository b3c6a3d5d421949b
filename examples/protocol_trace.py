#!/usr/bin/env python3
"""Watch the Haechi protocol work, event by event.

Runs two QoS periods with two clients — one that exhausts its
reservation and raids the global pool, one that under-uses and gets
clamped — with a telemetry hub attached.  Prints the protocol
narrative from the hub's protocol records and its token ledger: token
dispatch, the first batched FAA claims, the monitor noticing the pool
move, reporting, token conversion, and Algorithm 1's end-of-period
capacity estimate (its input U, branch, floor and new estimate).

Run:  python examples/protocol_trace.py
"""

import heapq
from collections import Counter

from repro import QoSMode, SimScale, build_cluster
from repro.telemetry import Record, TelemetryConfig, attach_telemetry

SCALE = SimScale(factor=1000, interval_divisor=50)


def ledger_records(ledger, events):
    """The ledger's ``events`` rendered as records (category ``ledger``)."""
    for e in ledger.events:
        if e["event"] in events:
            fields = {k: v for k, v in e.items()
                      if k not in ("time", "event", "source")}
            yield Record(e["time"], "ledger", e["event"], fields)


def main() -> None:
    cluster = build_cluster(
        num_clients=2,
        qos_mode=QoSMode.HAECHI,
        reservations_ops=[300_000, 300_000],
        scale=SCALE,
    )
    hub = attach_telemetry(cluster, TelemetryConfig(sample_every=0))

    cluster.start()
    period = cluster.config.period
    sim = cluster.sim
    sim.run(until=0.02 * period)

    greedy, lazy = cluster.clients[0].engine, cluster.clients[1].engine
    for key in range(900):  # way past the 300-token reservation
        greedy.submit(key % 16, lambda ok, v, l: None)
    for key in range(100):  # under-uses its reservation
        lazy.submit(key % 16, lambda ok, v, l: None)
    sim.run(until=2 * period)

    interesting = {
        "monitor.period_begin", "monitor.reporting_triggered",
        "monitor.estimate", "engine.period_start",
    }
    # pool claims and conversions are ledger events that fire every
    # batch/tick; show only the first few
    budgets = {"ledger.convert": 3, "ledger.claim": 5}
    claims = list(ledger_records(hub.ledger, ("claim", "convert")))
    timeline = heapq.merge(hub.records, claims, key=lambda r: r.time)
    for record in timeline:
        tag = f"{record.category}.{record.event}"
        if tag in budgets:
            if budgets[tag] <= 0:
                continue
            budgets[tag] -= 1
        elif tag not in interesting:
            continue
        print(record)

    print()
    summary = Counter(hub.records.summary())
    summary.update(f"ledger.{record.event}" for record in claims)
    print("event counts over two periods:")
    for name in sorted(summary):
        print(f"  {name:<28} {summary[name]}")
    print()
    print(f"greedy client completed {greedy.total_completed} I/Os "
          f"({greedy.faa_issued} pool FAAs, "
          f"{greedy.faa_granted_tokens} tokens granted)")
    print(f"lazy client completed {lazy.total_completed} I/Os and yielded "
          f"{lazy.tokens.yielded_tokens} unused reservation tokens")


if __name__ == "__main__":
    main()
