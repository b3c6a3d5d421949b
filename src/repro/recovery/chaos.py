"""Seeded chaos harness for the replicated cluster (docs/RECOVERY.md).

A chaos run draws a randomized-but-deterministic fault schedule from a
seed — a primary crash/restart window, a few abrupt QP closes, a
control-op drop storm — runs a mixed GET (one-sided, QoS-managed) and
PUT (two-sided, replicated) workload through it, leaves a fault-free
settle tail, and then checks the safety and liveness invariants:

1. **No lost acknowledged PUT** — every (client, key, version) the
   reliable-PUT path acknowledged is present on at least one store.
2. **No duplicate apply** — no store applied the same (client, key,
   version) more than once (replays must dedup by version).
3. **Reservations eventually met** — once faults clear, every live
   client's per-period completions reach ~its granted reservation.
4. **Bounded unavailability** — every failover completes within the
   configured number of QoS periods.
5. **Token conservation** — the telemetry ledger's per-account identity
   (granted reservation + pool claims == spent + yielded + expired)
   balances to zero for every grant episode, across crash, failover,
   and rejoin (see :mod:`repro.telemetry.ledger`).

Same seed, same schedule, same verdict: failures are replayable.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.core.config import HaechiConfig
from repro.cluster.chaos import (
    SETTLE_PERIODS,
    ChaosRun,
    ChaosScenario,
    ClusterKind,
)
from repro.cluster.experiment import attach_app
from repro.cluster.scale import SimScale
from repro.faults.plan import CrashWindow, DropRule, FaultPlan, OpFilter, QPCloseFault
from repro.recovery.cluster import ReplicatedCluster, build_replicated_cluster
from repro.recovery.failover import FailoverState
from repro.workloads.patterns import RequestPattern

CHAOS_SCALE = SimScale(factor=1000, interval_divisor=50)

NUM_CLIENTS = 4
RESERVATION_OPS = 60_000.0
PUTS_PER_PERIOD = 8


def chaos_plan(
    seed: int,
    config: HaechiConfig,
    periods: int,
    num_clients: int,
) -> FaultPlan:
    """Draw a deterministic fault schedule for one run.

    All faults land in [1, periods - SETTLE_PERIODS) periods; the tail
    is left clean.  Always includes a finite primary crash window (the
    tentpole scenario); QP closes and a control drop storm are drawn
    per-seed.
    """
    if periods < SETTLE_PERIODS + 3:
        raise ConfigError(
            f"chaos runs need at least {SETTLE_PERIODS + 3} periods "
            f"(got {periods}): faults plus a {SETTLE_PERIODS}-period "
            "settle tail must both fit"
        )
    rng = make_rng(seed, "chaos-plan")
    T = config.period
    fault_end = (periods - SETTLE_PERIODS) * T

    crash_len = (0.6 + 0.8 * rng.random()) * T
    crash_start = T * (1.0 + rng.random() * (periods - SETTLE_PERIODS - 3))
    crash_end = min(crash_start + crash_len, fault_end)
    crashes = (CrashWindow("server", crash_start, crash_end),)

    qp_closes = tuple(
        QPCloseFault(f"C{rng.randrange(num_clients) + 1}", "server",
                     T * (1.0 + rng.random() * (periods - SETTLE_PERIODS - 2)))
        for _ in range(rng.randrange(3))  # 0..2 closes
    )

    storm_start = T * (1.0 + rng.random() * (periods - SETTLE_PERIODS - 2))
    drops = (DropRule(
        rate=0.1 + 0.1 * rng.random(),
        where=OpFilter(control_only=True, start=storm_start,
                       end=storm_start + T),
        label="chaos-storm",
    ),)

    return FaultPlan(
        drops=drops,
        qp_closes=qp_closes,
        crashes=crashes,
        drop_fail_after=config.check_interval,
    )


def _build(seed: int) -> ReplicatedCluster:
    return build_replicated_cluster(
        num_clients=NUM_CLIENTS,
        reservations_ops=[RESERVATION_OPS] * NUM_CLIENTS,
        scale=CHAOS_SCALE,
    )


def _attach_put_driver(cluster: ReplicatedCluster, manager, index: int,
                       stop_time: float) -> None:
    """A paced reliable-PUT stream through the failover manager, which
    tracks every acknowledged (key, version) itself."""
    sim = cluster.sim
    gap = cluster.config.period / PUTS_PER_PERIOD
    num_slots = cluster.data_node.store.layout.num_slots
    payload = b"chaos"

    def put_next(key):
        if sim.now < stop_time:
            manager.put(key, payload)
            sim.schedule(gap, put_next, (key + 7) % num_slots)

    sim.schedule(0.0, put_next, index % num_slots)


def _drive(cluster: ReplicatedCluster, seed: int, stop_time: float) -> None:
    """Mixed load per client: a QoS-managed GET app at the reservation
    and a reliable-PUT stream."""
    for i, ctx in enumerate(cluster.clients):
        attach_app(cluster, ctx, RequestPattern.BURST,
                   demand_ops=RESERVATION_OPS, window=None)
        _attach_put_driver(cluster, ctx.failover, i, stop_time)


def _failover_windows(cluster: ReplicatedCluster):
    return [
        (ctx.name, end - start)
        for ctx in cluster.clients
        for start, end in ctx.failover.failover_windows
    ]


def _acked_put_rows(run: ChaosRun):
    # Durable on at least one store (primary or replica).
    stores = run.cluster.stores
    return ([
        (ctx.name, f"{ctx.name} key={key}", version,
         max(store.applied_versions.get((ctx.name, key), 0)
             for store in stores))
        for ctx in run.cluster.clients
        for key, version in ctx.failover.acked_puts.items()
    ],)


def _apply_rows(run: ChaosRun):
    return ([
        (label, client, key, version, count)
        for label, store in zip(("primary", "replica"), run.cluster.stores)
        for (client, key, version), count in store.apply_counts.items()
    ],)


def _reservation_rows(run: ChaosRun):
    # The last (settle) period's completions against the granted
    # reservation, for every client that is still live; a FAILED
    # client is reported by the scenario's own check instead.
    rows = []
    for ctx in run.cluster.clients:
        manager = ctx.failover
        if manager.state is FailoverState.FAILED:
            continue
        counts = run.cluster.metrics.clients[ctx.name].period_counts
        granted = manager.granted_reservation
        if counts and granted > 0:
            rows.append((ctx.name, counts[-1], granted))
    return (rows,)


#: Oracle evidence for :class:`~repro.recovery.cluster.ReplicatedCluster`.
REPLICATED = ClusterKind(
    name="replicated",
    drive=_drive,
    evidence={
        "no-lost-acked-put": _acked_put_rows,
        "no-duplicate-apply": _apply_rows,
        "reservations-met": _reservation_rows,
        "bounded-failover": lambda run: (
            _failover_windows(run.cluster),
            run.cluster.recovery.failover_bound_periods,
            run.cluster.config.period,
        ),
        "ledger-conservation": lambda run: (run.ledger,),
    },
)


def _checks(run: ChaosRun):
    for ctx in run.cluster.clients:
        if ctx.failover.state is FailoverState.FAILED:
            yield f"{ctx.name} never recovered (FAILED)"
    # The plan always crashes the primary: every client must have
    # completed a failover (the protocol under test actually ran).
    if run.plan.crashes:
        for ctx in run.cluster.clients:
            if ctx.failover.rejoins_completed < 1:
                yield f"{ctx.name} never failed over despite primary crash"


def _counters(run: ChaosRun) -> dict:
    cluster = run.cluster
    clients = cluster.clients
    return {
        "failovers": sum(c.failover.failovers for c in clients),
        "failover_durations": [
            duration for _name, duration in _failover_windows(cluster)
        ],
        "puts_acked": sum(c.failover.puts_acked for c in clients),
        "put_retries": sum(c.failover.put_retries for c in clients),
        "duplicate_suppressed": sum(
            s.duplicate_suppressed for s in cluster.stores
        ),
        "degraded_acks": cluster.data_node.degraded_acks,
        "rejoins": len(cluster.replica_monitor.rejoins),
        "generation_resyncs": sum(
            c.engine.generation_resyncs for c in clients
        ),
    }


RECOVERY = ChaosScenario(
    name="recovery",
    summary="primary crash/restart + QP closes + control drop storm",
    # CI's chaos-smoke job runs the first three, `python -m repro chaos`
    # and the full test run all five.
    seeds=(11, 23, 37, 41, 53),
    periods=10,
    kind=REPLICATED,
    build=_build,
    plan=lambda seed, cluster, periods: chaos_plan(
        seed, cluster.config, periods, len(cluster.clients)
    ),
    # Invariants 1-5 of the module docstring, in order.
    oracles=(
        "no-lost-acked-put",
        "no-duplicate-apply",
        "reservations-met",
        "bounded-failover",
        "ledger-conservation",
    ),
    checks=_checks,
    counters=_counters,
    exercised=("failovers", "rejoins", "puts_acked"),
    columns=("failovers", "puts_acked", "put_retries",
             "duplicate_suppressed"),
)
