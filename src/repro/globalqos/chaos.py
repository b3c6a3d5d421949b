"""Seeded chaos for the global coordinator (degradation invariants).

The coordinator is soft state, so its chaos harness checks *graceful
degradation*, not durability: crash the ``coord`` host mid-run (every
send to or from it drops at the fabric), add a seeded control-op drop
storm, and verify that the data plane never noticed:

1. **Fallback engaged** — with the coordinator silent past the
   client-side timer, agents restore the static even split on their
   own (the freeze -> fallback ladder actually ran).
2. **Recovery re-engaged** — after the crash window closes, one epoch
   of reports rebuilds the coordinator's view and rebalancing resumes
   (heartbeats reach the clients again, shifts are recomputed).
3. **No lost acknowledged PUT** — every versioned PUT acked to the
   chaos driver is durable on the owning node's store, mid-stream
   rebinds notwithstanding.
4. **Token conservation** — every engine grant episode balances across
   all the rebinds the split changes caused
   (:meth:`~repro.telemetry.ledger.TokenLedger.check_conservation`).
5. **Split conservation** — every rebalance the coordinator recorded
   sums to the client's aggregate reservation exactly
   (:meth:`~repro.telemetry.ledger.TokenLedger.check_split_conservation`).
6. **Reservations met after settle** — in the final (fault-free)
   period every client's completions reach 90% of its aggregate
   reservation: the coordinator's return actually restored the skewed
   clients' attainment.

Same seed, same schedule, same verdict: failures are replayable.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.cluster.chaos import (
    SETTLE_PERIODS,
    ChaosRun,
    ChaosScenario,
    ClusterKind,
)
from repro.faults.plan import (
    CrashWindow,
    DelayRule,
    DropRule,
    FaultPlan,
    OpFilter,
    PartitionRule,
    SlowdownRule,
)
from repro.globalqos.agents import COMPUTE_MARGIN
from repro.globalqos.coordinator import COORD_HOST_NAME, STANDBY_HOST_NAME
from repro.globalqos.scenario import build_skewed_cluster

# The coordinator cadence every chaos scenario runs at: QoS periods per
# rebalance epoch, silent epochs before clients restore the even split,
# silent epochs before the standby takes over.
REBALANCE_PERIODS = 2
FALLBACK_AFTER = 2
TAKEOVER_AFTER = 2

PUTS_PER_PERIOD = 6


def coord_chaos_plan(seed: int, cluster, periods: int) -> FaultPlan:
    """A deterministic schedule built around one coordinator outage.

    The crash window opens after the first rebalance has landed and
    stays down long enough to trip the client fallback timers, then
    lifts with at least two epochs plus the settle tail remaining so
    recovery is observable.  A short control-op drop storm lands
    somewhere in the faulted region for extra report loss.
    """
    min_periods = 7 * REBALANCE_PERIODS + SETTLE_PERIODS
    if periods < min_periods:
        raise ConfigError(
            f"coordinator chaos needs >= {min_periods} periods "
            f"(got {periods}): outage, fallback, recovery and a "
            f"{SETTLE_PERIODS}-period settle tail must all fit"
        )
    rng = make_rng(seed, "coord-chaos-plan")
    config = cluster.config
    T = config.period
    epoch = REBALANCE_PERIODS * T
    # Down for 3 epochs starting somewhere in the second one: the
    # first shift is in force, then >= fallback_after epochs of
    # silence force the even-split fallback.
    crash_start = epoch * (1.0 + rng.random())
    crash_end = crash_start + 3.0 * epoch
    crashes = (CrashWindow(COORD_HOST_NAME, crash_start, crash_end),)

    storm_start = crash_start + rng.random() * 2.0 * epoch
    drops = (DropRule(
        rate=0.05 + 0.1 * rng.random(),
        where=OpFilter(control_only=True, start=storm_start,
                       end=storm_start + T),
        label="coord-chaos-storm",
    ),)
    return FaultPlan(
        drops=drops,
        crashes=crashes,
        drop_fail_after=config.check_interval,
    )


class _PutDriver:
    """A paced versioned-PUT stream through one striped client.

    Tracks every acknowledged (node, key, version) so the durability
    oracle can demand it; versions make server-side replays idempotent.
    """

    def __init__(self, cluster, striped, stop_time: float, seed: int):
        self.striped = striped
        self.acked: Dict[Tuple[int, int], int] = {}
        self.puts_acked = 0
        self._versions: Dict[Tuple[int, int], int] = {}
        sim = cluster.sim
        num_nodes = len(cluster.nodes)
        keyspace = num_nodes * min(
            node.data_node.store.layout.num_slots for node in cluster.nodes
        )
        rng = make_rng(seed, "coord-chaos-puts", striped.index)
        gap = cluster.config.period / PUTS_PER_PERIOD
        payload = b"coordchaos"

        def put_next():
            if sim.now >= stop_time:
                return
            key = rng.randrange(keyspace)
            node = key % num_nodes
            node_key = key // num_nodes
            slot = (node, node_key)
            version = self._versions.get(slot, 0) + 1
            self._versions[slot] = version

            def on_ack(ok, _value, _latency):
                if ok:
                    self.puts_acked += 1
                    if version > self.acked.get(slot, 0):
                        self.acked[slot] = version

            striped.kv_clients[node].put_twosided(
                node_key, payload, on_ack, client_version=version
            )
            sim.schedule(gap, put_next)

        sim.schedule(0.0, put_next)


# ---------------------------------------------------------------------------
# Oracle evidence for the multi-node cluster (shared by every scenario
# that runs on a :class:`~repro.cluster.multinode.MultiNodeCluster`,
# the policy-flip one included)
# ---------------------------------------------------------------------------
def _drive(cluster, seed: int, stop_time: float):
    return [
        _PutDriver(cluster, striped, stop_time, seed)
        for striped in cluster.clients
    ]


def _acked_put_rows(run: ChaosRun):
    # Durable on the owning node's store, mid-stream rebinds
    # notwithstanding.
    cluster = run.cluster
    rows = []
    for striped, driver in zip(cluster.clients, run.drivers):
        for (node, node_key), version in driver.acked.items():
            store = cluster.nodes[node].data_node.store
            client_id = striped.kv_clients[node].name
            rows.append((
                striped.name,
                f"{striped.name} node {node} key={node_key}",
                version,
                store.applied_versions.get((client_id, node_key), 0),
            ))
    return (rows,)


def _reservation_rows(run: ChaosRun):
    # The final, fault-free period against the aggregate reservation.
    metrics = run.cluster.metrics.clients
    return ([
        (striped.name,
         (metrics[striped.name].period_counts[-1]
          if metrics[striped.name].period_counts else None),
         striped.aggregate_reservation)
        for striped in run.cluster.clients
    ],)


def _ledger(run: ChaosRun):
    return (run.ledger,)


MULTINODE = ClusterKind(
    name="multinode",
    drive=_drive,
    evidence={
        "no-lost-acked-put": _acked_put_rows,
        "reservations-met": _reservation_rows,
        "no-stale-split": lambda run: ([
            (agent.striped.name, agent.update_keys_applied)
            for agent in run.cluster.client_agents
        ],),
        "no-stale-policy": lambda run: ([
            (agent.striped.name, agent.policy_keys_applied)
            for agent in run.cluster.client_agents
        ],),
        "ledger-conservation": _ledger,
        "split-conservation": _ledger,
        "quarantine-audit": _ledger,
        "policy-audit": _ledger,
    },
)


# ---------------------------------------------------------------------------
# Coordinator-crash chaos (degradation invariants, module docstring)
# ---------------------------------------------------------------------------
def _coord_checks(run: ChaosRun):
    coordinator = run.cluster.coordinator
    crash = run.plan.crashes[0]
    # 2. Recovery re-engaged after the window closed: heartbeats
    # resumed (every agent heard a post-crash epoch) and the
    # coordinator kept computing.
    recovery_epoch = int(crash.end / coordinator.epoch_len) + 1
    for agent in run.cluster.client_agents:
        if agent.last_update_epoch < recovery_epoch:
            yield (
                f"{agent.striped.name}: no coordinator heartbeat after "
                f"restart (last epoch {agent.last_update_epoch}, "
                f"expected >= {recovery_epoch})"
            )
        # Sanity: a fallback had a shifted split to restore.
        if agent.fallbacks and agent.splits_applied < 1:
            yield (
                f"{agent.striped.name}: fallback fired but no split "
                "was ever applied"
            )
    if coordinator.rebalances_computed < 2:
        yield (
            "coordinator never re-shifted after restart "
            f"(rebalances={coordinator.rebalances_computed})"
        )


def _coord_counters(run: ChaosRun) -> dict:
    coordinator = run.cluster.coordinator
    agents = run.cluster.client_agents
    return {
        "fallbacks": sum(agent.fallbacks for agent in agents),
        "rebalances": coordinator.rebalances_computed,
        "tokens_shifted": coordinator.tokens_shifted,
        "updates_received": sum(a.updates_received for a in agents),
        "epochs_skipped": coordinator.epochs_skipped_no_quorum,
        "puts_acked": sum(d.puts_acked for d in run.drivers),
        "rebinds": sum(
            engine.re_registrations for engine in run.cluster.engines()
        ),
    }


COORD_CRASH = ChaosScenario(
    name="coord-crash",
    summary="coordinator crash + control drop storm",
    # CI's chaos-smoke job runs the first seed; the full suite and
    # `python -m repro chaos coord-crash` run all of them.
    seeds=(11, 23, 37),
    periods=18,
    kind=MULTINODE,
    build=lambda seed: build_skewed_cluster(
        seed, coordinated=True,
        rebalance_periods=REBALANCE_PERIODS, fallback_after=FALLBACK_AFTER,
    ),
    plan=coord_chaos_plan,
    # Invariants 3-6.
    oracles=(
        "no-lost-acked-put",
        "ledger-conservation",
        "split-conservation",
        "reservations-met",
    ),
    checks=_coord_checks,
    counters=_coord_counters,
    # Invariant 1 (fallback engaged: only clients whose split had been
    # shifted off even have anything to restore — the skewed scenario
    # guarantees at least the entitled clients were), plus the ladder's
    # other rungs: quorum-less epochs skipped, engines rebound.
    exercised=("fallbacks", "epochs_skipped", "puts_acked", "rebinds"),
    columns=("fallbacks", "rebalances", "tokens_shifted", "epochs_skipped",
             "puts_acked", "rebinds"),
)


# ---------------------------------------------------------------------------
# Partition + fail-slow chaos (HA failover invariants)
# ---------------------------------------------------------------------------
# The failover harness runs on the HA build (leader + warm standby with
# quarantine armed) and checks the *fencing* story, not just graceful
# degradation:
#
# 1. **Bounded takeover** — an asymmetric partition cuts the leader's
#    heartbeats to the standby (leader -> standby only; the reverse
#    direction and every data link stay up), and the standby promotes
#    itself within ``takeover_after + 1`` epochs of the first cut
#    heartbeat.  Exactly once: the deposed leader must not flap back.
# 2. **Epoch fencing holds** — the deposed leader keeps computing for
#    one epoch (it hears no one telling it otherwise); a control-plane
#    lag rule makes its last SplitUpdate arrive *after* the new
#    leader's, so every client must fence it by term.  Zero stale
#    applications (``check_no_stale_split`` over the agents' applied
#    fencing keys) and at least one fenced update observed.
# 3. **Fail-slow quarantined and re-admitted** — after the partition
#    heals, one data node turns gray (every NIC/CPU cost x ``factor``);
#    the acting leader must quarantine it within ``quarantine_after``
#    epochs of bad scores, and un-quarantine it after the slowdown
#    lifts.  Both transitions audited in the ledger
#    (``check_quarantine_audit``).
# 4. **Conservation + durability throughout** — token and split
#    conservation, no lost acked PUT, reservations met in the final
#    fault-free period (same oracles as the coordinator-crash harness).

# Fraction of a period the deposed leader's control sends lag during the
# partition window.  Anything > COMPUTE_MARGIN - STANDBY_MARGIN (an
# eighth of a period) guarantees the old leader's takeover-epoch update
# arrives after the new leader's, making the fencing path observable on
# every seed; 0.21 also clears transit-time noise with margin.
DEPOSED_LAG_FRACTION = 0.21

# The gray node's fail-slow multiplier and how many epochs it stays
# slow.  Factor 3 pushes its health scores (latency, capacity and
# completion ratio all degrade ~3x against the healthy peer) well under
# the 0.55 quarantine threshold; 2 epochs exactly cover the
# ``quarantine_after`` streak, so the throttle lands as the slowdown
# lifts and the harness measures pure backlog drain.
FAILSLOW_FACTOR = 3.0
FAILSLOW_EPOCHS = 2.0

# Healthy-streak epochs before the acting leader re-admits the
# quarantined node (the harness's ``recover_after``).  At factor 3 the
# standing queue booked during the slow window takes ~4 epochs to drain
# through the //QUARANTINE_THROTTLE_DIV throttle; a 4-epoch streak
# means re-admission happens with the backlog essentially gone, so the
# node does not flap straight back into quarantine.
RECOVER_EPOCHS = 4


def partition_chaos_plan(seed: int, cluster, periods: int) -> FaultPlan:
    """A deterministic partition + fail-slow schedule.

    Timeline (in epochs): the leader->standby link is cut somewhere in
    the third epoch and stays cut for ``TAKEOVER_AFTER + 2`` epochs —
    long enough that the lease lapses and the takeover, step-down and
    fencing all happen *inside* the window (the asymmetric case).  A
    full-rate control-lag rule on the deposed leader's sends spans the
    same window so its dying SplitUpdate loses the race to the new
    leader's.  After the heal, ``server2`` turns gray for
    ``FAILSLOW_EPOCHS`` epochs, then recovers; the tail leaves room for
    the backlog drain, the ``RECOVER_EPOCHS`` re-admission streak and
    the settle periods.
    """
    # Worst-case epochs: 2.5 (latest cut start) + TAKEOVER_AFTER + 2
    # (partition) + 1.5 (latest fail-slow gap) + FAILSLOW_EPOCHS + 1
    # (detection lag) + RECOVER_EPOCHS + 1 (margin).
    worst_epochs = (8.0 + TAKEOVER_AFTER + FAILSLOW_EPOCHS
                    + RECOVER_EPOCHS)
    min_periods = (int(math.ceil(worst_epochs * REBALANCE_PERIODS))
                   + SETTLE_PERIODS)
    if periods < min_periods:
        raise ConfigError(
            f"partition chaos needs >= {min_periods} periods "
            f"(got {periods}): partition, takeover, heal, fail-slow, "
            f"re-admission and a {SETTLE_PERIODS}-period settle tail "
            "must all fit"
        )
    rng = make_rng(seed, "partition-chaos-plan")
    config = cluster.config
    T = config.period
    epoch = REBALANCE_PERIODS * T

    part_start = epoch * (2.0 + 0.5 * rng.random())
    part_end = part_start + (TAKEOVER_AFTER + 2.0) * epoch
    partitions = (PartitionRule(
        src=COORD_HOST_NAME, dst=STANDBY_HOST_NAME,
        start=part_start, end=part_end,
        label="leader-standby-cut",
    ),)

    delays = (DelayRule(
        rate=1.0, delay=DEPOSED_LAG_FRACTION * T,
        where=OpFilter(src=COORD_HOST_NAME, control_only=True,
                       start=part_start, end=part_end),
        label="deposed-leader-lag",
    ),)

    slow_start = part_end + epoch * (1.0 + 0.5 * rng.random())
    slowdowns = (SlowdownRule(
        host="server2",
        start=slow_start, end=slow_start + FAILSLOW_EPOCHS * epoch,
        factor=FAILSLOW_FACTOR,
    ),)

    return FaultPlan(
        delays=delays,
        partitions=partitions,
        slowdowns=slowdowns,
        drop_fail_after=config.check_interval,
    )


def build_ha_cluster(seed: int):
    """The HA build: leader + warm standby, quarantine armed."""
    return build_skewed_cluster(
        seed, coordinated=True,
        rebalance_periods=REBALANCE_PERIODS, fallback_after=FALLBACK_AFTER,
        standby=True, takeover_after=TAKEOVER_AFTER,
        quarantine=True, quarantine_recover_after=RECOVER_EPOCHS,
    )


def takeover_bound(cluster, plan: FaultPlan) -> int:
    """The epoch by which the standby must have promoted itself.

    The last heartbeat through the cut link belongs to the last epoch
    whose compute tick preceded the cut; the lease then lapses
    ``TAKEOVER_AFTER + 1`` watch ticks later.  Deterministic given the
    plan.
    """
    T = cluster.config.period
    cut = plan.partitions[0]
    last_hb_epoch = int(
        (cut.start + COMPUTE_MARGIN * T) / (REBALANCE_PERIODS * T)
    )
    return last_hb_epoch + TAKEOVER_AFTER + 1


def takeover_checks(run: ChaosRun):
    """Bounded takeover, exactly once (shared with the policy flip)."""
    standby = run.cluster.standby
    T = run.cluster.config.period
    cut = run.plan.partitions[0]
    bound = takeover_bound(run.cluster, run.plan)
    if standby.takeovers != 1:
        yield (
            f"expected exactly one takeover, got {standby.takeovers} "
            f"(partition {cut.start / T:.1f}..{cut.end / T:.1f} periods)"
        )
    elif standby.takeover_epoch > bound:
        yield (
            f"takeover unbounded: standby promoted at epoch "
            f"{standby.takeover_epoch}, bound {bound} (last heartbeat "
            f"epoch + takeover_after {TAKEOVER_AFTER} + 1)"
        )


def _partition_checks(run: ChaosRun):
    leader = run.cluster.coordinator
    standby = run.cluster.standby
    # 1. Bounded takeover, exactly once, and the old leader stood down.
    yield from takeover_checks(run)
    if leader.stepdowns < 1:
        yield (
            "deposed leader never stepped down despite the standby's "
            f"term {standby.term} heartbeats on the live reverse link"
        )
    if leader.takeovers:
        yield (
            f"deposed leader reclaimed leadership {leader.takeovers}x "
            "(flapping) — the standby's lease should have held"
        )
    # 3. Fail-slow quarantine on the acting (post-takeover) leader:
    # entered during the slowdown (``exercised``), audited, and
    # re-admitted after it.
    if standby.unquarantines < standby.quarantines:
        yield (
            f"quarantined node never re-admitted (quarantines="
            f"{standby.quarantines}, unquarantines="
            f"{standby.unquarantines})"
        )
    if standby.quarantined:
        yield (
            f"nodes still quarantined at run end: "
            f"{sorted(standby.quarantined)}"
        )


def _partition_counters(run: ChaosRun) -> dict:
    leader = run.cluster.coordinator
    standby = run.cluster.standby
    agents = run.cluster.client_agents
    injector = run.cluster.fault_injector
    return {
        "takeovers": standby.takeovers,
        "takeover_epoch": standby.takeover_epoch,
        "stepdowns": leader.stepdowns,
        "fenced_updates": sum(agent.updates_fenced for agent in agents),
        "stale_rejected": sum(a.updates_rejected_stale for a in agents),
        "quarantines": standby.quarantines,
        "unquarantines": standby.unquarantines,
        "fallbacks": sum(agent.fallbacks for agent in agents),
        "rebalances": (leader.rebalances_computed
                       + standby.rebalances_computed),
        "tokens_shifted": leader.tokens_shifted + standby.tokens_shifted,
        "updates_received": sum(a.updates_received for a in agents),
        "puts_acked": sum(d.puts_acked for d in run.drivers),
        "partitions_cut": injector.partitions_cut,
        "slowdowns_applied": injector.slowdowns_applied,
    }


PARTITION = ChaosScenario(
    name="partition",
    summary="asymmetric partition + failover + fail-slow",
    seeds=(11, 23, 37),
    periods=36,
    kind=MULTINODE,
    build=build_ha_cluster,
    plan=partition_chaos_plan,
    # Invariants 2 (zero stale applications) and 4.
    oracles=(
        "no-stale-split",
        "no-lost-acked-put",
        "ledger-conservation",
        "split-conservation",
        "quarantine-audit",
        "reservations-met",
    ),
    checks=_partition_checks,
    counters=_partition_counters,
    # The race the lag rule engineers was actually observed (>= 1
    # deposed-leader update fenced by term), the gray node was
    # quarantined during its slowdown, and both fault families fired.
    exercised=("fenced_updates", "quarantines", "partitions_cut",
               "slowdowns_applied", "puts_acked"),
    columns=("takeover_epoch", "stepdowns", "fenced_updates",
             "stale_rejected", "quarantines", "unquarantines",
             "tokens_shifted", "puts_acked"),
)
