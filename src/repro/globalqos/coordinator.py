"""The global QoS coordinator (control-node process).

A :class:`GlobalCoordinator` runs on its own control host attached to
the cluster fabric.  Each *rebalance epoch* — a small multiple of the
QoS period — client agents report per-node demand and node agents
report admission headroom over the ordinary two-sided SEND path; the
coordinator water-fills demand against headroom
(:func:`~repro.globalqos.waterfill.waterfill_splits`), conserving each
client's aggregate reservation exactly, and pushes the new splits back
as :class:`~repro.globalqos.protocol.SplitUpdate` messages.

The coordinator is deliberately *soft state*: it can crash (or have
its reports dropped by the fault injector) at any point and the data
plane keeps running on the last applied split — and, after
``fallback_after`` silent epochs, on the static even split the cluster
was built with.  Restarting is just re-attaching: one epoch of reports
rebuilds its entire view.

Every computed shift is recorded in the token ledger as a
``rebalance`` event, so conservation — per-node splits summing to the
client's aggregate, per epoch — is auditable offline via
:meth:`~repro.telemetry.ledger.TokenLedger.check_split_conservation`.

High availability (:func:`attach_standby`): a second, warm-standby
coordinator receives every report (soft state stays current for free)
and watches a per-epoch :class:`~repro.globalqos.protocol.LeaderHeartbeat`
lease from the leader.  ``takeover_after`` epochs of heartbeat silence
and the standby promotes itself with a higher *term* and computes from
the reports it already holds — no checkpoint transfer, deterministic
timing.  Every ``SplitUpdate`` carries the monotonic ``(term, epoch)``
fencing token, so a deposed leader behind an *asymmetric* partition
(it can still transmit; it just hears nothing) cannot move a split:
agents reject its lower term, and it steps down as soon as the new
term echoes back through any report or heartbeat.

Fail-slow defense: with quarantine enabled the acting leader scores
each node's health every epoch (:class:`~repro.telemetry.health.
HealthTracker` over NodeReport arrival lag, capacity estimate, and
completion ratio) and *deranks* persistently unhealthy nodes in the
water-filling headroom, steering reservations toward healthy peers;
recovery is symmetric and both transitions are ledger events audited
by :meth:`~repro.telemetry.ledger.TokenLedger.check_quarantine_audit`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.common.errors import ConfigError, QPError
from repro.globalqos.agents import (
    COMPUTE_MARGIN,
    QUARANTINE_THROTTLE_DIV,
    REPORT_MARGIN,
    ClientAgent,
    NodeAgent,
    _control_wr,
)
from repro.globalqos.protocol import (
    DemandReport,
    LeaderHeartbeat,
    NodeReport,
    SplitUpdate,
)
from repro.globalqos.waterfill import waterfill_splits
from repro.rdma.cpu import CPUProfile
from repro.rdma.dispatch import TypeDispatcher
from repro.rdma.node import Host
from repro.telemetry.health import HealthTracker
from repro.telemetry.records import record

COORD_HOST_NAME = "coord"
STANDBY_HOST_NAME = "coord2"

# The standby checks the heartbeat lease a little after the leader's
# compute tick (COMPUTE_MARGIN before each epoch boundary), so a
# healthy leader's heartbeat for epoch N always lands before watch(N).
STANDBY_MARGIN = COMPUTE_MARGIN / 2


class GlobalCoordinator:
    """Demand-aware cross-node reservation rebalancing."""

    def __init__(self, cluster, epoch_len: float,
                 min_shift_fraction: float = 0.05,
                 host_name: str = COORD_HOST_NAME,
                 role: str = "leader",
                 takeover_after: int = 2,
                 quarantine: bool = False,
                 quarantine_threshold: float = 0.55,
                 quarantine_after: int = 2,
                 recover_after: int = 2,
                 quarantine_derank: float = 0.25,
                 tenant_of: Optional[Mapping[int, str]] = None):
        if role not in ("leader", "standby"):
            raise ConfigError(f"unknown coordinator role {role!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.epoch_len = epoch_len
        self.min_shift_fraction = min_shift_fraction
        self.num_nodes = len(cluster.nodes)
        self.host = cluster.fabric.add_host(Host(
            cluster.sim, host_name,
            cluster.nodes[0].host.nic.profile, CPUProfile(),
        ))
        self.dispatcher = TypeDispatcher()
        self.host.set_rpc_handler(self.dispatcher)
        self.dispatcher.register(DemandReport, self._on_demand)
        self.dispatcher.register(NodeReport, self._on_node_report)
        self.dispatcher.register(LeaderHeartbeat, self._on_heartbeat)
        # Leadership state.  ``term`` is the leadership generation this
        # coordinator serves (or last served); it only ever increases,
        # and a takeover claims max(seen)+1 so the fencing keys
        # ``(term, epoch)`` on SplitUpdates are globally monotonic.
        self.role = role
        self.term = 1
        self.takeover_after = takeover_after
        self.peer_qp = None
        self.ha_enabled = False
        self.max_term_seen = 1
        self._last_peer_hb_epoch = 0
        self._last_peer_hb_term = 0
        self._next_epoch = 1
        self.takeovers = 0
        self.stepdowns = 0
        self.takeover_epoch = 0
        self.heartbeats_sent = 0
        self.heartbeat_sends_failed = 0
        self.heartbeats_received = 0
        # Fail-slow quarantine state (None = detection disabled).
        self.health = HealthTracker() if quarantine else None
        self.quarantine_threshold = quarantine_threshold
        self.quarantine_after = quarantine_after
        self.recover_after = recover_after
        self.quarantine_derank = quarantine_derank
        self.quarantined: set = set()
        self._unhealthy_streak: Dict[int, int] = {}
        self._healthy_streak: Dict[int, int] = {}
        self.quarantines = 0
        self.unquarantines = 0
        # Tenant-granularity mode (see docs/SCALE.md): with a client-id
        # -> tenant-name map the per-epoch water-fill runs over tenant
        # aggregates and a transportation fill hands placements back to
        # members — O(tenants) solver work instead of O(clients).  None
        # keeps the flat per-client path byte-identical.
        self.tenant_of = dict(tenant_of) if tenant_of else None
        self.tenant_epochs = 0
        # Coordinator-side QP toward each client host, filled in by
        # attach_coordinator as it wires the connections.
        self.client_qps: Dict[int, object] = {}
        # Soft state, rebuilt from one epoch of reports after a crash.
        self._demand: Dict[int, DemandReport] = {}
        self._nodes: Dict[int, NodeReport] = {}
        # Seeded with the build-time static split (cluster-wide config
        # knowledge), then kept current from DemandReports so the view
        # self-corrects after clamps or lost updates.
        self._splits: Dict[int, List[int]] = {
            c.index: list(c.splits) for c in cluster.clients
        }
        self._aggregates: Dict[int, int] = {
            c.index: c.aggregate_reservation for c in cluster.clients
        }
        # Set by attach_policy_service: when present, _compute pushes
        # the live policy revision to every client each epoch.
        self.policy_service = None
        self.epochs_run = 0
        self.epochs_skipped_no_quorum = 0
        self.reports_received = 0
        self.node_reports_received = 0
        self.rebalances_computed = 0
        self.rebalances_skipped_hysteresis = 0
        self.tokens_shifted = 0
        self.updates_sent = 0
        self.update_sends_failed = 0

    # ------------------------------------------------------------------
    # Inbound reports
    # ------------------------------------------------------------------
    def _on_demand(self, msg: DemandReport, _reply_qp) -> None:
        self.reports_received += 1
        self._demand[msg.client_id] = msg
        self._splits[msg.client_id] = list(msg.splits)
        self._aggregates[msg.client_id] = msg.aggregate
        self._observe_term(msg.term)

    def _on_node_report(self, msg: NodeReport, _reply_qp) -> None:
        self.node_reports_received += 1
        self._nodes[msg.node_index] = msg
        if self.health is not None:
            # Report arrival lag against its scheduled send time: the
            # fail-slow signal a gray NIC cannot hide, because its own
            # control sends serialize through the slowed pipeline.
            expected = (msg.epoch * self.epoch_len
                        - REPORT_MARGIN * self.config.period)
            self.health.observe(
                msg.node_index, msg.epoch,
                latency=max(self.sim.now - expected, 0.0),
                capacity=float(msg.capacity),
            )
        self._observe_term(msg.term)

    # ------------------------------------------------------------------
    # Leadership: heartbeats, lease watch, takeover, step-down
    # ------------------------------------------------------------------
    def _observe_term(self, term: int) -> None:
        """Track the highest term seen; a deposed leader steps down."""
        if term > self.max_term_seen:
            self.max_term_seen = term
        if term > self.term and self.role == "leader":
            self._step_down(term)

    def _on_heartbeat(self, msg: LeaderHeartbeat, _reply_qp) -> None:
        self.heartbeats_received += 1
        if msg.term < self.term:
            return  # a deposed leader's stale lease — ignore
        if msg.epoch > self._last_peer_hb_epoch:
            self._last_peer_hb_epoch = msg.epoch
        self._last_peer_hb_term = msg.term
        self._observe_term(msg.term)

    def _send_heartbeat(self, epoch: int) -> None:
        if self.peer_qp is None:
            return
        message = LeaderHeartbeat(term=self.term, epoch=epoch)
        try:
            self.peer_qp.post_send(_control_wr(message, self.num_nodes))
            self.heartbeats_sent += 1
        except QPError:
            self.heartbeat_sends_failed += 1

    def _schedule_watch(self, epoch: int) -> None:
        at = epoch * self.epoch_len - STANDBY_MARGIN * self.config.period
        self.sim.schedule_at(at, self._watch, epoch)

    def _watch(self, epoch: int) -> None:
        if self.role != "standby":
            return
        if epoch - max(self._last_peer_hb_epoch, 0) > self.takeover_after:
            self._take_over(epoch)
            return
        self._schedule_watch(epoch + 1)

    def _take_over(self, epoch: int) -> None:
        """Lease expired: promote and compute from the warm soft state.

        The reports for this epoch already arrived (REPORT_MARGIN >
        STANDBY_MARGIN), so the first computation happens in the very
        epoch the lease lapses — takeover is bounded by
        ``takeover_after`` epochs of silence plus this one.
        """
        self.role = "leader"
        self.term = max(self.term, self.max_term_seen,
                        self._last_peer_hb_term) + 1
        self.takeovers += 1
        self.takeover_epoch = epoch
        record(self.sim, "globalqos", "takeover", epoch=epoch,
               term=self.term)
        self._compute(epoch)

    def _step_down(self, term: int) -> None:
        """A higher term is live: stop leading, return to watching.

        Crediting the lease as freshly renewed (``_next_epoch``) gives
        the new leader a full ``takeover_after`` epochs of grace before
        this coordinator would reclaim leadership.
        """
        self.role = "standby"
        self.stepdowns += 1
        record(self.sim, "globalqos", "stepdown", term=term,
               was_term=self.term)
        if self._next_epoch > self._last_peer_hb_epoch:
            self._last_peer_hb_epoch = self._next_epoch
        self._schedule_watch(self._next_epoch + 1)

    # ------------------------------------------------------------------
    # The per-epoch compute tick
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.role == "leader":
            self._schedule_compute(1)
        else:
            self._schedule_watch(1)

    def _schedule_compute(self, epoch: int) -> None:
        self._next_epoch = epoch
        at = epoch * self.epoch_len - COMPUTE_MARGIN * self.config.period
        self.sim.schedule_at(at, self._compute, epoch)

    def _compute(self, epoch: int) -> None:
        if self.role != "leader":
            return  # deposed between scheduling and firing
        self.epochs_run += 1
        self._send_heartbeat(epoch)
        if self.policy_service is not None:
            # Before the quorum check, deliberately: a deposed leader
            # partitioned away from every report still transmits its
            # stale-term policy pushes, which is exactly the race the
            # client-side (term, epoch, version) fencing must win.
            self.policy_service.push_from(self, epoch)
        participants = sorted(
            cid for cid, r in self._demand.items() if r.epoch == epoch
        )
        fresh_nodes = {
            n for n, r in self._nodes.items() if r.epoch == epoch
        }
        if not participants or len(fresh_nodes) < self.num_nodes:
            # Lost or late reports: freeze the last splits this epoch.
            # No heartbeats go out either — silence is what arms the
            # client-side fallback timers when the loss persists.
            self.epochs_skipped_no_quorum += 1
            self._schedule_compute(epoch + 1)
            return

        self._assess_health(epoch, participants)
        current = {cid: self._splits[cid] for cid in participants}
        aggregates = {cid: self._aggregates[cid] for cid in participants}
        demands = {
            cid: list(self._demand[cid].demand) for cid in participants
        }
        node_caps, max_split = self._headroom(participants)
        if self.tenant_of is not None:
            from repro.tenancy.rebalance import tenant_splits

            self.tenant_epochs += 1
            targets = tenant_splits(
                aggregates, demands, node_caps, current, max_split,
                self.tenant_of,
            )
        else:
            targets = waterfill_splits(
                aggregates, demands, node_caps, current, max_split
            )
        threshold = {
            cid: max(1, int(self.min_shift_fraction * aggregates[cid]))
            for cid in participants
        }
        ledger = getattr(
            getattr(self.sim, "telemetry", None), "ledger", None
        )
        for cid in participants:
            old, new = current[cid], targets[cid]
            delta = max(abs(a - b) for a, b in zip(old, new))
            if 0 < delta <= threshold[cid]:
                # Hysteresis: churn this small is not worth a rebind.
                self.rebalances_skipped_hysteresis += 1
                new = old
            elif delta > 0:
                self.rebalances_computed += 1
                self.tokens_shifted += (
                    sum(abs(a - b) for a, b in zip(old, new)) // 2
                )
                if ledger is not None:
                    ledger.rebalance(
                        epoch, cid, aggregates[cid], old, new,
                        self.sim.now, source=COORD_HOST_NAME,
                    )
                self._splits[cid] = list(new)
            # Heartbeat: every participant hears from us every epoch,
            # shifted or not, to hold off its fallback timer.
            self._send_update(cid, epoch, new)
        self._schedule_compute(epoch + 1)

    # ------------------------------------------------------------------
    # Fail-slow detection + quarantine policy
    # ------------------------------------------------------------------
    def _assess_health(self, epoch: int, participants: List[int]) -> None:
        """Score every node, advance streaks, (un)quarantine on runs.

        A single bad epoch never quarantines (transients are normal
        under load shifts); ``quarantine_after`` consecutive unhealthy
        epochs do, and ``recover_after`` consecutive healthy ones
        reverse it.  At least one node always stays un-quarantined —
        deranking everything would just be a slower even split.
        """
        if self.health is None:
            return
        for n in range(self.num_nodes):
            # Completions against the node's current *duty* — per
            # client min(demand, split), with the split capped at the
            # quarantine throttle while the node is quarantined — not
            # raw demand.  Judging a quarantined node against load this
            # very policy steered away from it would keep it unhealthy
            # forever (a self-fulfilling quarantine); against its
            # reduced duty, a recovered node scores ~1 and re-admission
            # can happen.
            expected = 0
            for cid in participants:
                duty = self._splits[cid][n]
                if n in self.quarantined:
                    duty = max(1, duty // QUARANTINE_THROTTLE_DIV)
                expected += min(self._demand[cid].demand[n], duty)
            completed = sum(self._demand[cid].completed[n]
                            for cid in participants)
            self.health.observe(
                n, epoch,
                throughput=(completed / expected
                            if expected > 0 else None),
            )
        scores = self.health.scores(epoch)
        ledger = getattr(
            getattr(self.sim, "telemetry", None), "ledger", None
        )
        for n in range(self.num_nodes):
            score = scores.get(n, 1.0)
            if score < self.quarantine_threshold:
                self._unhealthy_streak[n] = (
                    self._unhealthy_streak.get(n, 0) + 1
                )
                self._healthy_streak[n] = 0
            else:
                self._healthy_streak[n] = self._healthy_streak.get(n, 0) + 1
                self._unhealthy_streak[n] = 0
            if (n not in self.quarantined
                    and self._unhealthy_streak[n] >= self.quarantine_after
                    and len(self.quarantined) < self.num_nodes - 1):
                self.quarantined.add(n)
                self.quarantines += 1
                if ledger is not None:
                    ledger.quarantine(epoch, n, score, self.sim.now,
                                      source=self.host.name)
            elif (n in self.quarantined
                    and self._healthy_streak[n] >= self.recover_after):
                self.quarantined.discard(n)
                self.unquarantines += 1
                if ledger is not None:
                    ledger.unquarantine(epoch, n, score, self.sim.now,
                                        source=self.host.name)

    def _headroom(self, participants: List[int]):
        """Per-node capacity available to the reporting clients.

        Non-participants (clients whose report was lost this epoch)
        keep their current reservations untouched, so their share is
        subtracted from each node's ceiling before the water-filling
        runs.  The ceiling itself is ``max(capacity, reserved)``: what
        is already admitted on a node is placeable there by definition
        (admission said so), so a dipping capacity estimate limits
        *additional* load only — otherwise one estimator sag below the
        reserved sum would freeze rebalancing cluster-wide.
        """
        node_caps = []
        max_split = []
        for n in range(self.num_nodes):
            report = self._nodes[n]
            part_reserved = sum(
                self._splits[cid][n] for cid in participants
            )
            others = max(0, report.reserved - part_reserved)
            ceiling = max(report.capacity, report.reserved)
            cap = max(0, ceiling - others)
            if n in self.quarantined:
                # Derank, don't zero: the node still serves what it
                # must, but water-filling steers every shiftable token
                # toward healthy peers until the streak heals.
                cap = int(cap * self.quarantine_derank)
            node_caps.append(cap)
            max_split.append(report.local_capacity)
        return node_caps, max_split

    def _send_update(self, cid: int, epoch: int, splits) -> None:
        qp = self.client_qps.get(cid)
        if qp is None:
            return
        message = SplitUpdate(
            client_id=cid, epoch=epoch, splits=tuple(splits),
            term=self.term,
            quarantined=tuple(sorted(self.quarantined)),
        )
        try:
            qp.post_send(_control_wr(message, self.num_nodes))
            self.updates_sent += 1
        except QPError:
            self.update_sends_failed += 1

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            ("globalqos_epochs_run", lambda: self.epochs_run),
            ("globalqos_epochs_skipped_no_quorum",
             lambda: self.epochs_skipped_no_quorum),
            ("globalqos_demand_reports_received",
             lambda: self.reports_received),
            ("globalqos_node_reports_received",
             lambda: self.node_reports_received),
            ("globalqos_rebalances_computed",
             lambda: self.rebalances_computed),
            ("globalqos_rebalances_skipped_hysteresis",
             lambda: self.rebalances_skipped_hysteresis),
            ("globalqos_tokens_shifted", lambda: self.tokens_shifted),
            ("globalqos_updates_sent", lambda: self.updates_sent),
            ("globalqos_update_sends_failed",
             lambda: self.update_sends_failed),
        ]
        # Gated so pre-HA single-coordinator runs keep their committed
        # metric-row digests byte-identical.
        if self.ha_enabled:
            items.extend([
                ("globalqos_term", lambda: self.term),
                ("globalqos_takeovers", lambda: self.takeovers),
                ("globalqos_stepdowns", lambda: self.stepdowns),
                ("globalqos_takeover_epoch", lambda: self.takeover_epoch),
                ("globalqos_heartbeats_sent",
                 lambda: self.heartbeats_sent),
                ("globalqos_heartbeats_received",
                 lambda: self.heartbeats_received),
            ])
        if self.health is not None:
            items.extend([
                ("globalqos_quarantines", lambda: self.quarantines),
                ("globalqos_unquarantines", lambda: self.unquarantines),
                ("globalqos_quarantined_nodes",
                 lambda: len(self.quarantined)),
            ])
        if self.tenant_of is not None:
            items.extend([
                ("globalqos_tenant_epochs", lambda: self.tenant_epochs),
                ("globalqos_tenants",
                 lambda: len(set(self.tenant_of.values()))),
            ])
        return items


def attach_coordinator(
    cluster,
    rebalance_periods: int = 2,
    fallback_after: int = 2,
    min_shift_fraction: float = 0.05,
    quarantine: bool = False,
    quarantine_threshold: float = 0.55,
    quarantine_after: int = 2,
    recover_after: int = 2,
    quarantine_derank: float = 0.25,
    tenant_of: Optional[Mapping[int, str]] = None,
) -> GlobalCoordinator:
    """Wire a global coordinator into a multi-node cluster.

    Adds the ``coord`` control host to the fabric, connects it to every
    client host, and starts the per-epoch report/compute/apply loop
    (``rebalance_periods`` QoS periods per epoch).  Call after
    :func:`~repro.cluster.multinode.build_multinode_cluster` and
    *before* ``cluster.inject_faults`` if a fault plan names the
    ``coord`` host, and before ``cluster.start()``.

    ``fallback_after`` is the client-side degradation knob: that many
    epochs without a coordinator heartbeat and a client restores its
    static even split on its own.

    ``tenant_of`` (client index -> tenant name, covering every client)
    switches the per-epoch solve to tenant granularity
    (:func:`~repro.tenancy.rebalance.tenant_splits`); omitted, the flat
    per-client water-fill runs exactly as before.
    """
    if rebalance_periods < 1:
        raise ConfigError(
            f"rebalance_periods must be >= 1, got {rebalance_periods}"
        )
    if fallback_after < 1:
        raise ConfigError(
            f"fallback_after must be >= 1, got {fallback_after}"
        )
    if not 0 <= min_shift_fraction < 1:
        raise ConfigError(
            f"min_shift_fraction must be in [0, 1), got {min_shift_fraction}"
        )
    if any(node.monitor is None for node in cluster.nodes):
        raise ConfigError(
            "global coordinator requires QoS-managed nodes (HAECHI mode)"
        )
    if cluster.coordinator is not None:
        raise ConfigError("coordinator already attached")
    if tenant_of is not None:
        missing = [c.index for c in cluster.clients
                   if c.index not in tenant_of]
        if missing:
            raise ConfigError(
                f"tenant_of misses client indices {missing}"
            )

    epoch_len = rebalance_periods * cluster.config.period
    coordinator = GlobalCoordinator(
        cluster, epoch_len,
        min_shift_fraction=min_shift_fraction,
        quarantine=quarantine,
        quarantine_threshold=quarantine_threshold,
        quarantine_after=quarantine_after,
        recover_after=recover_after,
        quarantine_derank=quarantine_derank,
        tenant_of=tenant_of,
    )

    for striped in cluster.clients:
        qp_coord_client, qp_client_coord = cluster.fabric.connect(
            coordinator.host, striped.host
        )
        coordinator.client_qps[striped.index] = qp_coord_client
        coord_dispatcher = striped.router.register_connection(
            qp_client_coord
        )
        agent = ClientAgent(
            striped, cluster.config, qp_client_coord, coord_dispatcher,
            epoch_len, fallback_after,
        )
        cluster.client_agents.append(agent)
        agent.start()

    for node in cluster.nodes:
        qp_node_coord, _qp_coord_node = cluster.fabric.connect(
            node.host, coordinator.host
        )
        agent = NodeAgent(
            node, qp_node_coord, epoch_len, coordinator.num_nodes
        )
        cluster.node_agents.append(agent)
        agent.start()

    coordinator.start()
    cluster.coordinator = coordinator
    return coordinator


def attach_standby(
    cluster,
    takeover_after: int = 2,
    fallback_after: int = 2,
) -> GlobalCoordinator:
    """Wire a warm-standby coordinator beside an attached leader.

    Adds the ``coord2`` host, subscribes it to every client and node
    report (the agents fan their per-epoch reports out to both
    coordinators, so the standby's soft state is always one epoch warm),
    and connects the leader <-> standby peer link that carries the
    per-epoch :class:`~repro.globalqos.protocol.LeaderHeartbeat` lease.
    After ``takeover_after`` epochs of heartbeat silence the standby
    promotes itself with a fenced higher term.  Quarantine settings
    mirror the leader's, so the fail-slow policy survives failover.

    Call after :func:`attach_coordinator` and before faults/start.
    """
    if cluster.coordinator is None:
        raise ConfigError("attach a leader coordinator first")
    if getattr(cluster, "standby", None) is not None:
        raise ConfigError("standby coordinator already attached")
    if takeover_after < 1:
        raise ConfigError(
            f"takeover_after must be >= 1, got {takeover_after}"
        )

    leader = cluster.coordinator
    standby = GlobalCoordinator(
        cluster, leader.epoch_len,
        min_shift_fraction=leader.min_shift_fraction,
        host_name=STANDBY_HOST_NAME, role="standby",
        takeover_after=takeover_after,
        quarantine=leader.health is not None,
        quarantine_threshold=leader.quarantine_threshold,
        quarantine_after=leader.quarantine_after,
        recover_after=leader.recover_after,
        quarantine_derank=leader.quarantine_derank,
        tenant_of=leader.tenant_of,
    )
    leader.ha_enabled = True
    standby.ha_enabled = True

    for striped in cluster.clients:
        qp_standby_client, qp_client_standby = cluster.fabric.connect(
            standby.host, striped.host
        )
        standby.client_qps[striped.index] = qp_standby_client
        dispatcher = striped.router.register_connection(qp_client_standby)
        agent = next(
            a for a in cluster.client_agents if a.striped is striped
        )
        agent.add_coordinator(qp_client_standby, dispatcher)

    for node, agent in zip(cluster.nodes, cluster.node_agents):
        qp_node_standby, _qp_standby_node = cluster.fabric.connect(
            node.host, standby.host
        )
        agent.add_coordinator(qp_node_standby)

    qp_leader_standby, qp_standby_leader = cluster.fabric.connect(
        leader.host, standby.host
    )
    leader.peer_qp = qp_leader_standby
    standby.peer_qp = qp_standby_leader

    standby.start()
    cluster.standby = standby
    return standby
