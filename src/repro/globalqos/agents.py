"""The distributed halves of the coordinator protocol.

``NodeAgent`` lives beside each data node's monitor: it pushes per-epoch
headroom reports to the coordinator and serves the mid-period
:class:`~repro.globalqos.protocol.SplitApply` resize requests through
:meth:`~repro.core.monitor.QoSMonitor.update_reservation`.

``ClientAgent`` lives beside each striped client: it reports per-node
demand each epoch, applies the coordinator's split updates through the
engines' ``rebind`` machinery (decreases first, increases one check
interval later, so a node never sees a transient aggregate
over-reservation), and owns the degradation policy — a silent
coordinator freezes the last split, and after ``fallback_after``
epochs without a heartbeat the agent reverts to the static even split
on its own.

Both agents expose ``metrics_items()`` so their counters flow into the
registry/robustness-summary exports like every other component's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import QoSError, QPError
from repro.common.types import OpType
from repro.core.protocol import CONTROL_MESSAGE_SIZE
from repro.globalqos.protocol import (
    SPLIT_ENTRY_SIZE,
    DemandReport,
    NodeReport,
    SplitApply,
    SplitGrant,
    SplitUpdate,
)
from repro.globalqos.waterfill import even_split, largest_remainder
from repro.policy.protocol import PolicyUpdate
from repro.rdma.verbs import WorkRequest

# Epoch-relative offsets, as fractions of one QoS period.  Reports go
# out late in an epoch's final period; the coordinator computes shortly
# after; applied splits land before the next period boundary, whose
# PeriodStart then carries the full new grant.
REPORT_MARGIN = 0.25
COMPUTE_MARGIN = 0.125

# When the acting leader quarantines a node as fail-slow, every client
# caps its per-period issue rate toward that node at split / DIV (via
# the engine's ``limit`` throttle).  Deranking the water-filling
# headroom alone cannot help a saturated cluster — there is nowhere to
# move the reservations — and a gray NIC served at full token rate
# builds a standing queue that outlives the fault by tens of periods.
# Shedding load is what lets the queue drain so the node can prove
# itself healthy again.  The coordinator judges a quarantined node's
# completion ratio against this reduced duty (same constant), so
# detection and actuation stay consistent.
QUARANTINE_THROTTLE_DIV = 8


def _control_wr(message, num_nodes: int) -> WorkRequest:
    return WorkRequest(
        opcode=OpType.SEND,
        payload=message,
        size=CONTROL_MESSAGE_SIZE + num_nodes * SPLIT_ENTRY_SIZE,
        is_response=True,
        control=True,
        signaled=False,  # no coordinator-protocol CQ has a reader
    )


class NodeAgent:
    """One data node's end of the coordinator protocol."""

    def __init__(self, node, coord_qp, epoch_len: float,
                 num_nodes: int):
        self.node = node
        self.monitor = node.monitor
        self.sim = node.host.sim
        self.coord_qp = coord_qp
        # All coordinators (leader + any standby) get every report, so a
        # standby's soft state is warm the epoch it takes over.
        self.coord_qps = [coord_qp]
        self.ha = False
        self.term_seen = 1
        self.epoch_len = epoch_len
        self.num_nodes = num_nodes
        self.reports_sent = 0
        self.report_sends_failed = 0
        self.applies_served = 0
        self.applies_rejected = 0
        node.data_node.dispatcher.register(SplitApply, self._on_apply)

    def add_coordinator(self, qp) -> None:
        """Also report to a standby coordinator (HA wiring)."""
        self.coord_qps.append(qp)
        self.ha = True

    def start(self) -> None:
        self._schedule_report(1)

    def _schedule_report(self, epoch: int) -> None:
        period = self.monitor.config.period
        at = epoch * self.epoch_len - REPORT_MARGIN * period
        self.sim.schedule_at(at, self._report, epoch)

    def _report(self, epoch: int) -> None:
        monitor = self.monitor
        admission = monitor.admission
        message = NodeReport(
            node_index=self.node.index,
            epoch=epoch,
            capacity=int(monitor.estimator.current),
            reserved=(admission.total_reserved if admission is not None
                      else monitor.total_reserved),
            local_capacity=(admission.local_capacity
                            if admission is not None else 0),
            term=self.term_seen,
        )
        # A fresh WR per destination: WorkRequest objects carry per-post
        # completion state and are not reusable across QPs.
        for qp in self.coord_qps:
            try:
                qp.post_send(_control_wr(message, self.num_nodes))
                self.reports_sent += 1
            except QPError:
                self.report_sends_failed += 1
        self._schedule_report(epoch + 1)

    def _on_apply(self, msg: SplitApply, reply_qp) -> None:
        if msg.term > self.term_seen:
            self.term_seen = msg.term
        try:
            grant = self.monitor.update_reservation(
                msg.client_id, msg.reservation
            )
        except QoSError:
            self.applies_rejected += 1
            response = SplitGrant(
                client_id=msg.client_id, node_index=self.node.index,
                epoch=msg.epoch, ok=False, reservation=0, tokens_now=0,
            )
        else:
            self.applies_served += 1
            response = SplitGrant(
                client_id=msg.client_id,
                node_index=self.node.index,
                epoch=msg.epoch,
                ok=True,
                reservation=grant["reservation"],
                tokens_now=grant["tokens_now"],
                period_id=grant["period_id"],
                period_end_time=grant["period_end_time"],
                generation=grant["generation"],
            )
        try:
            reply_qp.post_send(_control_wr(response, self.num_nodes))
        except QPError:
            self.report_sends_failed += 1

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            ("globalqos_node_reports_sent", lambda: self.reports_sent),
            ("globalqos_node_report_sends_failed",
             lambda: self.report_sends_failed),
            ("globalqos_node_applies_served", lambda: self.applies_served),
            ("globalqos_node_applies_rejected",
             lambda: self.applies_rejected),
            ("globalqos_node_rebalances",
             lambda: len(self.monitor.rebalances)),
            ("globalqos_node_rebalance_clamped",
             lambda: self.monitor.rebalance_clamped),
        ]
        # Gated on HA wiring so single-coordinator runs keep their
        # committed metric-row digests byte-identical.
        if self.ha:
            items.append(
                ("globalqos_node_term_seen", lambda: self.term_seen)
            )
        return items


class ClientAgent:
    """One striped client's end of the coordinator protocol."""

    def __init__(self, striped, config, coord_qp, coord_dispatcher,
                 epoch_len: float, fallback_after: int):
        self.striped = striped
        self.config = config
        self.sim = striped.host.sim
        self.coord_qp = coord_qp
        self.coord_qps = [coord_qp]
        # Dispatchers toward every coordinator, retained so a policy
        # service enabled after construction can subscribe to
        # PolicyUpdate on each of them (enable_policy).
        self.coord_dispatchers = [coord_dispatcher]
        self.ha = False
        self.epoch_len = epoch_len
        self.fallback_after = fallback_after
        num_nodes = len(striped.engines)
        self.num_nodes = num_nodes
        self._last_submitted = [0] * num_nodes
        self._last_completed = [0] * num_nodes
        self._last_report_time = 0.0
        self._epoch = 0
        # Fencing state: the (term, epoch) of the last applied update.
        # An update is applied only when its key is lexicographically
        # newer — duplicates, stale epochs, and deposed-leader terms are
        # all rejected at this one comparison.
        self.last_update_epoch = 0
        self.last_update_term = 0
        self.term_seen = 1
        # The applied keys in arrival order, for the no-stale-split
        # oracle (monotonicity is the invariant fencing guarantees).
        self.update_keys_applied: List[Tuple[int, int]] = []
        # node -> epoch of the SplitApply still awaiting its grant.
        self._pending: Dict[int, int] = {}
        self.reports_sent = 0
        self.report_sends_failed = 0
        self.updates_received = 0
        self.updates_rejected_stale = 0
        self.updates_fenced = 0
        # Nodes currently issue-throttled on the leader's quarantine
        # verdict (engine.limit = split / QUARANTINE_THROTTLE_DIV).
        self._throttled_nodes: set = set()
        self.quarantine_throttles = 0
        self.quarantine_unthrottles = 0
        self.splits_applied = 0
        self.applies_clamped = 0
        self.applies_failed = 0
        self.applies_timed_out = 0
        self.fallbacks = 0
        # Policy distribution state (enable_policy).  Fencing extends
        # the split protocol's (term, epoch) with the document revision:
        # an update applies only when its term is not behind, its
        # (term, epoch) key is strictly newer, AND its revision is
        # strictly above the one in force.
        self.policy_service = None
        self.policy_version_applied = 0
        self.last_policy_term = 0
        self.last_policy_epoch = 0
        self.policy_keys_applied: List[Tuple[int, int, int]] = []
        self.policy_updates_received = 0
        self.policy_applies = 0
        self.policy_fenced = 0
        self.policy_stale_rejected = 0
        # Per-node limits the active policy imposes; what quarantine
        # unthrottling restores instead of the unlimited default.
        self._policy_limits: Dict[int, int] = {}
        coord_dispatcher.register(SplitUpdate, self._on_update)
        for dispatcher in striped.dispatchers:
            dispatcher.register(SplitGrant, self._on_grant)

    def add_coordinator(self, qp, dispatcher) -> None:
        """Also report to (and accept updates from) a standby (HA)."""
        self.coord_qps.append(qp)
        self.coord_dispatchers.append(dispatcher)
        self.ha = True
        dispatcher.register(SplitUpdate, self._on_update)
        if self.policy_service is not None:
            dispatcher.register(PolicyUpdate, self._on_policy)

    def enable_policy(self, service) -> None:
        """Accept PolicyUpdate pushes from every known coordinator."""
        if self.policy_service is not None:
            return
        self.policy_service = service
        for dispatcher in self.coord_dispatchers:
            dispatcher.register(PolicyUpdate, self._on_policy)

    # ------------------------------------------------------------------
    # Per-epoch reporting + the fallback timer
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._schedule_report(1)

    def _schedule_report(self, epoch: int) -> None:
        at = epoch * self.epoch_len - REPORT_MARGIN * self.config.period
        self.sim.schedule_at(at, self._report, epoch)

    def _report(self, epoch: int) -> None:
        self._epoch = epoch
        striped = self.striped
        elapsed = self.sim.now - self._last_report_time
        period = self.config.period
        demand: List[int] = []
        completed: List[int] = []
        for n in range(self.num_nodes):
            sub = striped.node_submitted[n]
            done = striped.engines[n].total_completed
            demand.append(
                int(round((sub - self._last_submitted[n]) * period / elapsed))
                if elapsed > 0 else 0
            )
            completed.append(
                int(round((done - self._last_completed[n]) * period / elapsed))
                if elapsed > 0 else 0
            )
            self._last_submitted[n] = sub
            self._last_completed[n] = done
        self._last_report_time = self.sim.now
        message = DemandReport(
            client_id=striped.index,
            epoch=epoch,
            aggregate=striped.aggregate_reservation,
            demand=tuple(demand),
            completed=tuple(completed),
            splits=tuple(striped.splits),
            term=self.term_seen,
        )
        # A fresh WR per destination: WorkRequest objects carry per-post
        # completion state and are not reusable across QPs.
        for qp in self.coord_qps:
            try:
                qp.post_send(_control_wr(message, self.num_nodes))
                self.reports_sent += 1
            except QPError:
                self.report_sends_failed += 1
        self._maybe_fall_back(epoch)
        self._schedule_report(epoch + 1)

    def _maybe_fall_back(self, epoch: int) -> None:
        """Degraded mode: no heartbeat for ``fallback_after`` epochs.

        Until then the last applied split stays frozen; past it the
        agent restores the static even split locally — the safe
        configuration every node admitted at build time — so a dead
        coordinator degrades the cluster to exactly its
        pre-coordinator behaviour.
        """
        silent = epoch - max(self.last_update_epoch, 1)
        if silent < self.fallback_after:
            return
        target = even_split(self.striped.aggregate_reservation,
                            self.num_nodes)
        if list(self.striped.splits) == target:
            return
        self.fallbacks += 1
        self._apply_splits(target, epoch)

    # ------------------------------------------------------------------
    # Split application (rebind machinery)
    # ------------------------------------------------------------------
    def _on_update(self, msg: SplitUpdate, _reply_qp) -> None:
        self.updates_received += 1
        key = (msg.term, msg.epoch)
        if key <= (self.last_update_term, self.last_update_epoch):
            # Not newer than what is already in force: a duplicate or
            # stale epoch (same term), or a deposed leader still
            # transmitting from behind an asymmetric partition (lower
            # term) — fenced, never applied.
            if msg.term < self.last_update_term:
                self.updates_fenced += 1
            else:
                self.updates_rejected_stale += 1
            return
        self.last_update_term, self.last_update_epoch = key
        if msg.term > self.term_seen:
            self.term_seen = msg.term
        self.update_keys_applied.append(key)
        self._apply_splits(list(msg.splits), msg.epoch)
        self._apply_quarantine(msg.quarantined)

    def _apply_quarantine(self, quarantined) -> None:
        """Throttle issue toward quarantined nodes; lift on recovery.

        The cap is recomputed from the current split on every update so
        it tracks rebalances while the quarantine lasts.  Lifting
        restores the limit the active policy imposes — or the engine's
        unlimited default when no policy holds one (multi-node engines
        are built without a limit) — never a lower value than the
        fault-free configuration had.
        """
        q = set(quarantined)
        engines = self.striped.engines
        for n in range(self.num_nodes):
            if n in q:
                engines[n].limit = max(
                    1, self.striped.splits[n] // QUARANTINE_THROTTLE_DIV
                )
                if n not in self._throttled_nodes:
                    self._throttled_nodes.add(n)
                    self.quarantine_throttles += 1
            elif n in self._throttled_nodes:
                engines[n].limit = self._policy_limits.get(n)
                self._throttled_nodes.discard(n)
                self.quarantine_unthrottles += 1

    # ------------------------------------------------------------------
    # Policy hot-swap (PolicyService pushes)
    # ------------------------------------------------------------------
    def _on_policy(self, msg: PolicyUpdate, _reply_qp) -> None:
        """Apply a pushed policy revision under three-way fencing.

        A deposed leader behind an asymmetric partition keeps pushing
        the old revision with its old term — fenced.  The acting
        leader re-pushes the live revision every epoch so a lost
        control message self-heals; the duplicates land in
        ``policy_stale_rejected``.  What survives applies exactly
        once, through the same decrease-before-increase machinery as
        a split rebalance, so a reservation raise never transiently
        over-commits a node.
        """
        self.policy_updates_received += 1
        if msg.term < self.last_policy_term:
            self.policy_fenced += 1
            return
        key = (msg.term, msg.epoch)
        if (msg.version <= self.policy_version_applied
                or key <= (self.last_policy_term, self.last_policy_epoch)):
            self.policy_stale_rejected += 1
            return
        self.last_policy_term, self.last_policy_epoch = key
        self.policy_version_applied = msg.version
        if msg.term > self.term_seen:
            self.term_seen = msg.term
        self.policy_keys_applied.append((msg.term, msg.epoch, msg.version))
        striped = self.striped
        old_splits = list(striped.splits)
        # Preserve the coordinator's placement: the new aggregate is
        # apportioned across nodes in proportion to the splits in
        # force, integer-exact (largest remainder), so the ledger's
        # conservation audit holds to the token.
        target = largest_remainder(
            msg.reservation, [float(s) for s in old_splits]
        )
        striped.aggregate_reservation = msg.reservation
        self._set_policy_limits(msg.limit, target)
        self.policy_applies += 1
        ledger = getattr(
            getattr(self.sim, "telemetry", None), "ledger", None
        )
        if ledger is not None:
            ledger.policy_apply(
                msg.epoch, striped.index, msg.version, old_splits,
                target, self.sim.now, term=msg.term,
                policy=msg.policy_name,
            )
        self._apply_splits(target, msg.epoch)

    def _set_policy_limits(self, limit_total: int, target_splits) -> None:
        """Install the policy's aggregate limit as per-node caps.

        Zero means the policy imposes no limit.  Quarantine-throttled
        nodes keep their (tighter) throttle; the policy cap is what
        unthrottling restores.
        """
        engines = self.striped.engines
        if limit_total <= 0:
            self._policy_limits = {}
        else:
            shares = largest_remainder(
                limit_total, [float(s) for s in target_splits]
            )
            self._policy_limits = {
                n: max(1, shares[n]) for n in range(self.num_nodes)
            }
        for n in range(self.num_nodes):
            if n not in self._throttled_nodes:
                engines[n].limit = self._policy_limits.get(n)

    def _apply_splits(self, target: List[int], epoch: int) -> None:
        """Send SplitApply for every node whose share changes.

        Decreases go immediately; increases one check interval later,
        so with a healthy control plane every node sees the releases
        before the claims and admission clamping never fires.  A lost
        apply self-heals: ``striped.splits`` keeps the old value, so
        the next epoch's heartbeat update retries the delta.
        """
        current = self.striped.splits
        for n in range(self.num_nodes):
            if target[n] < current[n]:
                self._send_apply(n, target[n], epoch)
        for n in range(self.num_nodes):
            if target[n] > current[n]:
                self.sim.schedule(
                    self.config.check_interval,
                    self._send_apply, n, target[n], epoch,
                )

    def _send_apply(self, node: int, reservation: int, epoch: int) -> None:
        message = SplitApply(
            client_id=self.striped.index,
            reservation=reservation,
            epoch=epoch,
            term=self.term_seen,
        )
        qp = self.striped.kv_clients[node].qp
        try:
            qp.post_send(_control_wr(message, self.num_nodes))
        except QPError:
            self.applies_failed += 1
            return
        self._pending[node] = epoch
        self.sim.schedule(
            self.config.resolved_control_deadline,
            self._sweep_apply, node, epoch,
        )

    def _sweep_apply(self, node: int, epoch: int) -> None:
        if self._pending.get(node) == epoch:
            del self._pending[node]
            self.applies_timed_out += 1

    def _on_grant(self, msg: SplitGrant, _reply_qp) -> None:
        node = msg.node_index
        if self._pending.get(node) == msg.epoch:
            del self._pending[node]
        if not msg.ok:
            self.applies_failed += 1
            return
        engine = self.striped.engines[node]
        if msg.reservation == self.striped.splits[node]:
            return  # duplicate grant (retry raced the original)
        engine.rebind(
            kv=engine.kv,
            layout=engine.layout,
            reservation=msg.reservation,
            tokens_now=msg.tokens_now,
            period_id=msg.period_id,
            period_end_time=msg.period_end_time,
            generation=msg.generation,
            source=0,
        )
        self.striped.splits[node] = msg.reservation
        self.splits_applied += 1

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            ("globalqos_reports_sent", lambda: self.reports_sent),
            ("globalqos_report_sends_failed",
             lambda: self.report_sends_failed),
            ("globalqos_updates_received", lambda: self.updates_received),
            ("globalqos_splits_applied", lambda: self.splits_applied),
            ("globalqos_applies_failed", lambda: self.applies_failed),
            ("globalqos_applies_timed_out",
             lambda: self.applies_timed_out),
            ("globalqos_fallbacks", lambda: self.fallbacks),
            ("globalqos_last_update_epoch",
             lambda: self.last_update_epoch),
        ]
        # Gated on HA wiring so single-coordinator runs keep their
        # committed metric-row digests byte-identical.
        if self.ha:
            items.extend([
                ("globalqos_updates_rejected_stale",
                 lambda: self.updates_rejected_stale),
                ("globalqos_updates_fenced", lambda: self.updates_fenced),
                ("globalqos_last_update_term",
                 lambda: self.last_update_term),
                ("globalqos_quarantine_throttles",
                 lambda: self.quarantine_throttles),
                ("globalqos_quarantine_unthrottles",
                 lambda: self.quarantine_unthrottles),
            ])
        # Gated on an attached policy service so every pre-policy run
        # keeps its committed metric-row digests byte-identical.
        if self.policy_service is not None:
            items.extend([
                ("policy_updates_received",
                 lambda: self.policy_updates_received),
                ("policy_applies", lambda: self.policy_applies),
                ("policy_fenced", lambda: self.policy_fenced),
                ("policy_stale_rejected",
                 lambda: self.policy_stale_rejected),
                ("policy_version_applied",
                 lambda: self.policy_version_applied),
            ])
        return items
