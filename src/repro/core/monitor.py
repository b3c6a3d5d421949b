"""The data-node QoS monitor (paper Sec. II-E, Fig. 5).

Once per period the monitor dispatches reservation tokens (two-sided
SEND, step T1) and initializes the global token pool word.  During the
period it wakes every check interval: when it first observes the pool
below its initial value — meaning some client exhausted its reservation
(step S2) — it signals all clients to begin reporting (step S3), and
from then on converts unused reservations into global tokens every
check interval (step T2):

    xi_global = max(Omega * (T - t) / T - L, 0)

where ``L`` is the sum of the clients' last-reported residual
reservations.  ``Omega * (T - t) / T`` is the capacity remaining in the
period, so the overwrite maintains the paper's invariant that all
outstanding tokens (global + reservation) never exceed what the server
can still absorb — and makes the pool self-correcting against the
negative excursions caused by batched FAAs on an empty pool.

Just before the boundary clients write final statistics; the monitor
feeds their sum to Algorithm 1 (step T3) to estimate the next period's
capacity.

*Basic Haechi* (the paper's ablation in Experiment 2B) is this class
with ``config.token_conversion = False``: reporting and estimation
still run, but unused reservation tokens are simply wasted.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import QoSError, QPError
from repro.core.admission import AdmissionController
from repro.core.capacity import AdaptiveCapacityEstimator
from repro.core.config import HaechiConfig
from repro.core.protocol import (
    CONTROL_MESSAGE_SIZE,
    ControlLayout,
    PeriodStart,
    RejoinRequest,
    RejoinResponse,
    ReportRequest,
    ReservationAlert,
)
from repro.common.types import OpType
from repro.rdma.atomics import to_signed64, to_unsigned64, unpack_report
from repro.rdma.memory import Permissions
from repro.rdma.node import Host
from repro.rdma.verbs import WorkRequest
from repro.telemetry.records import record

_POOL_OFFSET = 0
_CLIENT_STRIDE = 16  # live word + final word per client


def _stale_sentinel(reservation: int) -> int:
    """The marker written to a client's final-report word at period begin.

    ``completed = 0xFFFFFFFF`` is unreachable for a real report (a period
    never completes 2^32 - 1 I/Os), so the word still holding this value
    at period end proves the client wrote nothing all period — a liveness
    signal that works even for clients with reservation 0.  Any genuine
    report, including an idle client's "no progress" final write,
    replaces it.
    """
    return (reservation << 32) | 0xFFFFFFFF


class _ClientSlot:
    """Monitor-side record for one admitted client."""

    __slots__ = ("client_id", "reservation", "qp", "layout", "index",
                 "underuse_streak", "lease_streak")

    def __init__(self, client_id: int, reservation: int, qp,
                 layout: ControlLayout, index: int):
        self.client_id = client_id
        self.reservation = reservation
        self.qp = qp
        self.layout = layout
        self.index = index
        self.underuse_streak = 0
        self.lease_streak = 0  # consecutive periods with a stale final word


class QoSMonitor:
    """Server-side token management and capacity estimation."""

    def __init__(
        self,
        host: Host,
        config: HaechiConfig,
        estimator: AdaptiveCapacityEstimator,
        admission: Optional[AdmissionController] = None,
        max_clients: int = 64,
    ):
        self.host = host
        self.sim = host.sim
        self.config = config
        self.estimator = estimator
        self.admission = admission
        self.max_clients = max_clients
        self._clients: Dict[int, _ClientSlot] = {}

        region_size = 8 + max_clients * _CLIENT_STRIDE
        base = host.memory.allocate(region_size, align=8)
        self.control_region = host.memory.register(
            base, region_size, Permissions.all()
        )
        self.pool_addr = base + _POOL_OFFSET

        self.period_id = 0
        self._period_end = 0.0
        self._pool_init = 0
        self._reporting_triggered = False
        self._running = False
        self._next_slot_index = 0  # monotonic: retired slots never reused
        # ...except by the same client rejoining after eviction, once
        # the fresh-slot supply is exhausted (see rejoin_client).
        self._retired_slots: Dict[int, int] = {}  # client_id -> old index
        # Control-word epoch: bumps whenever the token words are
        # re-initialized (node restart), stamped into every PeriodStart.
        self.generation = 1

        # telemetry for the benches
        self.pool_history: List[tuple] = []  # (time, pool value at check)
        self.conversions = 0
        self.period_records: List[dict] = []
        # Definition 2's runtime form: clients whose residual reservation
        # can no longer be completed at the single-client rate C_L.
        # Detected from live reports (diagnostic only — the paper's
        # Experiment 1C/Set 3 starvation effect made observable).
        self.local_violations: List[dict] = []
        self._violated_this_period: set = set()
        # robustness telemetry (see docs/FAULTS.md)
        self.stale_reports = 0
        self.clamped_reports = 0
        self.sends_failed = 0
        self.evictions: List[dict] = []
        # recovery telemetry (see docs/RECOVERY.md)
        self.rejoins: List[dict] = []
        self.rejoin_clamped = 0
        self.reinitializations = 0
        # global-coordinator telemetry (see docs/GLOBALQOS.md); exposed
        # through the node agent's metrics_items, not this class's, so
        # coordinator-free runs keep their metric streams byte-stable.
        self.rebalances: List[dict] = []
        self.rebalance_clamped = 0
        # Hierarchical tenancy (see docs/SCALE.md): a bound hierarchy
        # installs a guard that caps resizes at the client's group
        # ceiling.  Plain attributes, surfaced only through the tenancy
        # facade block, so unbound runs keep byte-stable metric streams.
        self.reservation_guard = None
        self.hierarchy_clamped = 0
        # Every engine writing report words or fetching pool tokens
        # here: an engine replays its live reports and empty polls
        # lazily, so each access to those words first settles it, and a
        # positive pool write tells it its polls may be granted again
        # (see QoSEngine.settle).
        self._settlers: List = []

    # ------------------------------------------------------------------
    # Client admission / wiring (step T1 prerequisites)
    # ------------------------------------------------------------------
    def add_client(self, client_id: int, reservation: int, qp) -> ControlLayout:
        """Admit a client and assign its control-memory slots.

        ``qp`` is the monitor's QP *towards* the client, used for the
        per-period control SENDs.  Returns the layout the client's
        engine needs for its one-sided control traffic.
        """
        if client_id in self._clients:
            raise QoSError(f"client {client_id} already registered")
        if self._next_slot_index >= self.max_clients:
            raise QoSError(f"monitor supports at most {self.max_clients} clients")
        if self.admission is not None:
            self.admission.admit(client_id, reservation)
        index, layout = self._allocate_slot()
        self._clients[client_id] = _ClientSlot(
            client_id, reservation, qp, layout, index
        )
        return layout

    def _allocate_slot(self, index: Optional[int] = None):
        """Assign control-memory slots (a fresh index unless reusing one)."""
        if index is None:
            index = self._next_slot_index
            self._next_slot_index += 1
        base = self.control_region.addr + 8 + index * _CLIENT_STRIDE
        layout = ControlLayout(
            rkey=self.control_region.rkey,
            pool_addr=self.pool_addr,
            report_live_addr=base,
            report_final_addr=base + 8,
        )
        return index, layout

    def remove_client(self, client_id: int) -> None:
        """Release a departing client's reservation.

        Effective from the next period start: the freed tokens flow
        into the global pool (and the admission controller's headroom).
        The client's control slots are retired, not reused — except by
        the *same* client re-registering through :meth:`rejoin_client`
        — so a straggling report cannot corrupt another client's
        accounting.
        """
        slot = self._clients.pop(client_id, None)
        if slot is None:
            raise QoSError(f"client {client_id} is not registered")
        self._retired_slots[client_id] = slot.index
        if self.admission is not None:
            self.admission.release(client_id)

    def add_settler(self, engine) -> None:
        """Enrol an engine in the settle protocol: its ``settle`` runs
        before every read or write of the report words and the pool
        word, so what it posted earlier has landed, and its
        ``pool_refilled`` after every positive pool write (see
        QoSEngine's settling notes).  Enrolment is the first such
        notice: until an engine has one its empty polls stay timer
        events."""
        self._settlers.append(engine)
        engine.pool_refilled(self.host)

    def _settle(self) -> None:
        for engine in self._settlers:
            engine.settle()

    @property
    def total_reserved(self) -> int:
        """Sum of admitted reservations (tokens/period)."""
        return sum(slot.reservation for slot in self._clients.values())

    # ------------------------------------------------------------------
    # Failover rejoin (see docs/RECOVERY.md)
    # ------------------------------------------------------------------
    def rejoin_client(self, client_id: int, reservation: int, qp):
        """Adopt a client that failed over from a dead data node.

        Unlike :meth:`add_client`, this runs mid-period: the original
        reservation is reconciled against this node's remaining
        capacity (clamped, never rejected outright, so a failed-over
        client keeps *some* guarantee), the slot's report words are
        initialized immediately, and the returned grant is pro-rated to
        the remainder of the current period.  Idempotent: a retransmitted
        request gets the same slot back.

        Returns a dict with the slot layout and period coordinates, or
        None if the monitor is out of slots.
        """
        self._settle()
        slot = self._clients.get(client_id)
        if slot is None:
            granted = reservation
            if self.admission is not None:
                granted = min(
                    granted,
                    self.admission.local_capacity,
                    max(0, self.admission.headroom),
                )
                self.admission.admit(client_id, granted)
            if granted < reservation:
                self.rejoin_clamped += 1
            index = None
            if self._next_slot_index >= self.max_clients:
                # Out of fresh slots: the one safe reuse is this same
                # client's own retired slot (no other writer exists).
                index = self._retired_slots.pop(client_id, None)
                if index is None:
                    if self.admission is not None:
                        self.admission.release(client_id)
                    return None
            index, layout = self._allocate_slot(index)
            slot = _ClientSlot(client_id, granted, qp, layout, index)
            self._clients[client_id] = slot
            memory = self.host.memory.backing
            memory.write_u64(layout.report_live_addr, granted << 32)
            memory.write_u64(
                layout.report_final_addr, _stale_sentinel(granted)
            )
            self.rejoins.append({
                "client": client_id,
                "requested": reservation,
                "granted": granted,
                "period": self.period_id,
                "time": self.sim.now,
            })
            record(self.sim, "monitor", "client_rejoined",
                   period=self.period_id, client=client_id,
                   requested=reservation, granted=granted)
        remaining = max(0.0, self._period_end - self.sim.now)
        tokens_now = int(slot.reservation * remaining / self.config.period)
        return {
            "layout": slot.layout,
            "reservation": slot.reservation,
            "tokens_now": tokens_now,
            "period_id": self.period_id,
            "period_end_time": self._period_end,
            "generation": self.generation,
        }

    def update_reservation(self, client_id: int, reservation: int) -> dict:
        """Resize a registered client's reservation mid-period.

        The global coordinator's apply path: the client keeps its slot
        and control-memory layout, only the grant changes.  The new
        value is clamped against the local capacity and the admission
        headroom (the other clients' reservations are untouched), the
        slot's report words are re-initialized for the new grant —
        exactly the rejoin treatment, so the end-of-period stale/lease
        accounting stays consistent — and the returned grant is
        pro-rated to the remainder of the current period.  From the
        next ``_begin_period`` the full new reservation flows through
        the normal :class:`PeriodStart` dispatch automatically.
        """
        slot = self._clients.get(client_id)
        if slot is None:
            raise QoSError(f"client {client_id} is not registered")
        self._settle()
        granted = reservation
        if self.reservation_guard is not None:
            allowed = self.reservation_guard(client_id, granted)
            if allowed < granted:
                self.hierarchy_clamped += 1
                granted = allowed
        if self.admission is not None:
            others = (self.admission.total_reserved
                      - self.admission.admitted[client_id])
            granted = min(
                granted,
                self.admission.local_capacity,
                max(0, self.admission.global_capacity - others),
            )
            if granted < reservation:
                self.rebalance_clamped += 1
            self.admission.resize(client_id, granted)
        previous = slot.reservation
        slot.reservation = granted
        memory = self.host.memory.backing
        memory.write_u64(slot.layout.report_live_addr, granted << 32)
        memory.write_u64(
            slot.layout.report_final_addr, _stale_sentinel(granted)
        )
        remaining = max(0.0, self._period_end - self.sim.now)
        tokens_now = int(granted * remaining / self.config.period)
        self.rebalances.append({
            "client": client_id,
            "previous": previous,
            "requested": reservation,
            "granted": granted,
            "period": self.period_id,
            "time": self.sim.now,
        })
        record(self.sim, "monitor", "reservation_resized",
               period=self.period_id, client=client_id,
               previous=previous, granted=granted)
        return {
            "reservation": granted,
            "tokens_now": tokens_now,
            "period_id": self.period_id,
            "period_end_time": self._period_end,
            "generation": self.generation,
        }

    def attach_rejoin_handler(self, dispatcher) -> None:
        """Serve :class:`RejoinRequest` control SENDs on ``dispatcher``."""
        dispatcher.register(RejoinRequest, self._on_rejoin_request)

    def _on_rejoin_request(self, msg: RejoinRequest, reply_qp) -> None:
        grant = self.rejoin_client(msg.client_id, msg.reservation, reply_qp)
        if grant is None:
            response = RejoinResponse(
                client_id=msg.client_id, ok=False, reservation=0, tokens_now=0
            )
        else:
            layout = grant["layout"]
            response = RejoinResponse(
                client_id=msg.client_id,
                ok=True,
                reservation=grant["reservation"],
                tokens_now=grant["tokens_now"],
                rkey=layout.rkey,
                pool_addr=layout.pool_addr,
                report_live_addr=layout.report_live_addr,
                report_final_addr=layout.report_final_addr,
                period_id=grant["period_id"],
                period_end_time=grant["period_end_time"],
                generation=grant["generation"],
            )
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=response,
            size=CONTROL_MESSAGE_SIZE,
            is_response=True,
            control=True,
            signaled=False,  # the monitor's CQs have no reader
        )
        try:
            reply_qp.post_send(wr)
        except QPError:
            self.sends_failed += 1

    def reinitialize(self) -> None:
        """Re-initialize the control words after a crash-window restart.

        The node's memory came back zeroed (or stale): rebuild the pool
        word and every slot's report words for the remainder of the
        current period, bump the generation, and push an out-of-band
        :class:`PeriodStart` carrying a pro-rated grant and the new
        stamp.  Clients that see the generation change discard any pool
        tokens fetched against the dead memory and resynchronize
        immediately instead of limping to the next boundary.
        """
        self._settle()
        self.generation += 1
        self.reinitializations += 1
        remaining = max(0.0, self._period_end - self.sim.now)
        fraction = remaining / self.config.period if self.config.period else 0.0
        pool_now = int(self._pool_init * fraction)
        self._write_pool(pool_now)
        self._reporting_triggered = False
        memory = self.host.memory.backing
        for slot in self._clients.values():
            tokens_now = int(slot.reservation * fraction)
            memory.write_u64(slot.layout.report_live_addr, tokens_now << 32)
            memory.write_u64(
                slot.layout.report_final_addr, _stale_sentinel(slot.reservation)
            )
            self._send(slot, PeriodStart(
                period_id=self.period_id,
                tokens=tokens_now,
                period_end_time=self._period_end,
                generation=self.generation,
            ))
        record(self.sim, "monitor", "reinitialized", period=self.period_id,
               generation=self.generation, pool=pool_now)

    # ------------------------------------------------------------------
    # Period machinery
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin driving QoS periods (call once, after wiring clients)."""
        if self._running:
            raise QoSError("monitor already started")
        self._running = True
        self.sim.schedule(0.0, self._open_period)

    def _open_period(self) -> None:
        self._begin_period()
        self._arm()

    def _arm(self) -> None:
        """Wake once per check interval; the period's last stretch (one
        interval or less) runs straight to its end with no check."""
        remaining = self._period_end - self.sim.now
        if remaining > self.config.check_interval:
            self.sim.schedule(self.config.check_interval, self._tick)
        elif remaining > 0:
            self.sim.schedule(remaining, self._close_period)
        else:
            self._close_period()

    def _tick(self) -> None:
        self._check_interval()
        self._arm()

    def _close_period(self) -> None:
        self._end_period()
        self._open_period()

    def _begin_period(self) -> None:
        self._settle()
        self.period_id += 1
        self._period_end = self.sim.now + self.config.period
        self._reporting_triggered = False
        self._violated_this_period.clear()
        omega = self.estimator.current
        self._pool_init = max(0, omega - self.total_reserved)
        self._write_pool(self._pool_init)
        record(self.sim, "monitor", "period_begin", period=self.period_id,
               estimate=omega, pool=self._pool_init)
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.on_period_begin(
                self.period_id, self._pool_init, self.total_reserved,
                source=self.host.name,
            )
        memory = self.host.memory.backing
        for slot in self._clients.values():
            # Reset the live report to "full residual, nothing done" so a
            # conversion before the first report stays conservative.
            memory.write_u64(
                slot.layout.report_live_addr,
                (slot.reservation << 32),
            )
            # The final word starts at the stale sentinel; if it is still
            # there at period end the client made no contact all period
            # (liveness lease, _end_period).
            memory.write_u64(
                slot.layout.report_final_addr,
                _stale_sentinel(slot.reservation),
            )
            self._send(slot, PeriodStart(
                period_id=self.period_id,
                tokens=slot.reservation,
                period_end_time=self._period_end,
                generation=self.generation,
            ))

    def _check_interval(self) -> None:
        # Step S1: probe the pool.  The monitor runs on the data node so
        # this is a local read (the paper uses a loopback CAS).
        self._settle()
        pool = self._read_pool()
        self.pool_history.append((self.sim.now, pool))
        if not self._reporting_triggered:
            if pool < self._pool_init:
                self._reporting_triggered = True
                record(self.sim, "monitor", "reporting_triggered",
                       period=self.period_id, pool=pool)
                for slot in self._clients.values():
                    self._send(slot, ReportRequest(period_id=self.period_id))
            return
        convert = self.config.token_conversion
        admission = self.admission
        if admission is None and not convert:
            return
        # One sweep over the live words serves both of the check's
        # readers.  Definition 2 at runtime: flag clients whose
        # outstanding reservation exceeds what C_L can deliver in the
        # rest of the period (needs admission control for C_L).
        remaining = max(0.0, self._period_end - self.sim.now)
        if admission is not None:
            deliverable = remaining * (
                admission.local_capacity / self.config.period)
            violated = self._violated_this_period
        # Step T2: token conversion from the last reported residuals.  A
        # residual beyond the whole capacity estimate (+ one FAA batch
        # of slack for in-flight grants) can only be a corrupted word;
        # taking it at face value would zero the pool for the rest of
        # the period.
        residual_sum = 0
        omega = self.estimator.current
        residual_bound = omega + self.config.batch_size
        memory = self.host.memory.backing
        for slot in self._clients.values():
            residual, completed = unpack_report(
                memory.read_u64(slot.layout.report_live_addr)
            )
            if admission is not None and slot.client_id not in violated:
                outstanding = max(0, slot.reservation - completed)
                if outstanding > deliverable:
                    violated.add(slot.client_id)
                    self.local_violations.append({
                        "period": self.period_id,
                        "client": slot.client_id,
                        "time": self.sim.now,
                        "outstanding": outstanding,
                    })
            if convert:
                residual_sum += self._clamp(
                    residual, residual_bound, "residual", slot.client_id
                )
        if not convert:
            return
        new_pool = max(
            int(omega * remaining / self.config.period) - residual_sum, 0
        )
        self._write_pool(new_pool)
        self.conversions += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.on_conversion(
                self.period_id, pool, new_pool, residual_sum,
                source=self.host.name,
            )

    def _end_period(self) -> None:
        self._settle()
        memory = self.host.memory.backing
        total_completed = 0
        per_client = {}
        lease = self.config.lease_periods
        # A single client cannot complete more than the whole node's
        # capacity; 2x the estimate (+ batch slack) leaves the estimator
        # room to discover under-estimation while rejecting garbage.
        completed_bound = 2 * self.estimator.current + self.config.batch_size
        expired = []
        for slot in self._clients.values():
            word = memory.read_u64(slot.layout.report_final_addr)
            if word == _stale_sentinel(slot.reservation):
                # No write all period: the client is unreachable or dead.
                slot.lease_streak += 1
                self.stale_reports += 1
                record(self.sim, "monitor", "stale_report",
                       period=self.period_id, client=slot.client_id,
                       streak=slot.lease_streak)
                if lease and slot.lease_streak >= lease:
                    expired.append(slot)
                completed = 0
            else:
                slot.lease_streak = 0
                _residual, completed = unpack_report(word)
                completed = self._clamp(
                    completed, completed_bound, "completed", slot.client_id
                )
            total_completed += completed
            per_client[slot.client_id] = completed
            self._track_underuse(slot, completed)
        for slot in expired:
            self.remove_client(slot.client_id)
            self.evictions.append({
                "period": self.period_id,
                "client": slot.client_id,
                "reservation": slot.reservation,
                "time": self.sim.now,
            })
            record(self.sim, "monitor", "client_evicted",
                   period=self.period_id, client=slot.client_id,
                   reservation=slot.reservation)
        self.period_records.append(
            {
                "period": self.period_id,
                "estimate": self.estimator.current,
                "completed": total_completed,
                "per_client": per_client,
                "reporting_triggered": self._reporting_triggered,
            }
        )
        estimator = self.estimator
        estimator.update(total_completed)
        # Algorithm 1's decision: U, the branch it took and the floor
        # Omega_prof - 3 sigma, from Omega to the new Omega.
        record(self.sim, "monitor", "estimate", period=self.period_id,
               completed=total_completed, omega_prev=estimator.history[-2],
               decision=estimator.decisions[-1],
               floor=estimator.lower_bound, omega=estimator.history[-1],
               next_estimate=estimator.current)

    def _track_underuse(self, slot: _ClientSlot, completed: int) -> None:
        if completed < slot.reservation:
            slot.underuse_streak += 1
            if slot.underuse_streak >= self.config.underuse_alert_threshold:
                self._send(slot, ReservationAlert(
                    period_id=self.period_id,
                    consecutive_underuse=slot.underuse_streak,
                ))
        else:
            slot.underuse_streak = 0

    def _clamp(self, value: int, bound: int, field: str, client_id: int) -> int:
        """Reject an out-of-range report word (bit corruption, stale
        garbage from a crashed client) by clamping it to ``bound``."""
        if value <= bound:
            return value
        self.clamped_reports += 1
        record(self.sim, "monitor", "report_clamped", period=self.period_id,
               client=client_id, field=field, value=value,
               bound=bound)
        return bound

    # ------------------------------------------------------------------
    # Metrics registry integration
    # ------------------------------------------------------------------
    # Lease/clamp fault counters, registered first and in this order
    # (the eviction and rejoin logs are gauged by length below).
    SUMMARY_FIELDS = (
        "stale_reports",
        "clamped_reports",
        "sends_failed",
        "reinitializations",
    )

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            (f"monitor_{field}", lambda f=field: getattr(self, f))
            for field in self.SUMMARY_FIELDS
        ]
        items.extend([
            ("monitor_period_id", lambda: self.period_id),
            ("monitor_conversions", lambda: self.conversions),
            ("monitor_pool_value", self._read_pool),
            ("monitor_total_reserved", lambda: self.total_reserved),
            ("monitor_capacity_estimate", lambda: self.estimator.current),
            ("monitor_clients", lambda: len(self._clients)),
            ("monitor_evictions", lambda: len(self.evictions)),
            ("monitor_rejoins", lambda: len(self.rejoins)),
            ("monitor_rejoin_clamped", lambda: self.rejoin_clamped),
            ("monitor_local_violations", lambda: len(self.local_violations)),
            ("monitor_generation", lambda: self.generation),
        ])
        return items

    # ------------------------------------------------------------------
    def _read_pool(self) -> int:
        return to_signed64(self.host.memory.backing.read_u64(self.pool_addr))

    def _write_pool(self, value: int) -> None:
        self.host.memory.backing.write_u64(self.pool_addr, to_unsigned64(value))
        if value > 0:
            # Engines' empty polls may be granted again: every poll
            # chain turns real (QoSEngine.pool_refilled).
            host = self.host
            for engine in self._settlers:
                engine.pool_refilled(host)

    def _send(self, slot: _ClientSlot, message) -> None:
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=message,
            size=CONTROL_MESSAGE_SIZE,
            is_response=True,  # offloaded control path, not a client request
            control=True,
            signaled=False,  # the monitor's CQs have no reader
        )
        try:
            slot.qp.post_send(wr)
        except QPError:
            # Dead connection: the lease machinery will notice the
            # client's silence; losing the SEND itself is survivable.
            self.sends_failed += 1
