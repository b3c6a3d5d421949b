"""The client-side failover state machine (see docs/RECOVERY.md).

One :class:`FailoverManager` per client watches the QoS engine's
data-path completions and drives the connection through

    CONNECTED -> SUSPECT -> RECONNECTING -> FAILED_OVER
                   |
                   +-> CONNECTED           (probe succeeded: transient)

``SUSPECT`` probes the primary with timing-only one-sided READs,
reopening the QP first if it was abruptly closed — so a bare QP loss
heals in place without abandoning the node.  Only when the probes are
exhausted does the manager declare the primary dead: it suspends the
engine (queued I/O waits, in-flight control ops are epoch-discarded),
sends a :class:`~repro.core.protocol.RejoinRequest` to the replica's
monitor, and on the response rebinds the engine — new KV client, new
control-memory layout, pro-rated token grant — so one-sided I/O resumes
against the replica before the next period boundary.

The manager also owns the *reliable PUT* path used by the chaos
harness: client-assigned monotonic versions make retries idempotent
(the store suppresses replays), and retries follow the failover target,
so an acknowledged PUT is never lost and never double-applied.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.common.errors import QPError, StoreError
from repro.common.types import OpType
from repro.core.engine import QoSEngine
from repro.core.protocol import (
    CONTROL_MESSAGE_SIZE,
    ControlLayout,
    RejoinRequest,
    RejoinResponse,
)
from repro.kvstore.client import KVClient
from repro.recovery.config import RecoveryConfig
from repro.rdma.verbs import WorkRequest
from repro.telemetry.records import record


class FailoverState(enum.Enum):
    """Where a client stands relative to its primary data node."""

    CONNECTED = "connected"
    SUSPECT = "suspect"
    RECONNECTING = "reconnecting"
    FAILED_OVER = "failed_over"
    FAILED = "failed"  # replica also unreachable: gave up


class FailoverManager:
    """Failure detection, reconnection, and QoS re-registration."""

    def __init__(
        self,
        client_index: int,
        name: str,
        engine: QoSEngine,
        kv_primary: KVClient,
        kv_replica: KVClient,
        dispatcher_replica,
        reservation: int,
        recovery: RecoveryConfig,
        replica_source: int = 1,
    ):
        self.client_index = client_index
        self.name = name
        self.engine = engine
        self.kv_primary = kv_primary
        self.kv_replica = kv_replica
        self.reservation = reservation
        self.recovery = recovery
        self.replica_source = replica_source
        self.sim = engine.sim

        self.state = FailoverState.CONNECTED
        self.granted_reservation = reservation  # post-rejoin, may be clamped
        self._consecutive_errors = 0
        self._probe_attempt = 0
        self._rejoin_attempt = 0
        self._suspect_entered_at: Optional[float] = None

        # reliable-PUT state: key -> highest client version acknowledged
        self._versions = 0
        self.acked_puts: Dict[int, int] = {}

        # telemetry (gauged through metrics_items)
        self.suspect_transitions = 0
        self.probes_sent = 0
        self.reconnect_attempts = 0
        self.failovers = 0
        self.rejoin_requests_sent = 0
        self.rejoin_post_qp_errors = 0  # QPError swallows on rejoin posts
        self.rejoins_completed = 0
        self.puts_started = 0
        self.puts_acked = 0
        self.put_retries = 0
        self.put_failures = 0
        self.failover_windows: List[tuple] = []  # (suspect_at, rebound_at)

        engine.failure_listener = self.on_data_completion
        dispatcher_replica.register(RejoinResponse, self._on_rejoin_response)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    @property
    def kv(self) -> KVClient:
        """The current data-path target."""
        if self.state is FailoverState.FAILED_OVER:
            return self.kv_replica
        return self.kv_primary

    def on_data_completion(self, ok: bool) -> None:
        """Engine completion observer (installed as failure_listener)."""
        if ok:
            self._consecutive_errors = 0
            return
        self._consecutive_errors += 1
        if (self.state is FailoverState.CONNECTED
                and self._consecutive_errors >= self.recovery.suspect_after):
            self._enter_suspect()

    def _enter_suspect(self) -> None:
        self.state = FailoverState.SUSPECT
        self.suspect_transitions += 1
        self._suspect_entered_at = self.sim.now
        self._probe_attempt = 0
        record(self.sim, "failover", "suspect", client=self.name,
               errors=self._consecutive_errors)
        self._probe()

    def _probe(self) -> None:
        if self.state is not FailoverState.SUSPECT:
            return
        if self._probe_attempt >= self.recovery.probe_attempts:
            self._start_failover()
            return
        self._probe_attempt += 1
        self.probes_sent += 1
        self._reopen(self.kv_primary)
        try:
            self.kv_primary.get_onesided(
                0, self._on_probe_result, touch_memory=False
            )
        except (QPError, StoreError):
            self._on_probe_result(False, "probe post failed", 0.0)

    def _reopen(self, kv: KVClient) -> None:
        """Bring an abruptly-closed connection back up (both directions)."""
        if kv.qp.closed:
            kv.qp.reopen()
            if kv.qp.reverse is not None:
                kv.qp.reverse.reopen()
            self.reconnect_attempts += 1

    def _on_probe_result(self, ok: bool, _value, _latency: float) -> None:
        if self.state is not FailoverState.SUSPECT:
            return
        if ok:
            # Transient (a dropped burst, a closed-and-reopened QP):
            # stay on the primary.
            self.state = FailoverState.CONNECTED
            self._consecutive_errors = 0
            self._suspect_entered_at = None
            record(self.sim, "failover", "probe_ok", client=self.name)
            return
        if self._probe_attempt >= self.recovery.probe_attempts:
            self._start_failover()
        else:
            self.sim.schedule(self.recovery.probe_interval, self._probe)

    # ------------------------------------------------------------------
    # Failover: rejoin handshake with the replica's monitor
    # ------------------------------------------------------------------
    def _start_failover(self) -> None:
        self.state = FailoverState.RECONNECTING
        self.failovers += 1
        self._rejoin_attempt = 0
        # Freeze the data path: queued I/O waits for the rebind, control
        # messages from the dead node's monitor epoch are ignored.
        self.engine.suspend()
        record(self.sim, "failover", "reconnecting", client=self.name)
        self._send_rejoin()

    def _send_rejoin(self) -> None:
        if self.state is not FailoverState.RECONNECTING:
            return
        if self._rejoin_attempt >= self.recovery.rejoin_attempts:
            self.state = FailoverState.FAILED
            record(self.sim, "failover", "failed", client=self.name)
            return
        self._rejoin_attempt += 1
        self.rejoin_requests_sent += 1
        self._reopen(self.kv_replica)
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=RejoinRequest(
                client_id=self.client_index, reservation=self.reservation
            ),
            size=CONTROL_MESSAGE_SIZE,
            control=True,
        )
        try:
            self.kv_replica.qp.post_send(wr)
        except QPError:
            # Only QPError is recoverable: the rejoin deadline below
            # retransmits (bounded by rejoin_attempts).  Count the
            # swallow so a replica that rejects every post shows up in
            # the metrics rather than as a silent FAILED transition.
            self.rejoin_post_qp_errors += 1
        self.sim.schedule(self.recovery.rejoin_deadline,
                          self._rejoin_deadline, self._rejoin_attempt)

    def _rejoin_deadline(self, attempt: int) -> None:
        if (self.state is FailoverState.RECONNECTING
                and attempt == self._rejoin_attempt):
            self._send_rejoin()

    def _on_rejoin_response(self, msg: RejoinResponse, _reply_qp) -> None:
        if self.state is not FailoverState.RECONNECTING:
            return  # duplicate response from a retransmitted request
        if not msg.ok:
            self.state = FailoverState.FAILED
            record(self.sim, "failover", "rejected", client=self.name)
            return
        layout = ControlLayout(
            rkey=msg.rkey,
            pool_addr=msg.pool_addr,
            report_live_addr=msg.report_live_addr,
            report_final_addr=msg.report_final_addr,
        )
        self.granted_reservation = msg.reservation
        self.state = FailoverState.FAILED_OVER
        self.rejoins_completed += 1
        self._consecutive_errors = 0
        started = self._suspect_entered_at
        if started is not None:
            self.failover_windows.append((started, self.sim.now))
            self._suspect_entered_at = None
        self.engine.rebind(
            kv=self.kv_replica,
            layout=layout,
            reservation=msg.reservation,
            tokens_now=msg.tokens_now,
            period_id=msg.period_id,
            period_end_time=msg.period_end_time,
            generation=msg.generation,
            source=self.replica_source,
        )
        record(self.sim, "failover", "failed_over", client=self.name,
               reservation=msg.reservation,
               tokens_now=msg.tokens_now)

    @property
    def last_failover_duration(self) -> Optional[float]:
        """Suspect-to-rebound wall time of the latest failover."""
        if not self.failover_windows:
            return None
        start, end = self.failover_windows[-1]
        return end - start

    # ------------------------------------------------------------------
    # Metrics registry integration
    # ------------------------------------------------------------------
    # Scalar failover counters, registered first and in this order
    # (state and the failover_windows list are read off the manager).
    SUMMARY_FIELDS = (
        "suspect_transitions",
        "probes_sent",
        "reconnect_attempts",
        "failovers",
        "rejoins_completed",
        "put_retries",
        "puts_acked",
    )

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            (f"failover_{field}", lambda f=field: getattr(self, f))
            for field in self.SUMMARY_FIELDS
        ]
        items.extend([
            ("failover_windows", lambda: len(self.failover_windows)),
            ("failover_puts_started", lambda: self.puts_started),
            ("failover_rejoin_post_qp_errors",
             lambda: self.rejoin_post_qp_errors),
        ])
        return items

    # ------------------------------------------------------------------
    # Reliable PUT (idempotent, failover-following)
    # ------------------------------------------------------------------
    def put(self, key: int, payload: bytes,
            on_complete: Optional[Callable] = None) -> int:
        """Durably store ``payload`` under ``key``; returns the version.

        The client-assigned version makes retries idempotent: a replay
        of an already-applied version is suppressed by the store but
        still acknowledged, so a PUT whose *ack* (rather than the PUT
        itself) was lost completes without double-applying.
        """
        self._versions += 1
        version = self._versions
        self.puts_started += 1
        self._do_put(key, payload, version, 0, on_complete)
        return version

    def _do_put(self, key: int, payload: bytes, version: int,
                attempt: int, on_complete: Optional[Callable]) -> None:
        if attempt >= self.recovery.put_attempts:
            self.put_failures += 1
            if on_complete is not None:
                on_complete(False, "put retries exhausted", 0.0)
            return

        def finish(ok: bool, value, latency: float) -> None:
            # PUT outcomes feed the same failure detector as the
            # engine's completions: a crash that falls in an idle
            # stretch of the (bursty) one-sided workload is otherwise
            # invisible to the client until the next period boundary.
            self.on_data_completion(ok)
            if ok:
                if version > self.acked_puts.get(key, 0):
                    self.acked_puts[key] = version
                self.puts_acked += 1
                if on_complete is not None:
                    on_complete(True, value, latency)
                return
            self.put_retries += 1
            self.sim.schedule(self.recovery.put_retry_interval, self._do_put,
                              key, payload, version, attempt + 1, on_complete)

        try:
            self.kv.put_twosided(key, payload, finish, client_version=version)
        except (QPError, StoreError):
            self.on_data_completion(False)
            self.put_retries += 1
            self.sim.schedule(self.recovery.put_retry_interval, self._do_put,
                              key, payload, version, attempt + 1, on_complete)
