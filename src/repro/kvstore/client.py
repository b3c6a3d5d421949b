"""The KV client: one-sided and two-sided GET/PUT paths."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.common.errors import StoreError
from repro.common.types import OpType
from repro.kvstore import protocol
from repro.kvstore.records import RecordLayout, decode_record, encode_record
from repro.rdma.dispatch import CompletionRouter, TypeDispatcher
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import WCStatus, WorkCompletion, WorkRequest

# Completion callbacks receive (ok, value, latency_seconds).
IOCallback = Callable[[bool, object, float], None]


class KVClient:
    """Client-side access to a remote :class:`~repro.kvstore.server.DataNode`.

    One-sided operations translate a key to a remote slot address using
    the locally known :class:`RecordLayout` and issue a single RDMA
    READ/WRITE — the data node CPU is never involved.  Two-sided
    operations send an RPC and wait for the server's response message.

    The layout is obtained with :meth:`connect` (a two-sided handshake)
    or injected directly by the cluster builder.
    """

    def __init__(
        self,
        name: str,
        qp: QueuePair,
        dispatcher: TypeDispatcher,
        layout: Optional[RecordLayout] = None,
        data_rkey: Optional[int] = None,
        rpc_deadline: Optional[float] = None,
    ):
        self.name = name
        self.qp = qp
        self.sim = qp.sim
        self.router = CompletionRouter(qp.cq)
        self.layout = layout
        self.data_rkey = data_rkey
        # Per-op deadline for two-sided RPCs: a request whose response
        # never arrives (dropped SEND, crashed server) is swept at
        # posted_at + rpc_deadline and fails through its own callback
        # instead of leaking the pending entry and hanging the caller.
        # None disables sweeping (trusted fault-free deployments only).
        self.rpc_deadline = rpc_deadline
        self.rpcs_timed_out = 0
        # Tenancy attribution tag: a bound TenantHierarchy stamps the
        # owning tenant here so traces and rollups can attribute
        # one-sided I/O without a per-op lookup.  None when no
        # hierarchy is configured.
        self.tenant: Optional[str] = None
        self._req_ids = itertools.count(1)
        self._pending_rpcs: Dict[int, tuple] = {}  # req_id -> (callback, posted_at)
        dispatcher.register(protocol.GetResponse, self._on_get_response)
        dispatcher.register(protocol.PutResponse, self._on_put_response)
        dispatcher.register(protocol.ConnectResponse, self._on_connect_response)
        self._connect_callback: Optional[Callable] = None
        # Completion-closure cache for the timing-only one-sided READ:
        # the QoS engine completes every op of a backlog run into the
        # same wrapper object, so the WC adapter is built once per
        # callback identity, not once per op.
        self._last_on_complete = None
        self._last_finish = None

    # ------------------------------------------------------------------
    # Connection handshake
    # ------------------------------------------------------------------
    def connect(self, on_connected: Callable[[], None]) -> None:
        """Fetch the store layout from the server, then call back."""
        self._connect_callback = on_connected
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=protocol.ConnectRequest(client_name=self.name),
            size=protocol.GET_REQUEST_SIZE,
            signaled=False,
        )
        self.qp.post_send(wr)

    def _on_connect_response(self, msg: protocol.ConnectResponse, _reply_qp) -> None:
        self.layout = RecordLayout(
            base_addr=msg.base_addr,
            num_slots=msg.num_slots,
            slot_size=msg.slot_size,
        )
        self.data_rkey = msg.data_rkey
        callback, self._connect_callback = self._connect_callback, None
        if callback is not None:
            callback()

    def _require_layout(self) -> RecordLayout:
        if self.layout is None or self.data_rkey is None:
            raise StoreError(f"client {self.name} is not connected (no layout)")
        return self.layout

    # ------------------------------------------------------------------
    # One-sided path
    # ------------------------------------------------------------------
    def get_onesided(
        self, key: int, on_complete: IOCallback, touch_memory: bool = True,
        span=None, sample: bool = True,
    ) -> int:
        """Fetch the record for ``key`` with a single RDMA READ.

        ``span`` attaches an existing telemetry span; with
        ``sample=True`` and no span, the client samples one from the
        attached telemetry hub, so bare (QoS-less) callers are traced
        too.
        """
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("onesided_read", self.name, key)
        return self.qp.post_send(
            self.get_onesided_wr(key, on_complete, touch_memory, span)
        )

    def get_onesided_wr(
        self, key: int, on_complete: IOCallback, touch_memory: bool = True,
        span=None,
    ) -> WorkRequest:
        """Build (but do not post) the READ work request for ``key``.

        The QoS engine posts these itself — one by one, or collected
        into a ``QueuePair.post_chain`` so a burst shares doorbells —
        passing its own span, which already carries the queueing stage.
        """
        layout = self._require_layout()
        # Two closure variants so the timing-only configuration (every
        # bulk benchmark) runs the minimal body; wc.ok/wc.latency are
        # Python-level properties, so status and timestamps are read
        # directly here.
        if touch_memory:
            def finish(wc: WorkCompletion) -> None:
                latency = wc.completed_at - wc.posted_at
                if wc.status is not WCStatus.SUCCESS:
                    on_complete(False, wc.error, latency)
                    return
                slot_key, version, payload = decode_record(wc.value)
                if slot_key not in (key, 0):  # 0 = unmaterialized store
                    on_complete(False, f"bad slot key {slot_key}", latency)
                    return
                on_complete(True, (version, payload), latency)
        elif on_complete is self._last_on_complete:
            finish = self._last_finish
        else:
            # Captures nothing per op, so one closure serves every READ
            # that completes into ``on_complete``.
            def finish(wc: WorkCompletion) -> None:
                latency = wc.completed_at - wc.posted_at
                if wc.status is WCStatus.SUCCESS:
                    on_complete(True, None, latency)
                else:
                    on_complete(False, wc.error, latency)

            self._last_on_complete = on_complete
            self._last_finish = finish

        # The completion callback rides on the WR (QueuePair routes it
        # directly), skipping the CQ-router dict round-trip on the
        # hottest per-op path in the simulator.
        return WorkRequest(
            opcode=OpType.READ,
            size=layout.slot_size,
            remote_addr=layout.slot_addr(key),
            rkey=self.data_rkey,
            touch_memory=touch_memory,
            span=span,
            on_completion=finish,
        )

    def put_onesided(
        self,
        key: int,
        payload: Optional[bytes],
        on_complete: IOCallback,
        touch_memory: bool = True,
        span=None,
        sample: bool = True,
    ) -> int:
        """Overwrite the record for ``key`` with a single RDMA WRITE.

        With ``touch_memory=False`` the write is timing-only and
        ``payload`` may be None.
        """
        layout = self._require_layout()
        data = None
        if touch_memory:
            if payload is None:
                raise StoreError("put_onesided with touch_memory requires a payload")
            data = encode_record(key, version=0, payload=payload)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("onesided_write", self.name, key)
        wr = WorkRequest(
            opcode=OpType.WRITE,
            size=layout.slot_size,
            remote_addr=layout.slot_addr(key),
            rkey=self.data_rkey,
            payload=data,
            touch_memory=touch_memory,
            span=span,
            on_completion=lambda wc: on_complete(
                wc.ok, wc.error if not wc.ok else None, wc.latency
            ),
        )
        return self.qp.post_send(wr)

    # ------------------------------------------------------------------
    # Two-sided path
    # ------------------------------------------------------------------
    # Request SENDs (and the connect handshake's) are posted unsignaled:
    # the response, or the deadline sweep, ends the op, so a successful
    # SEND's completion would only reach the router as unclaimed.  A
    # failed SEND still completes with an error.
    def get_twosided(self, key: int, on_complete: IOCallback,
                     span=None, sample: bool = True) -> int:
        """Fetch the record for ``key`` via a server-CPU RPC."""
        req_id = next(self._req_ids)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("twosided_get", self.name, key)
        self._track_rpc(req_id, on_complete, span)
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=protocol.GetRequest(req_id=req_id, key=key, span=span),
            size=protocol.GET_REQUEST_SIZE,
            span=span,
            signaled=False,
        )
        self.qp.post_send(wr)
        return req_id

    def put_twosided(
        self,
        key: int,
        payload: bytes,
        on_complete: IOCallback,
        client_version: int = 0,
        span=None,
        sample: bool = True,
    ) -> int:
        """Store ``payload`` under ``key`` via a server-CPU RPC.

        A ``client_version`` > 0 makes the request idempotent
        server-side, so a retry after a timeout cannot double-apply.
        """
        req_id = next(self._req_ids)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("twosided_put", self.name, key)
        self._track_rpc(req_id, on_complete, span)
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=protocol.PutRequest(
                req_id=req_id, key=key, payload=payload,
                client_id=self.name, client_version=client_version,
                span=span,
            ),
            size=protocol.PUT_REQUEST_HEADER_SIZE + len(payload),
            span=span,
            signaled=False,
        )
        self.qp.post_send(wr)
        return req_id

    @property
    def pending_rpc_count(self) -> int:
        """Two-sided requests still waiting for a response."""
        return len(self._pending_rpcs)

    def _track_rpc(self, req_id: int, on_complete: IOCallback,
                   span=None) -> None:
        self._pending_rpcs[req_id] = (on_complete, self.sim.now, span)
        if self.rpc_deadline is not None:
            self.sim.schedule(self.rpc_deadline, self._sweep_rpc, req_id)

    def _sweep_rpc(self, req_id: int) -> None:
        """Fail an RPC whose response never arrived (deadline passed)."""
        entry = self._pending_rpcs.pop(req_id, None)
        if entry is None:
            return  # the response made it in time
        callback, posted_at, span = entry
        if span is not None:
            span.finish(self.sim.now, ok=False, error="rpc deadline exceeded")
        self.rpcs_timed_out += 1
        callback(False, "rpc deadline exceeded", self.sim.now - posted_at)

    def _on_get_response(self, msg: protocol.GetResponse, _reply_qp) -> None:
        entry = self._pending_rpcs.pop(msg.req_id, None)
        if entry is None:
            return
        callback, posted_at, span = entry
        if span is not None:
            span.finish(self.sim.now, ok=True)
        callback(True, (msg.version, msg.payload), self.sim.now - posted_at)

    def _on_put_response(self, msg: protocol.PutResponse, _reply_qp) -> None:
        entry = self._pending_rpcs.pop(msg.req_id, None)
        if entry is None:
            return
        callback, posted_at, span = entry
        if span is not None:
            span.finish(self.sim.now, ok=True)
        callback(True, msg.version, self.sim.now - posted_at)
