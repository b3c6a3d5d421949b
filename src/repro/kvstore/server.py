"""The data node: hosts the store and serves the two-sided RPC path."""

from __future__ import annotations

import itertools
from typing import Dict

from repro.common.errors import QPError
from repro.kvstore import protocol
from repro.kvstore.records import SLOT_SIZE
from repro.kvstore.store import KVStore
from repro.rdma.dispatch import TypeDispatcher
from repro.rdma.node import Host
from repro.rdma.verbs import WorkRequest
from repro.common.types import OpType


class _PendingReplication:
    """One PUT awaiting the replica's ack before the client is answered."""

    __slots__ = ("reply_qp", "response", "message", "attempts", "size",
                 "span")

    def __init__(self, reply_qp, response, message, size, span=None):
        self.reply_qp = reply_qp
        self.response = response
        self.message = message
        self.attempts = 0
        self.size = size
        self.span = span


class DataNode:
    """The storage server.

    One-sided GET/PUT traffic never reaches this class at runtime —
    clients hit the registered store region directly.  The class serves
    the two-sided path (GET/PUT RPCs through the host CPU) and the
    connection handshake that hands out the store layout.

    With a replica attached (:meth:`set_replica`) the two-sided PUT path
    is *semi-synchronous*: the primary applies locally, forwards a
    :class:`~repro.kvstore.protocol.ReplicatePut` to the standby, and
    acks the client only once the replica's ack arrives — so an
    acknowledged PUT survives the primary's crash.  Forwards that miss
    their deadline are retried; after ``replication_attempts`` misses
    the PUT is acked locally (degraded durability, counted) rather than
    blocking the client forever.
    """

    def __init__(self, host: Host, num_slots: int, materialize: bool = False):
        self.host = host
        self.sim = host.sim
        self.store = KVStore(host.memory, num_slots, materialize=materialize)
        self.dispatcher = TypeDispatcher()
        self.dispatcher.register(protocol.GetRequest, self._on_get)
        self.dispatcher.register(protocol.PutRequest, self._on_put)
        self.dispatcher.register(protocol.ConnectRequest, self._on_connect)
        self.dispatcher.register(protocol.ReplicatePut, self._on_replicate_put)
        self.dispatcher.register(protocol.ReplicateAck, self._on_replicate_ack)
        host.set_rpc_handler(self.dispatcher)

        # replication state (inactive until set_replica)
        self.replica_qp = None
        self._replication_deadline = 0.0
        self._replication_attempts = 3
        self._rep_ids = itertools.count(1)
        self._pending_replications: Dict[int, _PendingReplication] = {}
        # telemetry
        self.replicated_puts = 0
        self.replication_retries = 0
        self.degraded_acks = 0
        self.replica_applies = 0
        # QPError swallows: posts the deadline machinery knowingly
        # absorbs.  Counted so a real defect (every post failing) is
        # visible in the metrics instead of silently degrading.
        self.forward_post_qp_errors = 0
        self.reply_post_qp_errors = 0

    # ------------------------------------------------------------------
    def set_replica(
        self,
        qp,
        ack_deadline: float,
        attempts: int = 3,
    ) -> None:
        """Forward every two-sided PUT over ``qp`` to a warm standby.

        ``ack_deadline`` is how long a forward may go unacknowledged
        before it is retried; after ``attempts`` misses the client is
        acked on local durability alone.
        """
        if ack_deadline <= 0:
            raise QPError(f"ack_deadline must be positive, got {ack_deadline}")
        if attempts < 1:
            raise QPError(f"attempts must be >= 1, got {attempts}")
        self.replica_qp = qp
        self._replication_deadline = ack_deadline
        self._replication_attempts = attempts

    # ------------------------------------------------------------------
    def _on_connect(self, msg: protocol.ConnectRequest, reply_qp) -> None:
        layout = self.store.layout
        response = protocol.ConnectResponse(
            data_rkey=self.store.region.rkey,
            base_addr=layout.base_addr,
            num_slots=layout.num_slots,
            slot_size=layout.slot_size,
        )
        self._reply(reply_qp, response, size=protocol.RESPONSE_HEADER_SIZE, cpu=False)

    def _on_get(self, msg: protocol.GetRequest, reply_qp) -> None:
        if self.store.materialized:
            version, payload = self.store.get_local(msg.key)
        else:
            version, payload = 0, b""
        response = protocol.GetResponse(
            req_id=msg.req_id, key=msg.key, version=version, payload=payload
        )
        self._reply(reply_qp, response, size=SLOT_SIZE, span=msg.span)

    def _on_put(self, msg: protocol.PutRequest, reply_qp) -> None:
        version = self._apply_put(msg.client_id, msg.key, msg.payload,
                                  msg.client_version)
        response = protocol.PutResponse(req_id=msg.req_id, key=msg.key, version=version)
        if self.replica_qp is None:
            self._reply(reply_qp, response, size=protocol.RESPONSE_HEADER_SIZE,
                        span=msg.span)
            return
        # Semi-sync replication: hold the client's ack until the replica
        # confirms.  Replays re-forward too (idempotent on the replica),
        # which heals a lost ReplicatePut or ReplicateAck.
        rep_id = next(self._rep_ids)
        forward = protocol.ReplicatePut(
            rep_id=rep_id, key=msg.key, payload=msg.payload,
            client_id=msg.client_id, client_version=msg.client_version,
        )
        self._pending_replications[rep_id] = _PendingReplication(
            reply_qp, response,
            forward, protocol.PUT_REQUEST_HEADER_SIZE + len(msg.payload),
            span=msg.span,
        )
        self._forward(rep_id)

    def _apply_put(self, client_id: str, key: int, payload: bytes,
                   client_version: int) -> int:
        if client_version > 0:
            version, _applied = self.store.put_versioned(
                client_id, key, payload, client_version
            )
            return version
        if self.store.materialized:
            return self.store.put_local(key, payload)
        return 0

    # ------------------------------------------------------------------
    # Replication (primary side)
    # ------------------------------------------------------------------
    def _forward(self, rep_id: int) -> None:
        entry = self._pending_replications.get(rep_id)
        if entry is None:
            return
        entry.attempts += 1
        wr = WorkRequest(
            opcode=OpType.SEND, payload=entry.message, size=entry.size,
            is_response=True, signaled=False,  # see _reply
        )
        try:
            self.replica_qp.post_send(wr)
        except QPError:
            # Only QPError is recoverable here: the deadline check below
            # retries the forward or degrades to a local ack.  Anything
            # else is a programming error and must propagate.
            self.forward_post_qp_errors += 1
        self.sim.schedule(self._replication_deadline,
                          self._replication_deadline_check, rep_id,
                          entry.attempts)

    def _replication_deadline_check(self, rep_id: int, attempt: int) -> None:
        entry = self._pending_replications.get(rep_id)
        if entry is None or entry.attempts != attempt:
            return  # acked, or a newer attempt owns the deadline
        if entry.attempts >= self._replication_attempts:
            # The standby is unreachable: ack on local durability so the
            # client is not wedged behind a dead replica.
            del self._pending_replications[rep_id]
            self.degraded_acks += 1
            self._reply(entry.reply_qp, entry.response,
                        size=protocol.RESPONSE_HEADER_SIZE, span=entry.span)
            return
        self.replication_retries += 1
        self._forward(rep_id)

    def _on_replicate_ack(self, msg: protocol.ReplicateAck, _reply_qp) -> None:
        entry = self._pending_replications.pop(msg.rep_id, None)
        if entry is None:
            return  # already degraded-acked, or a duplicate ack
        self.replicated_puts += 1
        self._reply(entry.reply_qp, entry.response,
                    size=protocol.RESPONSE_HEADER_SIZE, span=entry.span)

    # ------------------------------------------------------------------
    # Replication (replica side)
    # ------------------------------------------------------------------
    def _on_replicate_put(self, msg: protocol.ReplicatePut, reply_qp) -> None:
        version = self._apply_put(msg.client_id, msg.key, msg.payload,
                                  msg.client_version)
        self.replica_applies += 1
        ack = protocol.ReplicateAck(rep_id=msg.rep_id, key=msg.key,
                                    version=version)
        self._reply(reply_qp, ack, size=protocol.RESPONSE_HEADER_SIZE)

    # ------------------------------------------------------------------
    def _reply(self, reply_qp, response, size: int, cpu: bool = True,
               span=None) -> None:
        """Serve the request on the CPU, then post the response SEND."""
        wr = WorkRequest(
            opcode=OpType.SEND, payload=response, size=size, is_response=True,
            span=span, signaled=False,  # the node's CQs have no reader
        )
        if cpu:
            done = self.host.cpu.submit_rpc(size)
            if span is not None:
                # For a replicated PUT this segment also covers the
                # semi-sync replication wait (apply + forward + ack),
                # which precedes this _reply call.
                span.mark("server_cpu", done)
            self.sim.schedule_at(done, self._post_reply, reply_qp, wr)
        else:
            self._post_reply(reply_qp, wr)

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        return [
            ("server_replicated_puts", lambda: self.replicated_puts),
            ("server_replication_retries", lambda: self.replication_retries),
            ("server_degraded_acks", lambda: self.degraded_acks),
            ("server_replica_applies", lambda: self.replica_applies),
            ("server_pending_replications",
             lambda: len(self._pending_replications)),
            ("server_duplicate_suppressed",
             lambda: self.store.duplicate_suppressed),
            ("server_forward_post_qp_errors",
             lambda: self.forward_post_qp_errors),
            ("server_reply_post_qp_errors",
             lambda: self.reply_post_qp_errors),
        ]

    def _post_reply(self, reply_qp, wr: WorkRequest) -> None:
        try:
            reply_qp.post_send(wr)
        except QPError:
            # Dead connection: the client's per-op RPC deadline sweeps
            # the pending request, so dropping the response is the
            # correct recovery — but never an invisible one.
            self.reply_post_qp_errors += 1
