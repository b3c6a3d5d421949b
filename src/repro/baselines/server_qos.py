"""A traditional server-centric QoS scheduler for the two-sided path.

Interposes between the data node's RPC dispatcher and its CPU: every
incoming request is queued per client, and a dispatch loop feeds the
CPU one request at a time, choosing

1. round-robin among clients that still hold reservation tokens for the
   current QoS period, then
2. round-robin among the rest (best-effort) — which makes the scheduler
   work-conserving.

Tokens are replenished every period from the configured reservations,
exactly mirroring Haechi's per-period contract, but enforced entirely
at the server — possible here *only* because two-sided requests pass
through the server CPU.  This is the design point of classic systems
like bQueue and mClock that Sec. IV discusses.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.common.errors import ConfigError, QoSError
from repro.common.types import OpType
from repro.kvstore import protocol
from repro.kvstore.records import SLOT_SIZE
from repro.kvstore.server import DataNode
from repro.rdma.verbs import WorkRequest


class _ClientQueue:
    """Per-client FIFO plus this period's remaining reservation tokens."""

    __slots__ = ("reservation", "tokens", "queue", "served")

    def __init__(self, reservation: int):
        self.reservation = reservation
        self.tokens = 0
        self.queue: Deque[Tuple[object, object]] = deque()
        self.served = 0


class ServerQoSScheduler:
    """Reservation-aware request scheduling at the data node CPU.

    Wraps an existing :class:`DataNode`: its GET/PUT handlers are
    re-registered to enqueue into the scheduler instead of hitting the
    CPU directly.  Clients are identified by their host name (the reply
    QP's destination), the natural identity a server-side scheduler
    has for a connection.
    """

    def __init__(self, data_node: DataNode, period: float):
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period}")
        self.data_node = data_node
        self.sim = data_node.sim
        self.period = period
        self._clients: Dict[str, _ClientQueue] = {}
        self._reserved_rr: Deque[str] = deque()
        self._effort_rr: Deque[str] = deque()
        self._dispatching = False
        self._started = False
        self.total_served = 0

        # take over the data node's request handling
        dispatcher = data_node.dispatcher
        dispatcher._handlers[protocol.GetRequest] = self._enqueue
        dispatcher._handlers[protocol.PutRequest] = self._enqueue

    # ------------------------------------------------------------------
    def add_client(self, host_name: str, reservation_tokens: int) -> None:
        """Register a client's per-period reservation (tokens = I/Os)."""
        if host_name in self._clients:
            raise QoSError(f"client {host_name!r} already registered")
        if reservation_tokens < 0:
            raise QoSError(f"reservation must be >= 0, got {reservation_tokens}")
        self._clients[host_name] = _ClientQueue(reservation_tokens)

    def start(self) -> None:
        """Begin QoS periods (token replenishment)."""
        if self._started:
            raise QoSError("scheduler already started")
        self._started = True
        self._begin_period()

    def _begin_period(self) -> None:
        for state in self._clients.values():
            state.tokens = state.reservation
        self.sim.schedule(self.period, self._begin_period)
        self._dispatch()

    # ------------------------------------------------------------------
    def _enqueue(self, msg, reply_qp) -> None:
        name = reply_qp.dst.name
        state = self._clients.get(name)
        if state is None:
            # unregistered clients get best-effort-only treatment
            state = _ClientQueue(reservation=0)
            self._clients[name] = state
        state.queue.append((msg, reply_qp))
        self._dispatch()

    def _pick(self) -> Optional[str]:
        """Next client to serve: reserved first, then best-effort."""
        # refresh the round-robin rings lazily (clients can be added late)
        candidates = [
            name for name, state in self._clients.items()
            if state.queue and state.tokens > 0
        ]
        if candidates:
            ring = self._reserved_rr
        else:
            candidates = [
                name for name, state in self._clients.items() if state.queue
            ]
            ring = self._effort_rr
        if not candidates:
            return None
        # rotate the ring until we hit a candidate, appending unseen names
        for name in candidates:
            if name not in ring:
                ring.append(name)
        while True:
            name = ring[0]
            ring.rotate(-1)
            if name in candidates:
                return name

    def _dispatch(self) -> None:
        if self._dispatching:
            return
        name = self._pick()
        if name is None:
            return
        state = self._clients[name]
        msg, reply_qp = state.queue.popleft()
        if state.tokens > 0:
            state.tokens -= 1
        state.served += 1
        self.total_served += 1
        self._dispatching = True

        response, size = self._serve(msg)
        done = self.data_node.host.cpu.submit_rpc(size)
        self.sim.schedule_at(done, self._complete, response, size, reply_qp)

    def _complete(self, response, size, reply_qp) -> None:
        reply_qp.post_send(
            WorkRequest(opcode=OpType.SEND, payload=response, size=size,
                        is_response=True, signaled=False)  # no CQ reader
        )
        self._dispatching = False
        self._dispatch()

    def _serve(self, msg) -> Tuple[object, int]:
        store = self.data_node.store
        if isinstance(msg, protocol.GetRequest):
            if store.materialized:
                version, payload = store.get_local(msg.key)
            else:
                version, payload = 0, b""
            return (
                protocol.GetResponse(req_id=msg.req_id, key=msg.key,
                                     version=version, payload=payload),
                SLOT_SIZE,
            )
        if isinstance(msg, protocol.PutRequest):
            version = store.put_local(msg.key, msg.payload) if store.materialized else 0
            return (
                protocol.PutResponse(req_id=msg.req_id, key=msg.key,
                                     version=version),
                protocol.RESPONSE_HEADER_SIZE,
            )
        raise QoSError(f"unschedulable message {type(msg).__name__}")
