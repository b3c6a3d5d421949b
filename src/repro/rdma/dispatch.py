"""Message/completion routing helpers shared by clients and servers."""

from __future__ import annotations

from typing import Callable, Dict, Type

from repro.rdma.verbs import CompletionQueue, WorkCompletion


class TypeDispatcher:
    """Routes inbound RPC payloads to handlers by payload type.

    A host has a single RPC entry point; the KV protocol and the Haechi
    control protocol each register the message classes they own.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type, Callable] = {}
        self.unhandled = 0

    def register(self, msg_type: Type, handler: Callable) -> None:
        """Route payloads of ``msg_type`` to ``handler(payload, reply_qp)``."""
        if msg_type in self._handlers:
            raise ValueError(f"handler for {msg_type.__name__} already registered")
        self._handlers[msg_type] = handler

    def __call__(self, payload: object, reply_qp) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            self.unhandled += 1
            return
        handler(payload, reply_qp)


class ConnectionDispatcher:
    """Routes inbound RPCs by *connection* before dispatching by type.

    A host talking to several peers (e.g. a client striped across
    multiple data nodes) receives messages of the same type from each;
    this router keys on the reply QP — which identifies the connection
    — and hands the payload to that connection's own
    :class:`TypeDispatcher`.
    """

    def __init__(self) -> None:
        self._by_qp: Dict[int, TypeDispatcher] = {}
        self.unrouted = 0

    def register_connection(self, qp) -> TypeDispatcher:
        """A fresh per-connection dispatcher for messages arriving on
        ``qp`` (the local end of the connection)."""
        key = id(qp)
        if key in self._by_qp:
            raise ValueError("connection already registered")
        dispatcher = TypeDispatcher()
        self._by_qp[key] = dispatcher
        return dispatcher

    def __call__(self, payload: object, reply_qp) -> None:
        dispatcher = self._by_qp.get(id(reply_qp))
        if dispatcher is None:
            self.unrouted += 1
            return
        dispatcher(payload, reply_qp)


class CompletionRouter:
    """Routes work completions to per-WR callbacks by wr_id.

    Attach to a CQ once; every posted WR registers its completion
    callback under its wr_id.  Unclaimed completions are counted (a
    fire-and-forget WRITE may legitimately not register one).
    """

    def __init__(self, cq: CompletionQueue):
        self._callbacks: Dict[int, Callable[[WorkCompletion], None]] = {}
        self.unclaimed = 0
        cq.set_handler(self._on_completion)

    def expect(self, wr_id: int, callback: Callable[[WorkCompletion], None]) -> None:
        """Register ``callback`` for the completion of ``wr_id``."""
        if wr_id in self._callbacks:
            raise ValueError(f"wr_id {wr_id} already has a pending callback")
        self._callbacks[wr_id] = callback

    def _on_completion(self, wc: WorkCompletion) -> None:
        callback = self._callbacks.pop(wc.wr_id, None)
        if callback is None:
            self.unclaimed += 1
            return
        callback(wc)
