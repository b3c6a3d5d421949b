"""Verbs-style work requests and completion queues."""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.common.types import OpType


class WCStatus(enum.Enum):
    """Completion status codes (subset of ibv_wc_status)."""

    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    FLUSH_ERROR = "flush_error"
    # Receiver-not-ready: the peer had no posted RECV and the RNR retry
    # budget is exhausted (IBV_WC_RNR_RETRY_EXC_ERR).
    RNR_RETRY_EXC_ERROR = "rnr_retry_exc_error"
    # Transport retries exhausted: the op was lost on the wire and never
    # acked (IBV_WC_RETRY_EXC_ERR) — produced by injected drops.
    RETRY_EXC_ERROR = "retry_exc_error"


# Verb classes for the fabric model's per-QP posting buckets, indexed
# by ``OpType.index`` (same dense-index idiom as the NIC cost tables).
# READs, WRITEs (SENDs ride the WRITE/egress-payload class: both move
# payload bytes out of the initiator), and atomics each draw from their
# own bucket, matching the verb-diverse rate limits ConnectX-class NICs
# expose per QP.  RECV posts consume no bucket (None).
VERB_READ, VERB_WRITE, VERB_ATOMIC = 0, 1, 2
VERB_NAMES = ("read", "write", "atomic")
VERB_CLASS_OF_OPCODE = tuple(
    VERB_READ if op is OpType.READ
    else VERB_ATOMIC if op.atomic
    else None if op is OpType.RECV
    else VERB_WRITE
    for op in OpType
)


class WorkRequest:
    """A posted work request.

    One-sided ops carry ``remote_addr``/``rkey``; SENDs carry a
    ``payload`` (any Python object standing in for a wire message) and a
    ``size`` used for service-cost accounting.  ``is_response`` marks a
    SEND as an RPC response, which uses the cheaper hardware-offloaded
    responder path in the NIC cost model (see :class:`NICProfile`).

    A plain ``__slots__`` class rather than a dataclass: one of these
    is allocated per simulated I/O, and the slotted layout measurably
    cuts both allocation time and footprint on the hot path (a
    ``slots=True`` dataclass would read the same but needs 3.10+).
    """

    __slots__ = ("opcode", "wr_id", "size", "remote_addr", "rkey",
                 "payload", "compare", "swap", "add_value", "is_response",
                 "touch_memory", "control", "span", "on_completion",
                 "signaled")

    def __init__(self, opcode: OpType, wr_id: int = 0, size: int = 0,
                 remote_addr: int = 0, rkey: int = 0, payload: Any = None,
                 compare: int = 0, swap: int = 0, add_value: int = 0,
                 is_response: bool = False, touch_memory: bool = True,
                 control: bool = False, span: Any = None,
                 on_completion: Optional[Callable] = None,
                 signaled: bool = True):
        self.opcode = opcode
        self.wr_id = wr_id
        self.size = size
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.payload = payload
        self.compare = compare
        self.swap = swap
        self.add_value = add_value
        # Control-plane ops (atomics, report words, QoS signals) take
        # the NIC's prioritized lane: they pay their service latency but
        # do not queue behind bulk data (see RNIC.submit_issue).
        self.is_response = is_response
        self.touch_memory = touch_memory
        self.control = control
        # Optional telemetry span (repro.telemetry.spans.Span) annotated
        # by the datapath as the WR crosses each stage boundary.
        self.span = span
        # Optional direct completion callback: when set, the QP hands
        # the WorkCompletion straight to it instead of pushing through
        # the CQ (equivalent to a CQ handler that routes by wr_id, minus
        # the per-op dict round-trip; see QueuePair._complete).
        self.on_completion = on_completion
        # IBV_SEND_SIGNALED.  An unsignaled one-sided WR that succeeds
        # produces no CQE: the QP retires it at the target and schedules
        # no completion event (see QueuePair._arrive).  An unsignaled
        # SEND that succeeds retires at its ack, which stays an event,
        # and produces no CQE either (QueuePair._complete).  Failures
        # always complete, as on hardware.
        self.signaled = signaled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkRequest(opcode={self.opcode}, wr_id={self.wr_id}, "
                f"size={self.size}, control={self.control})")


class WorkCompletion:
    """A completion entry delivered to a CQ."""

    __slots__ = ("wr_id", "opcode", "status", "value", "posted_at",
                 "completed_at", "error")

    def __init__(self, wr_id: int, opcode: OpType, status: WCStatus,
                 value: Any = None, posted_at: float = 0.0,
                 completed_at: float = 0.0, error: Optional[str] = None):
        self.wr_id = wr_id
        self.opcode = opcode
        self.status = status
        self.value = value  # READ data / atomic prior value / payload echo
        self.posted_at = posted_at
        self.completed_at = completed_at
        self.error = error

    @property
    def ok(self) -> bool:
        """True for a successful completion."""
        return self.status is WCStatus.SUCCESS

    @property
    def latency(self) -> float:
        """Post-to-completion latency in seconds."""
        return self.completed_at - self.posted_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkCompletion(wr_id={self.wr_id}, opcode={self.opcode}, "
                f"status={self.status})")


class CompletionQueue:
    """Delivers work completions.

    Two consumption styles are supported: a registered handler invoked
    synchronously on arrival (the fast path used by drivers), or polling
    via :meth:`poll` when no handler is set.

    The buffer of a polled CQ is built at its first queued completion:
    every connection owns two CQs, most of which have a handler or never
    see a completion, and an empty deque is 760 B.
    """

    __slots__ = ("name", "_handler", "_queue")

    def __init__(self, name: str = "cq"):
        self.name = name
        self._handler: Optional[Callable[[WorkCompletion], None]] = None
        self._queue: Optional[Deque[WorkCompletion]] = None

    def set_handler(self, handler: Callable[[WorkCompletion], None]) -> None:
        """Route future completions to ``handler``; drains any backlog."""
        self._handler = handler
        queue = self._queue
        self._queue = None
        while queue:
            handler(queue.popleft())

    def push(self, wc: WorkCompletion) -> None:
        """Deliver one completion (called by the NIC model)."""
        if self._handler is not None:
            self._handler(wc)
        elif self._queue is None:
            self._queue = deque((wc,))
        else:
            self._queue.append(wc)

    def poll(self, max_entries: int = 16) -> list:
        """Drain up to ``max_entries`` buffered completions."""
        out = []
        queue = self._queue
        while queue and len(out) < max_entries:
            out.append(queue.popleft())
        return out

    def __len__(self) -> int:
        return 0 if self._queue is None else len(self._queue)
