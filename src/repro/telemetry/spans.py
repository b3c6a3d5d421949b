"""Causal per-op spans: the timing skeleton of one operation.

A :class:`Span` is created when an operation enters the system (engine
submit, or a bare KV call) and carries an ordered list of *marks* —
``(stage_name, timestamp)`` pairs recorded as the op crosses each
layer boundary: engine queue exit, NIC issue-pipeline exit, fabric
arrival, target-pipeline exit, server-CPU completion (two-sided), and
the return trip.  Stage *segments* are derived from consecutive marks,
so the segments partition ``[start, end]`` with no gaps or overlaps by
construction: the decomposition is exact, including any injected fault
delay (which lands inside the segment it physically delayed).

Spans are plain mutable objects shared by reference across the whole
datapath (work request, protocol message, pending-RPC table), so the
client, fabric, and server all annotate the *same* timeline — there is
no context propagation to get wrong.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class Span:
    """One operation's timeline (see module docstring).

    ``finish`` is idempotent: whichever end of the datapath observes
    the terminal event first (completion, transport failure, RPC
    deadline sweep) wins, and later marks are ignored so the recorded
    segments always partition ``[start, end]`` exactly.
    """

    __slots__ = ("span_id", "kind", "client", "key", "control",
                 "start", "end", "ok", "error", "marks")

    def __init__(self, span_id: int, kind: str, client: str, start: float,
                 key: Optional[int] = None, control: bool = False):
        self.span_id = span_id
        self.kind = kind
        self.client = client
        self.key = key
        self.control = control
        self.start = start
        self.end: Optional[float] = None
        self.ok: Optional[bool] = None
        self.error: Optional[str] = None
        self.marks: List[Tuple[str, float]] = []

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def latency(self) -> float:
        """End-to-end latency; only meaningful once finished."""
        return (self.end or self.start) - self.start

    def mark(self, stage: str, time: float) -> None:
        """Record the boundary that *ends* the ``stage`` segment.

        Marks may carry a timestamp in the span's near future (e.g. a
        pipeline's computed drain time); they must be recorded in
        non-decreasing timestamp order.  Marks after ``finish`` are
        dropped (late completions of an already-failed op).
        """
        if self.end is not None:
            return
        self.marks.append((stage, time))

    def finish(self, time: float, ok: bool = True,
               error: Optional[str] = None) -> None:
        """Close the span; the first call wins (idempotent)."""
        if self.end is not None:
            return
        self.end = time
        self.ok = ok
        self.error = error

    # ------------------------------------------------------------------
    def segments(self) -> List[Tuple[str, float, float]]:
        """The stage partition: ``(stage, seg_start, seg_end)`` triples.

        Adjacent by construction — ``segments[i].end ==
        segments[i+1].start`` — starting at ``span.start``.  If the
        final mark predates ``end`` (an op that died between stages) a
        trailing ``"tail"`` segment closes the partition.
        """
        out: List[Tuple[str, float, float]] = []
        prev = self.start
        for stage, time in self.marks:
            out.append((stage, prev, time))
            prev = time
        if self.end is not None and self.end > prev:
            out.append(("tail", prev, self.end))
        return out

    def stage_durations(self) -> List[Tuple[str, float]]:
        """``(stage, duration)`` pairs derived from :meth:`segments`."""
        return [(stage, t1 - t0) for stage, t0, t1 in self.segments()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else ("ok" if self.ok else "fail")
        return (f"Span({self.span_id}, {self.kind}, {self.client}, "
                f"{state}, marks={len(self.marks)})")


class BoundedStore:
    """A bounded collection with drop accounting: when ``bound`` is
    reached the oldest half is dropped and counted, so a truncated
    collection is never mistaken for a complete one."""

    def __init__(self, bound: int, name: str):
        if bound < 2:
            raise ValueError(f"{name} must be >= 2, got {bound}")
        self.bound = bound
        self.items: list = []
        self.dropped = 0

    def _keep(self, item) -> None:
        items = self.items
        if len(items) >= self.bound:
            drop = len(items) // 2
            del items[:drop]
            self.dropped += drop
        items.append(item)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class SpanStore(BoundedStore):
    """The hub's spans, bounded by ``max_spans``."""

    def __init__(self, max_spans: int = 100_000):
        super().__init__(max_spans, "max_spans")
        self.started = 0

    @property
    def spans(self) -> List[Span]:
        return self.items

    def add(self, span: Span) -> None:
        self.started += 1
        self._keep(span)

    def finished(self, kind: Optional[str] = None,
                 ok: Optional[bool] = None) -> List[Span]:
        """Finished spans, optionally filtered by kind and verdict."""
        return [
            s for s in self.spans
            if s.finished
            and (kind is None or s.kind == kind)
            and (ok is None or s.ok == ok)
        ]

    def export(self) -> dict:
        """Collection state for exporters; flags truncation explicitly."""
        return {
            "started": self.started,
            "recorded": len(self.spans),
            "dropped": self.dropped,
            "complete": self.dropped == 0,
            "unfinished": sum(1 for s in self.spans if not s.finished),
        }
