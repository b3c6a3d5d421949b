"""The simulation event loop.

:class:`Simulator` owns simulated time and a binary heap of scheduled
callbacks.  Entries are ``(time, seq, fn, args)`` tuples; ``seq`` is a
monotone counter so simultaneous events run in schedule order, which makes
every run fully deterministic for a fixed seed.

The loop is the single hottest code in the repository — every NIC
serialization, token decay, and report write passes through it — so it
is written for CPython's benefit: ``now`` is a plain attribute (every
``sim.now`` in the datapath would otherwise pay a property descriptor
call), ``schedule`` pushes inline instead of delegating, and ``run``
binds ``heappop`` and the heap to locals.  None of this changes
behaviour; the boundary contract is pinned by ``tests/sim/test_boundary.py``
and the bit-identity of whole runs by the determinism guard
(``repro.cluster.determinism``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim.events import Event, Timeout
from repro.sim.process import Process


class Simulator:
    """A discrete-event simulator with a callback heap.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "one second in")
        sim.run(until=10.0)

    Time is a float in *seconds*.  ``run(until=t)`` executes every event
    with timestamp <= t and leaves ``now == t``.

    ``now`` is a plain read-only-by-convention attribute: only the
    event loop writes it.
    """

    __slots__ = ("now", "_heap", "_seq", "telemetry", "poll_chains")

    def __init__(self) -> None:
        #: Current simulated time in seconds.  Read freely; written
        #: only by the event loop.
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        # Optional TelemetryHub (see repro.telemetry.hub).  Every
        # component reaches telemetry through its simulator, so the
        # disabled-mode cost at an instrumentation point is one
        # attribute read plus a None check.
        self.telemetry = None
        # QoS engines with a virtual poll chain, in chain-start order
        # (dict keys; see the settling notes in repro.core.engine).
        self.poll_chains: dict = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (time={time}, now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    # ------------------------------------------------------------------
    # Waitable factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator) -> Process:
        """Spawn a cooperative process from generator ``gen``."""
        return Process(self, gen)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback.

        Returns False when the heap is empty.
        """
        if not self._heap:
            return False
        time, _seq, fn, args = heapq.heappop(self._heap)
        self.now = time
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the heap drains or ``until`` is reached.

        With ``until`` set, every event with timestamp <= ``until`` runs
        and ``now`` is advanced to exactly ``until`` afterwards.
        """
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                time, _seq, fn, args = pop(heap)
                self.now = time
                fn(*args)
            return
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        # heap[0][0] is re-read every iteration on purpose: a callback
        # running at t == until may schedule another event at exactly
        # until, and that event belongs to this window (pinned by
        # tests/sim/test_boundary.py).
        while heap and heap[0][0] <= until:
            time, _seq, fn, args = pop(heap)
            self.now = time
            fn(*args)
        self.now = until

    def peek(self) -> Optional[float]:
        """Timestamp of the next scheduled event, or None if idle."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={len(self._heap)})"
