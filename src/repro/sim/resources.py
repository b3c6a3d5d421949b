"""Shared-resource primitives for the DES kernel.

Three primitives cover everything the RDMA model needs:

- :class:`Pipeline` — a serial FIFO server with O(1) bookkeeping
  ("next-free-time" model).  This is how NIC issue/processing stages and
  the server CPU are modelled: submitting work of cost ``c`` at time ``t``
  completes at ``max(t, free) + c``.
- :class:`Semaphore` — a counting semaphore with event-based acquire,
  used for bounded outstanding work requests on a queue pair.
- :class:`TokenBucket` — a continuous-refill rate limiter evaluated in
  *virtual* time, used for the fabric model's per-verb posting buckets
  and anywhere else a deterministic "earliest time n tokens exist"
  answer is needed without simulator events.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.events import Event


class Pipeline:
    """A serial FIFO work server with O(1) next-free-time accounting.

    ``submit(cost)`` reserves the next slot on the pipeline and returns
    the absolute completion time; the caller schedules its own completion
    callback.  Because the pipeline is serial and FIFO, this arithmetic
    model is exactly equivalent to an event-driven single server, at a
    fraction of the event count.

    Busy time is tracked so utilization can be reported.
    """

    __slots__ = ("sim", "name", "_free_at", "_busy")

    def __init__(self, sim: "Simulator", name: str = "pipeline"):  # noqa: F821
        self.sim = sim
        self.name = name
        self._free_at = 0.0
        self._busy = 0.0

    def submit(self, cost: float) -> float:
        """Enqueue work of ``cost`` seconds; return absolute finish time."""
        if cost < 0:
            raise ValueError(f"negative service cost: {cost}")
        now = self.sim.now
        start = self._free_at if self._free_at > now else now
        finish = start + cost
        self._free_at = finish
        self._busy += cost
        return finish

    def submit_at(self, at: float, cost: float) -> float:
        """Enqueue work that *arrives* at virtual time ``at``.

        Like :meth:`submit`, but the work cannot start before ``at``
        even if the pipeline is free earlier — the fabric model uses
        this to chain stages whose hand-off times live in the future
        (host posting finishes at ``at``; the NIC picks the WR up
        then).  ``at`` may be in the past relative to ``sim.now``; the
        pipeline's own free time still serializes correctly.
        """
        if cost < 0:
            raise ValueError(f"negative service cost: {cost}")
        start = self._free_at if self._free_at > at else at
        finish = start + cost
        self._free_at = finish
        self._busy += cost
        return finish

    @property
    def backlog(self) -> float:
        """Seconds of queued-but-unfinished work."""
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of [since, now] the pipeline spent busy (approximate:
        counts all submitted work, including the not-yet-finished tail)."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy / elapsed)

    def reset_accounting(self) -> None:
        """Zero the busy-time counter (start of a measurement window)."""
        self._busy = 0.0


class Semaphore:
    """Counting semaphore with FIFO event-based acquire."""

    __slots__ = ("sim", "capacity", "_available", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int):  # noqa: F821
        if capacity < 1:
            raise ValueError(f"semaphore capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Number of currently free slots."""
        return self._available

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self.capacity - self._available

    def acquire(self) -> Event:
        """An event that succeeds once a slot is held by the caller."""
        ev = Event(self.sim)
        if self._available > 0:
            self._available -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot; wakes the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            if self._available >= self.capacity:
                raise RuntimeError("semaphore released more times than acquired")
            self._available += 1


class TokenBucket:
    """A continuous-refill token bucket evaluated in virtual time.

    ``acquire(n, at)`` answers "at what absolute time do ``n`` tokens
    exist, assuming the request is made at time ``at``?" and deducts
    them.  The bucket refills at ``rate`` tokens/second up to ``burst``;
    when the balance is short, the returned time is pushed out by the
    deficit divided by the rate.  Pure arithmetic — no simulator events,
    no RNG — so it composes with the Pipeline's next-free-time model and
    stays bit-deterministic.

    Calls must be made with non-decreasing ``at`` per bucket (the
    fabric's per-QP posting timeline guarantees this); a stale ``at``
    simply refills nothing.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        if burst <= 0:
            raise ValueError(f"token burst must be positive, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = 0.0

    def acquire(self, n: float, at: float) -> float:
        """Deduct ``n`` tokens; return the absolute time they exist."""
        if at > self.stamp:
            refilled = self.tokens + (at - self.stamp) * self.rate
            self.tokens = refilled if refilled < self.burst else self.burst
            self.stamp = at
        if self.tokens >= n:
            self.tokens -= n
            return at
        # Deficit: the missing tokens accrue from the bucket's own
        # timeline (``stamp``), not the caller's ``at`` — successive
        # under-funded acquires therefore serialize at exactly ``rate``
        # instead of each paying a flat one-token latency.
        wait = (n - self.tokens) / self.rate
        self.tokens = 0.0
        ready = self.stamp + wait
        self.stamp = ready
        return ready
