"""Discrete-event simulation kernel.

A small, fast, from-scratch DES engine in the style of simpy:

- :class:`~repro.sim.core.Simulator` — binary-heap event loop with
  deterministic FIFO tie-breaking for simultaneous events.
- :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout` —
  one-shot waitables.
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes.
- :mod:`~repro.sim.resources` — semaphores, token buckets, and the O(1)
  "next-free-time" :class:`~repro.sim.resources.Pipeline` used to model
  NIC and CPU service stages.
- :mod:`~repro.sim.stats` — counters and latency reservoirs.

Everything under ``src/`` schedules plain self-rescheduling callbacks
(``sim.schedule``) — no generator resumption per event — so that
multi-million-event runs stay tractable in pure Python; no production
code spawns a :class:`~repro.sim.process.Process`.
"""

from repro.sim.core import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Pipeline, Semaphore, TokenBucket
from repro.sim.stats import Counter, LatencyHistogram, LatencyReservoir

__all__ = [
    "Counter",
    "Event",
    "LatencyHistogram",
    "LatencyReservoir",
    "Pipeline",
    "Process",
    "Semaphore",
    "Simulator",
    "Timeout",
    "TokenBucket",
]
