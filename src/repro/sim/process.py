"""Generator-based cooperative processes.

A :class:`Process` drives a Python generator: the generator ``yield``\\ s
:class:`~repro.sim.events.Event` objects and is resumed with the event's
value when it triggers.  A process is itself an event that succeeds with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event


class Process(Event):
    """A running cooperative process (also a waitable event).

    Created through :meth:`repro.sim.core.Simulator.process`.  The first
    resumption happens via an immediately-scheduled callback, so a process
    never runs synchronously inside its spawner.
    """

    __slots__ = ("_gen", "alive")

    def __init__(self, sim: "Simulator", gen: Generator):  # noqa: F821
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"process target must be a generator, got {type(gen)!r}")
        self._gen = gen
        self.alive = True
        sim.schedule(0.0, self._resume, None, None)

    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.exception)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.alive = False
            self.fail(err)
            return
        if not isinstance(target, Event):
            self.alive = False
            err = TypeError(f"process yielded non-event {target!r}")
            self.fail(err)
            return
        target.add_callback(self._on_event)
