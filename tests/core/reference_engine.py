"""The eager token-decay engine, kept as the oracle for the lazy one.

This is ``QoSEngine``'s token management as it was before the decay
steps came off the simulator heap: a self-rescheduling timer
(``start -> arm -> tick``) that calls ``ClientTokenState.decay`` once
per ``mgmt_interval``.  The lazy replay is switched off by leaving
``_next_tick_at`` at "never", so the timer is the only thing that
decays.  ``test_lazy_decay.py`` requires the two to agree exactly — the
same token fields at every observation, the same reported words.
"""

from __future__ import annotations

from unittest import mock

from repro.core.engine import QoSEngine


class EagerDecayEngine(QoSEngine):
    """``QoSEngine`` with one heap event per management tick."""

    _eager_started = False

    def _mgmt_start(self) -> None:
        if not self._eager_started:
            self._eager_started = True
            self.sim.schedule(0.0, self._eager_arm)

    def _eager_arm(self) -> None:
        self.sim.schedule(self.config.mgmt_interval, self._eager_tick)

    def _eager_tick(self) -> None:
        interval = self.config.mgmt_interval
        self._tokens.decay(interval)
        self.sim.schedule(interval, self._eager_tick)


def eager_engines():
    """Context manager: clusters built inside get eager-decay engines."""
    return mock.patch("repro.cluster.builder.QoSEngine", EagerDecayEngine)
