"""Adaptive capacity estimation (the paper's Algorithm 1).

Each QoS period the monitor sums the clients' reported completed-I/O
counts ``U``:

- ``U`` at the current estimate (allocated tokens were all consumed):
  the capacity may be *under*-estimated, so add an increment ``eta``.
- ``Omega_min <= U < Omega``: the system had spare tokens; record U in
  a sliding window of the last M such periods and use the window mean.
- ``U < Omega_min = Omega_prof - 3*sigma``: a low-demand period —
  ignore it so idleness cannot crater the estimate.

Exact equality never holds with real counters, so "==" is implemented
as ``U >= (1 - saturation_tolerance) * Omega``.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, List

from repro.common.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class ProfiledCapacity:
    """Result of offline profiling: mean and std-dev, in tokens/period."""

    mean: float
    stddev: float

    @property
    def lower_bound(self) -> float:
        """The Algorithm-1 floor ``Omega_prof - 3*sigma``."""
        return self.mean - 3.0 * self.stddev


class AdaptiveCapacityEstimator:
    """Algorithm 1, with full decision telemetry for the benches."""

    def __init__(
        self,
        profiled: ProfiledCapacity,
        eta: int,
        history_window: int,
        saturation_tolerance: float = 0.01,
    ):
        if profiled.mean <= 0:
            raise ConfigError(f"profiled capacity must be positive: {profiled}")
        if history_window < 1:
            raise ConfigError(f"history_window must be >= 1, got {history_window}")
        if not 0 <= saturation_tolerance < 1:
            raise ConfigError(
                f"saturation_tolerance must be in [0, 1), got {saturation_tolerance}"
            )
        self.profiled = profiled
        self.eta = eta
        self.tolerance = saturation_tolerance
        self._window: Deque[float] = deque(maxlen=history_window)
        self._current = float(profiled.mean)
        self.history: List[float] = [self._current]
        self.decisions: List[str] = []

    @classmethod
    def from_config(cls, profiled: ProfiledCapacity, config):
        """Algorithm 1 with a :class:`HaechiConfig`'s tunables."""
        return cls(profiled, config.eta, config.history_window,
                   config.saturation_tolerance)

    @property
    def current(self) -> int:
        """The capacity estimate for the upcoming period (tokens)."""
        return int(round(self._current))

    @property
    def lower_bound(self) -> float:
        """``Omega_prof - 3*sigma``."""
        return self.profiled.lower_bound

    def update(self, completed_total: int) -> int:
        """Feed one period's total completions U; returns the new estimate."""
        if completed_total < 0:
            raise ConfigError(f"completions must be >= 0, got {completed_total}")
        omega = self._current
        if completed_total >= omega * (1.0 - self.tolerance):
            # All allocated tokens were consumed: possible underestimate.
            self._current = omega + self.eta
            self.decisions.append("increment")
        elif completed_total >= self.lower_bound:
            self._window.append(float(completed_total))
            self._current = sum(self._window) / len(self._window)
            self.decisions.append("window")
        else:
            self.decisions.append("floor")
        self.history.append(self._current)
        return self.current


def profile_capacity(samples) -> ProfiledCapacity:
    """Summarize per-period saturated-throughput samples into a profile.

    The paper profiles by driving continuous back-to-back 4 KB one-sided
    I/Os from 10 clients for one period, repeated 1000 times; the
    cluster harness (:func:`repro.cluster.profiling.run_profiling`)
    produces the samples and this function reduces them.
    """
    values = [float(s) for s in samples]
    if not values:
        raise ConfigError("profiling requires at least one sample")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return ProfiledCapacity(mean=mean, stddev=var**0.5)
