"""Client application drivers.

An app turns a per-period demand into actual submissions against either
a bare :class:`~repro.kvstore.client.KVClient` or a
:class:`~repro.core.engine.QoSEngine` — both expose the same
``submit(key, on_complete)`` shape via :func:`bare_submitter` /
:func:`engine_submitter`.

Demand is a function of the period index so experiments can model
insufficient demand (Experiment 2B) or demand that switches mid-run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ConfigError
from repro.workloads.patterns import BURST_WINDOW

# submit(key, on_complete) where on_complete(ok, value, latency)
Submitter = Callable[[int, Callable], None]
DemandFn = Callable[[int], int]
KeyFn = Callable[[], int]
CompletionHook = Callable[[bool, float], None]


def bare_submitter(kv, touch_memory: bool = False) -> Submitter:
    """Submit one-sided reads directly (no QoS)."""
    return lambda key, cb: kv.get_onesided(key, cb, touch_memory=touch_memory)


def engine_submitter(engine) -> Submitter:
    """Submit through a Haechi QoS engine."""
    return engine.submit


def constant_demand(value: int) -> DemandFn:
    """The same demand every period."""
    return lambda period_index: value


class _AppBase:
    """Shared bookkeeping: period boundaries, counters, completion hook."""

    def __init__(
        self,
        sim,
        name: str,
        submit: Submitter,
        key_fn: KeyFn,
        demand_fn: DemandFn,
        period: float,
        start_time: float = 0.0,
        on_complete: Optional[CompletionHook] = None,
        submit_burst: Optional[Callable] = None,
    ):
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period}")
        self.sim = sim
        self.name = name
        self.submit = submit
        # Optional bulk form of ``submit`` (the QoS engine provides
        # one); burst apps use it to hand a whole period's demand over
        # without a per-op submit call.  Semantics are identical to
        # calling ``submit`` in a loop.
        self.submit_burst = submit_burst
        self.key_fn = key_fn
        self.demand_fn = demand_fn
        self.period = period
        self.on_complete = on_complete
        self.period_index = -1
        self.issued_this_period = 0
        self.demand_this_period = 0
        self.in_flight = 0
        self.total_issued = 0
        self.total_completed = 0
        sim.schedule_at(max(start_time, sim.now), self._boundary)

    def _boundary(self) -> None:
        self.period_index += 1
        self.issued_this_period = 0
        self.demand_this_period = self.demand_fn(self.period_index)
        if self.demand_this_period < 0:
            raise ConfigError(
                f"demand for period {self.period_index} is negative"
            )
        self.sim.schedule(self.period, self._boundary)
        self._on_new_period()

    def _on_new_period(self) -> None:
        raise NotImplementedError

    def _issue_one(self) -> None:
        self.issued_this_period += 1
        self.total_issued += 1
        self.in_flight += 1
        self.submit(self.key_fn(), self._completed)

    def _completed(self, ok: bool, _value, latency: float) -> None:
        self.in_flight -= 1
        self.total_completed += 1
        if self.on_complete is not None:
            self.on_complete(ok, latency)
        self._after_completion()

    def _after_completion(self) -> None:
        raise NotImplementedError


class BurstApp(_AppBase):
    """The paper's *burst request* pattern.

    With an integer ``window`` (the paper's characterization uses 64)
    the app fires an initial burst and keeps ``window`` requests
    outstanding — *completion-gated* — until the period's demand has
    been issued, then idles until the next boundary.

    With ``window=None`` the app hands the entire period demand to the
    submitter at the period start (*token-paced*): appropriate for
    QoS-engine clients, where the engine's tokens provide the flow
    control and the engine posts eagerly while it holds tokens.  The
    two modes reproduce different figures — see EXPERIMENTS.md on the
    closed- vs open-loop tension in the paper's burst results.

    Unissued demand does not carry over (each period brings fresh
    demand); requests already handed to the engine complete whenever
    tokens allow.
    """

    def __init__(self, *args, window: Optional[int] = BURST_WINDOW, **kwargs):
        if window is not None and window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.window = window
        super().__init__(*args, **kwargs)

    def _pump(self) -> None:
        limit = self.window
        demand = self.demand_this_period
        burst = self.submit_burst
        if burst is not None:
            # Bulk path: nothing completes synchronously during the
            # issue loop (completions are simulator events), so the
            # loop below would issue exactly min(headroom, remaining)
            # ops — compute that and hand them over in one call.
            n = demand - self.issued_this_period
            if limit is not None:
                headroom = limit - self.in_flight
                if headroom < n:
                    n = headroom
            if n > 0:
                self.issued_this_period += n
                self.total_issued += n
                self.in_flight += n
                burst(n, self.key_fn, self._completed)
            return
        issue_one = self._issue_one
        while (
            (limit is None or self.in_flight < limit)
            and self.issued_this_period < demand
        ):
            issue_one()

    def _on_new_period(self) -> None:
        self._pump()

    def _after_completion(self) -> None:
        self._pump()


class ConstantRateApp(_AppBase):
    """The paper's *constant-rate request* pattern.

    Issues the period's demand at equal time spacing across the period
    (an open loop: completions do not gate submissions).
    """

    def _on_new_period(self) -> None:
        demand = self.demand_this_period
        if demand <= 0:
            return
        self._spacing = self.period / demand
        self._issue_tick(self.period_index)

    def _issue_tick(self, period_index: int) -> None:
        if period_index != self.period_index:
            return  # a new period superseded this schedule
        if self.issued_this_period >= self.demand_this_period:
            return
        self._issue_one()
        if self.issued_this_period < self.demand_this_period:
            self.sim.schedule(self._spacing, self._issue_tick, period_index)

    def _after_completion(self) -> None:
        pass  # open loop


class PoissonApp(_AppBase):
    """An open-loop Poisson arrival process (extension pattern).

    Exponential inter-arrival times with mean ``period / demand``, the
    memoryless arrival model of open-system workloads.  Like the
    constant-rate pattern, completions do not gate submissions; unlike
    it, instantaneous load fluctuates, which stresses the QoS engine's
    token gate with realistic burstiness.

    Requires a ``seed`` (all randomness in this library is explicit).
    """

    def __init__(self, *args, seed: int = 0, **kwargs):
        from repro.common.rng import make_rng

        super().__init__(*args, **kwargs)
        self._rng = make_rng(seed, "poisson", self.name)

    def _on_new_period(self) -> None:
        demand = self.demand_this_period
        if demand <= 0:
            return
        self._mean_gap = self.period / demand
        self.sim.schedule(
            self._rng.expovariate(1.0 / self._mean_gap),
            self._issue_tick, self.period_index,
        )

    def _issue_tick(self, period_index: int) -> None:
        if period_index != self.period_index:
            return
        if self.issued_this_period >= self.demand_this_period:
            return
        self._issue_one()
        if self.issued_this_period < self.demand_this_period:
            self.sim.schedule(
                self._rng.expovariate(1.0 / self._mean_gap),
                self._issue_tick, period_index,
            )

    def _after_completion(self) -> None:
        pass  # open loop
