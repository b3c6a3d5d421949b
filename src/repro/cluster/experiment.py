"""Experiment runner: warm-up, measurement, result collection.

Mirrors the paper's methodology: every run has a warm-up window whose
samples are discarded, then a measurement window whose per-period,
per-client completions and latencies are reported (paper: 30 s warm-up,
figures show 30 one-second periods).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.types import AccessMode
from repro.cluster.builder import Cluster, ClientContext
from repro.workloads.app import BurstApp, ConstantRateApp, PoissonApp, constant_demand
from repro.workloads.patterns import BURST_WINDOW, RequestPattern


@dataclasses.dataclass
class ExperimentResult:
    """Everything the benches need, in paper-comparable units."""

    period: float
    scale_factor: float
    warmup_periods: int
    measure_periods: int
    client_period_counts: Dict[str, List[int]]
    client_latency: Dict[str, dict]
    period_totals: List[int]
    monitor_records: List[dict]
    estimator_history: List[float]

    # ------------------------------------------------------------------
    def client_kiops(self, name: str) -> float:
        """A client's mean throughput over the window, in KIOPS."""
        counts = self.client_period_counts[name]
        if not counts:
            return 0.0
        return sum(counts) / len(counts) / self.period / 1000.0

    def total_kiops(self) -> float:
        """System throughput over the window, in KIOPS."""
        if not self.period_totals:
            return 0.0
        return (
            sum(self.period_totals) / len(self.period_totals) / self.period / 1000.0
        )

    def total_kiops_series(self) -> List[float]:
        """Per-period system throughput timeline, in KIOPS."""
        return [count / self.period / 1000.0 for count in self.period_totals]

    def client_kiops_series(self, name: str) -> List[float]:
        """Per-period throughput timeline of one client, in KIOPS."""
        return [
            count / self.period / 1000.0
            for count in self.client_period_counts[name]
        ]

    def client_paper_count(self, name: str) -> float:
        """Mean completions per period, rescaled to the paper's 1 s
        periods (so 157 K reads per paper period reports as 157000)."""
        counts = self.client_period_counts[name]
        if not counts:
            return 0.0
        return sum(counts) / len(counts) * self.scale_factor


def attach_app(
    cluster: Cluster,
    client: ClientContext,
    pattern: RequestPattern,
    demand_ops: Optional[float] = None,
    demand_fn: Optional[Callable[[int], int]] = None,
    key_fn: Optional[Callable[[], int]] = None,
    window: Optional[int] = BURST_WINDOW,
    access: AccessMode = AccessMode.ONE_SIDED,
    start_time: float = 0.0,
):
    """Attach a workload app to one client.

    ``demand_ops`` is in unscaled ops/second (converted to per-period
    demand); alternatively pass a ``demand_fn`` over period indices
    (already in per-period tokens).  Keys default to a round-robin
    sweep of the store.
    """
    if (demand_ops is None) == (demand_fn is None):
        raise ConfigError("pass exactly one of demand_ops / demand_fn")
    if demand_fn is None:
        demand_fn = constant_demand(cluster.config.tokens_per_period(demand_ops))
    if key_fn is None:
        num_slots = cluster.data_node.store.layout.num_slots
        state = {"next": client.index % num_slots}

        def key_fn() -> int:
            key = state["next"]
            state["next"] = (key + 1) % num_slots
            return key

    submit = client.submitter(access=access, touch_memory=cluster.touch_memory)
    hook = cluster.metrics.hook(client.name)
    if pattern is RequestPattern.BURST:
        app_cls = BurstApp
    elif pattern is RequestPattern.CONSTANT_RATE:
        app_cls = ConstantRateApp
    else:
        app_cls = PoissonApp
    kwargs = dict(
        sim=cluster.sim,
        name=client.name,
        submit=submit,
        key_fn=key_fn,
        demand_fn=demand_fn,
        period=cluster.config.period,
        start_time=start_time,
        on_complete=hook,
    )
    if app_cls is BurstApp:
        kwargs["window"] = window
        if client.engine is not None and access is AccessMode.ONE_SIDED:
            kwargs["submit_burst"] = client.engine.submit_burst
    elif app_cls is PoissonApp:
        kwargs["seed"] = client.index  # deterministic per-client stream
    client.app = app_cls(**kwargs)
    return client.app


def run_experiment(
    cluster: Cluster,
    warmup_periods: int = 3,
    measure_periods: int = 30,
) -> ExperimentResult:
    """Run the cluster through warm-up + measurement and collect results."""
    if warmup_periods < 0 or measure_periods < 1:
        raise ConfigError(
            f"bad windows: warmup={warmup_periods}, measure={measure_periods}"
        )
    if not cluster._started:
        cluster.start()
    period = cluster.config.period
    sim = cluster.sim
    # The epsilon guarantees boundary events that land *exactly* on the
    # window edge execute despite float accumulation in period timers.
    epsilon = period * 1e-6
    sim.run(until=sim.now + warmup_periods * period + epsilon)
    cluster.metrics.reset_window()
    sim.run(until=sim.now + measure_periods * period + epsilon)
    # Engines replay their live reports and empty polls lazily; the
    # caller reads the counters now, as of the horizon.
    for engine in cluster.engines():
        engine.settle(horizon=True)

    monitor_records: List[dict] = []
    estimator_history: List[float] = []
    if cluster.monitor is not None:
        monitor_records = [
            rec
            for rec in cluster.monitor.period_records
            if rec["period"] > warmup_periods
        ]
        estimator_history = list(cluster.monitor.estimator.history)

    return ExperimentResult(
        period=period,
        scale_factor=cluster.scale.factor,
        warmup_periods=warmup_periods,
        measure_periods=measure_periods,
        client_period_counts={
            name: list(m.period_counts) for name, m in cluster.metrics.clients.items()
        },
        client_latency={
            name: m.latency.summary() for name, m in cluster.metrics.clients.items()
        },
        period_totals=list(cluster.metrics.period_totals),
        monitor_records=monitor_records,
        estimator_history=estimator_history,
    )
