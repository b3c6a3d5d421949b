"""Per-client measurement: period-aligned completions and latencies."""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigError
from repro.sim.stats import Counter, LatencyReservoir


class ClientMetrics:
    """One client's counters: completions, failures, latency samples."""

    def __init__(self, name: str):
        self.name = name
        self.completed = Counter()
        self.failed = Counter()
        self.latency = LatencyReservoir()
        self.period_counts: List[int] = []
        self._last_total = 0

    def record(self, ok: bool, latency: float) -> None:
        """Record one finished I/O."""
        if ok:
            self.completed.add()
        else:
            self.failed.add()
        self.latency.record(latency)

    def sample_period(self) -> int:
        """Close one period: append and return completions since last."""
        delta = self.completed.total - self._last_total
        self._last_total = self.completed.total
        self.period_counts.append(delta)
        return delta

    def reset_window(self) -> None:
        """Drop warm-up data; subsequent periods count from here."""
        self.period_counts.clear()
        self.latency.reset()
        self._last_total = self.completed.total
        self.completed.mark_window()
        self.failed.mark_window()


class MetricsCollector:
    """Samples every client at QoS-period boundaries.

    Sampling starts at the first boundary after construction and stays
    aligned with the monitor/app period grid (everything starts at time
    zero in the harness).
    """

    def __init__(self, sim, period: float):
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.clients: Dict[str, ClientMetrics] = {}
        self.period_totals: List[int] = []
        # absolute-time scheduling: repeated `now + period` accumulates
        # float error and can drift a boundary past the experiment's end
        self._origin = sim.now
        self._boundary_index = 0
        sim.schedule_at(self._origin + period, self._boundary)

    def register(self, name: str) -> ClientMetrics:
        """Create (or fetch) the metrics slot for ``name``."""
        if name not in self.clients:
            self.clients[name] = ClientMetrics(name)
        return self.clients[name]

    def hook(self, name: str):
        """A completion hook suitable for the app drivers."""
        metrics = self.register(name)
        return metrics.record

    def _boundary(self) -> None:
        total = 0
        for metrics in self.clients.values():
            total += metrics.sample_period()
        self.period_totals.append(total)
        self._boundary_index += 1
        self.sim.schedule_at(
            self._origin + (self._boundary_index + 1) * self.period,
            self._boundary,
        )

    def reset_window(self) -> None:
        """Discard warm-up samples for every client."""
        for metrics in self.clients.values():
            metrics.reset_window()
        self.period_totals.clear()


def register_cluster_metrics(cluster, registry) -> None:
    """Register every component's counters on ``registry``.

    All registrations are *callback gauges* over the components'
    existing plain-attribute counters (see
    :mod:`repro.telemetry.registry`): the hot paths keep their
    ``self.whatever += 1`` and the registry reads them only at snapshot
    time, so this costs the instrumented code nothing per operation.
    Idempotent — re-registering after a topology change (failover
    rebind) rebinds the callbacks.

    One walk for every topology — clients, then nodes, then whatever
    optional machinery is attached; the registration order feeds the
    metrics JSONL the digest families hash.
    """
    for client in cluster.clients:
        for engine in client.engines:
            for name, getter in engine.metrics_items():
                registry.gauge(name, getter, **client.engine_labels(engine))
        manager = getattr(client, "failover", None)
        if manager is not None:
            for name, getter in manager.metrics_items():
                registry.gauge(name, getter, client=client.name)
        for name, getter in client.host.nic.metrics_items():
            registry.gauge(name, getter, node=client.host.name)
    for node in cluster.nodes:
        for part in (node.host.nic, node.data_node, node.monitor):
            if part is not None:
                for name, getter in part.metrics_items():
                    registry.gauge(name, getter, node=node.host.name)
    if cluster.fault_injector is not None:
        for name, getter in cluster.fault_injector.metrics_items():
            registry.gauge(name, getter)
    # Hierarchical tenancy: gauges exist only when a hierarchy is bound
    # (the PR 5 conditional idiom — unbound clusters keep their pinned
    # metric-row digests byte-identical).
    binding = getattr(cluster, "tenancy", None)
    if binding is not None:
        for name, getter in binding.metrics_items():
            registry.gauge(name, getter)
    # Fabric model: port + per-QP congestion gauges exist only when a
    # FabricModel is attached (same conditional idiom), so model-less
    # clusters keep their pinned metric-row digests byte-identical.
    fabric = cluster.fabric
    if fabric.model is not None:
        for port_name in sorted(fabric.ports):
            for name, getter in fabric.ports[port_name].metrics_items():
                registry.gauge(name, getter, node=port_name)
        for ctx in cluster.clients:
            fab = ctx.kv.qp.fab
            if fab is not None:
                for name, getter in fab.metrics_items():
                    registry.gauge(name, getter, client=ctx.name)
    # Global coordinator (multi-node deployments, when attached).
    coordinator = getattr(cluster, "coordinator", None)
    if coordinator is not None:
        for name, getter in coordinator.metrics_items():
            registry.gauge(name, getter, node=coordinator.host.name)
    standby = getattr(cluster, "standby", None)
    if standby is not None:
        for name, getter in standby.metrics_items():
            registry.gauge(name, getter, node=standby.host.name)
    for agent in getattr(cluster, "client_agents", []):
        for name, getter in agent.metrics_items():
            registry.gauge(name, getter, client=agent.striped.name)
    for agent in getattr(cluster, "node_agents", []):
        for name, getter in agent.metrics_items():
            registry.gauge(name, getter, node=agent.node.host.name)

