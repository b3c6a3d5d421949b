"""The telemetry hub: one object wiring spans, metrics, and the ledger.

The hub hangs off the simulator (``sim.telemetry``), which every
component already holds — so instrumentation points cost exactly one
attribute read plus a ``None`` check when telemetry is disabled, and
nothing at all when the attribute stays ``None`` (the default).

Sampling: data-path spans are sampled 1-in-N deterministically (an op
counter, not an RNG, so a run is replayable span-for-span); control
ops (FAAs, probes, report writes) are always-on — they are rare and
they are where the QoS protocol's behaviour lives.

The hub never schedules simulator events and never perturbs timing:
attaching telemetry must not change a run's simulated results, only
observe them.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, List, Optional

from repro.telemetry.ledger import TokenLedger
from repro.telemetry.records import RecordStore
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Span, SpanStore


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """What to collect and how aggressively.

    ``sample_every``
        Data-path span sampling: record 1 op in N.  ``1`` records every
        op, ``0`` disables data spans entirely.
    ``control_spans``
        Always-on spans for control ops (FAA / probe / report writes),
        and the protocol records (:mod:`repro.telemetry.records`).
    ``ledger``
        Record the token-ledger audit stream (period-boundary cost only).
    ``max_spans``
        Span and record store bound; the oldest half is dropped (and
        counted) past it.
    """

    sample_every: int = 100
    control_spans: bool = True
    ledger: bool = True
    max_spans: int = 100_000

    def __post_init__(self):
        if self.sample_every < 0:
            raise ValueError(
                f"sample_every must be >= 0, got {self.sample_every}"
            )


class TelemetryHub:
    """Span source, records, metrics registry and token ledger for one sim."""

    def __init__(self, sim, config: Optional[TelemetryConfig] = None):
        self.sim = sim
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.spans = SpanStore(self.config.max_spans)
        self.records: Optional[RecordStore] = (
            RecordStore(self.config.max_spans)
            if self.config.control_spans else None
        )
        self.ledger: Optional[TokenLedger] = (
            TokenLedger() if self.config.ledger else None
        )
        self._span_ids = itertools.count(1)
        self._op_seq = 0
        self.period_rows: List[Dict[str, Any]] = []
        self._snapshot_source: Optional[str] = None
        self._op_latency = {}

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def data_span(self, kind: str, client: str,
                  key: Optional[int] = None) -> Optional[Span]:
        """A sampled data-path span, or None when unsampled/disabled."""
        n = self.config.sample_every
        if n <= 0:
            return None
        self._op_seq += 1
        if n > 1 and self._op_seq % n != 1:
            return None
        return self._start(kind, client, key, control=False)

    def control_span(self, kind: str, client) -> Optional[Span]:
        """An always-on control-op span (unless disabled)."""
        if not self.config.control_spans:
            return None
        return self._start(kind, str(client), None, control=True)

    def _start(self, kind, client, key, control) -> Span:
        span = Span(next(self._span_ids), kind, client, self.sim.now,
                    key=key, control=control)
        self.spans.add(span)
        return span

    def observe_latency(self, kind: str, latency: float) -> None:
        """Feed the per-kind latency histogram (called at completion)."""
        hist = self._op_latency.get(kind)
        if hist is None:
            hist = self.registry.histogram("op_latency_seconds", kind=kind)
            self._op_latency[kind] = hist
        hist.observe(latency)

    # ------------------------------------------------------------------
    # Period hooks (called by the monitor)
    # ------------------------------------------------------------------
    def on_period_begin(self, period_id: int, pool_tokens: int,
                        total_reserved: int, source: str = "") -> None:
        """Monitor started a period: mint + snapshot the finished one.

        In a replicated cluster both monitors call this; metric
        snapshots follow the first (primary) monitor only, while the
        ledger records both mints (tagged by source).
        """
        if self.ledger is not None:
            self.ledger.mint(period_id, pool_tokens, total_reserved,
                             self.sim.now, source=source)
        if self._snapshot_source is None:
            self._snapshot_source = source
        if source == self._snapshot_source and period_id > 1:
            self.snapshot_period(period_id - 1)

    def on_conversion(self, period_id: int, pool_before: int,
                      pool_after: int, residual_sum: int,
                      source: str = "") -> None:
        if self.ledger is not None:
            self.ledger.convert(period_id, pool_before, pool_after,
                                residual_sum, self.sim.now, source=source)

    def snapshot_period(self, period_id: int) -> Dict[str, Any]:
        """One JSONL row: every registered metric at this instant."""
        row = {
            "period": period_id,
            "time": self.sim.now,
            "metrics": self.registry.snapshot(),
        }
        self.period_rows.append(row)
        return row


def attach_telemetry(cluster, config: Optional[TelemetryConfig] = None,
                     ) -> TelemetryHub:
    """Build a hub, install it on the cluster's simulator, and register
    the cluster's component metrics (engines, monitor(s), NICs, fault
    injector, failover managers) as callback gauges.

    Call after :func:`~repro.cluster.builder.build_cluster` (the
    builder creates the simulator) and before ``cluster.start()`` if
    period snapshots should cover the whole run.
    """
    hub = TelemetryHub(cluster.sim, config)
    cluster.sim.telemetry = hub
    from repro.cluster.metrics import register_cluster_metrics

    register_cluster_metrics(cluster, hub.registry)
    return hub
