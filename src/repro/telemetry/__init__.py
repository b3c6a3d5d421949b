"""``repro.telemetry``: causal spans, protocol records, metrics
registry, exporters.

See docs/OBSERVABILITY.md for the span model, the registry API, the
token-ledger audit stream, and the exporter formats.
"""

from repro.telemetry.exporters import (
    format_stage_table,
    ledger_jsonl,
    metrics_jsonl,
    perfetto_trace,
    stage_breakdown,
    write_ledger_jsonl,
    write_metrics_jsonl,
    write_perfetto,
)
from repro.telemetry.health import HealthTracker
from repro.telemetry.hub import TelemetryConfig, TelemetryHub, attach_telemetry
from repro.telemetry.ledger import LedgerAccount, TokenLedger
from repro.telemetry.records import Record, RecordStore, record
from repro.telemetry.registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, SpanStore

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HealthTracker",
    "HistogramMetric",
    "LedgerAccount",
    "MetricsRegistry",
    "Record",
    "RecordStore",
    "Span",
    "SpanStore",
    "TelemetryConfig",
    "TelemetryHub",
    "TokenLedger",
    "attach_telemetry",
    "format_stage_table",
    "ledger_jsonl",
    "metrics_jsonl",
    "perfetto_trace",
    "record",
    "stage_breakdown",
    "write_ledger_jsonl",
    "write_metrics_jsonl",
    "write_perfetto",
]
