"""Result analysis: table formatting, time-series shape metrics, and
paper-shape comparisons used by the benchmark harness."""

from repro.analysis.charts import sparkline
from repro.analysis.series import (
    mean_of,
    recovery_time,
    relative_drop,
    step_change,
)
from repro.analysis.tables import format_table
from repro.analysis.compare import jain_fairness, meets_reservation, who_wins

__all__ = [
    "format_table",
    "jain_fairness",
    "mean_of",
    "meets_reservation",
    "recovery_time",
    "relative_drop",
    "sparkline",
    "step_change",
    "who_wins",
]
