"""Terminal-friendly charts for examples and bench reports.

Pure-text rendering (no plotting dependencies): horizontal bar charts
for per-client comparisons and compact sparklines for per-period
timelines.  Both are deterministic, so tests can assert on the output.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

_SPARK_LEVELS = " .:-=+*#%@"


def bar_chart(
    items: Sequence[Tuple[str, float]],
    width: int = 50,
    max_value: Optional[float] = None,
    unit: str = "",
) -> List[str]:
    """Horizontal bars, one per (label, value) pair.

    Bars share a scale: ``max_value`` (or the data maximum) spans
    ``width`` characters.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not items:
        return []
    values = [v for _, v in items]
    if any(v < 0 for v in values):
        raise ValueError("bar_chart requires non-negative values")
    scale_max = max_value if max_value is not None else max(values)
    if scale_max <= 0:
        scale_max = 1.0
    label_width = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        filled = int(round(min(value, scale_max) / scale_max * width))
        bar = "#" * filled
        lines.append(
            f"{label:>{label_width}} |{bar:<{width}}| {value:g}{unit}"
        )
    return lines


def sparkline(
    values: Sequence[float],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """A one-line intensity strip for a timeline.

    Values map onto ten glyph levels between ``lo`` and ``hi``
    (defaulting to the data range).
    """
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        return _SPARK_LEVELS[-1] * len(values)
    span = hi - lo
    out = []
    top = len(_SPARK_LEVELS) - 1
    for v in values:
        norm = (min(max(v, lo), hi) - lo) / span
        out.append(_SPARK_LEVELS[int(round(norm * top))])
    return "".join(out)

