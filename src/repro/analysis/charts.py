"""Terminal-friendly charts for the command line.

Pure-text rendering (no plotting dependencies): a compact sparkline for
a per-period timeline.  It is deterministic, so tests can assert on the
output.
"""

from __future__ import annotations

from typing import Optional, Sequence

_SPARK_LEVELS = " .:-=+*#%@"


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

