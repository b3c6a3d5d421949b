"""Protocol records: the control plane's decisions, one typed line each.

Period starts, reports, Algorithm 1's estimate, evictions, failovers,
coordinator takeovers and injected faults go through :func:`record` to
the hub's :class:`RecordStore` (``hub.records``), which exists only
when ``control_spans`` is on and is bounded by ``max_spans``.  What the
token ledger already logs — pool claims, conversions, rebalances,
(un)quarantines — is not recorded twice: read ``hub.ledger.events``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional

from repro.telemetry.spans import BoundedStore


class Record(NamedTuple):
    """One decision, stamped with its simulated time."""

    time: float
    category: str
    event: str
    fields: Dict[str, Any]

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time * 1e3:10.4f} ms] {self.category}.{self.event} {details}"


class RecordStore(BoundedStore):
    """The hub's records; ``counts`` stay exact past eviction."""

    def __init__(self, max_records: int = 100_000):
        super().__init__(max_records, "max_records")
        self.counts: Counter = Counter()

    @property
    def records(self) -> List[Record]:
        return self.items

    def add(self, rec: Record) -> None:
        self.counts[f"{rec.category}.{rec.event}"] += 1
        self._keep(rec)

    def filter(self, category: Optional[str] = None,
               event: Optional[str] = None) -> List[Record]:
        """Records matching the given category and/or event name."""
        return [r for r in self.items
                if (category is None or r.category == category)
                and (event is None or r.event == event)]

    def summary(self) -> Dict[str, int]:
        """Exact ``category.event`` counts."""
        return dict(self.counts)

    def export(self) -> Dict[str, Any]:
        """Collection state for exporters; ``emitted`` counts every
        record ever added, ``recorded`` those still held."""
        return {
            "recorded": len(self.items),
            "emitted": sum(self.counts.values()),
            "dropped": self.dropped,
            "complete": self.dropped == 0,
            "counts": dict(self.counts),
        }


def record(sim, category: str, event: str, **fields: Any) -> None:
    """Record one decision on ``sim``'s hub, if it keeps records."""
    hub = sim.telemetry
    if hub is not None and hub.records is not None:
        hub.records.add(Record(sim.now, category, event, fields))
