#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: the rule a later PR is
judged by.

    python3 benchmarks/layered/compare.py PARENT.json CHANGE.json

One row per (workload, metric).  Host-side end-to-end metrics are
reported as the fastest repeat in reference-box seconds (see README);
their verdict comes from that value, the quartiles of the repeats and
the bound ``spec.py`` fixes:

- ``worse``       the change's value is worse than the parent's by more
                  than the bound (and, for ``setup_s``, by more than its
                  absolute floor);
- ``unresolved``  the parent's fastest repeat stands alone — even its
                  nearest quartile is further from it than the bound —
                  and the two sets of repeats overlap: the parent's own
                  value is not established, so the benchmark cannot tell;
- ``better``      every repeat of the change beats every repeat of the
                  parent, and the medians differ by more than the
                  parent's inter-quartile distance;
- ``same``        anything else.

Simulated-side metrics, the result digest and the exact counters must
be *equal* for the same seed (``same``) — any drift is a behaviour
change, not noise, and reads ``worse``.  Layer-table rows have no bound;
they are listed with their ratio so a claim can point at them.

Exits 1 if any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional, Tuple

from spec import END_TO_END

Row = Tuple[str, str, str, str, str, str]  # scope, metric, A, B, delta, verdict


def _signed_worsening(row: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a`` (negative = better), in the
    metric's own unit."""
    return (b - a) if row["better"] == "lower" else (a - b)


def host_verdict(row: dict, a: dict, b: dict) -> str:
    """The verdict for one host-side metric (see module docstring)."""
    worse_by = _signed_worsening(row, a["value"], b["value"])
    allowed = max(row["bound"] * abs(a["value"]), row.get("floor", 0.0))
    overlap = (min(b["raw"]) <= max(a["raw"])
               and min(a["raw"]) <= max(b["raw"]))
    if row["better"] == "lower":
        b_all_better = max(b["raw"]) < min(a["raw"])
        corroborated_within = a["q1"] - a["value"]
    else:
        b_all_better = min(b["raw"]) > max(a["raw"])
        corroborated_within = a["value"] - a["q3"]
    if corroborated_within > allowed and overlap:
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    median_gain = -_signed_worsening(row, a["median"], b["median"])
    if b_all_better and median_gain > a["q3"] - a["q1"]:
        return "better"
    return "same"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def compare(a: dict, b: dict) -> List[Row]:
    rows: List[Row] = []
    if a["seed"] != b["seed"] or a.get("size") != b.get("size"):
        rows.append(("document", "seed/size",
                     f"{a['seed']}/{a.get('size')}",
                     f"{b['seed']}/{b.get('size')}", "",
                     "worse"))  # different inputs cannot be compared
        return rows
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append((name, "(workload)", "present", "missing", "",
                         "worse"))
            continue
        for row in END_TO_END:
            metric = row["name"]
            if metric not in wa["end_to_end"]:
                continue
            ma = wa["end_to_end"][metric]
            mb = wb["end_to_end"].get(metric)
            if mb is None:
                rows.append((name, metric, _fmt(ma["value"]), "missing",
                             "", "worse"))
            elif row["kind"] == "host":
                ratio = mb["value"] / ma["value"] if ma["value"] else 0.0
                rows.append((
                    name, metric,
                    f"{ma['value']:.6g} [{ma['q1']:.4g}..{ma['q3']:.4g}]",
                    f"{mb['value']:.6g} [{mb['q1']:.4g}..{mb['q3']:.4g}]",
                    f"x{ratio:.3f}", host_verdict(row, ma, mb),
                ))
            else:
                equal = ma["value"] == mb["value"]
                rows.append((name, metric, _fmt(ma["value"]),
                             _fmt(mb["value"]), "exact",
                             "same" if equal else "worse"))
        equal = wa["digest"] == wb["digest"]
        rows.append((name, "digest", wa["digest"][:16], wb["digest"][:16],
                     "exact", "same" if equal else "worse"))
        for counter, va in wa["counters"].items():
            vb = wb["counters"].get(counter)
            if va != vb:  # equal counters are the expected, silent case
                rows.append((name, counter, _fmt(va), _fmt(vb), "exact",
                             "worse"))
        if wa["counters"] == wb["counters"]:
            rows.append((name, f"counters ({len(wa['counters'])})",
                         "all equal", "", "exact", "same"))
    la = a.get("layers", {}).get("rows", {})
    lb = b.get("layers", {}).get("rows", {})
    for metric, ra in la.items():
        rb: Optional[dict] = lb.get(metric)
        if rb is None or not ra["value"]:
            continue
        rows.append(("layers", metric, _fmt(ra["value"]), _fmt(rb["value"]),
                     f"x{rb['value'] / ra['value']:.3f}", "info"))
    return rows


def render(rows: List[Row]) -> str:
    header = ("scope", "metric", "parent", "change", "delta", "verdict")
    table = [header] + [tuple(r) for r in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(r, widths))
        for r in table
    )


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    rows = compare(a, b)
    print(render(rows))
    verdicts = [r[5] for r in rows]
    summary = {v: verdicts.count(v)
               for v in ("better", "same", "worse", "unresolved")}
    print("\n" + "  ".join(f"{k}: {n}" for k, n in summary.items()))
    return 1 if summary["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
