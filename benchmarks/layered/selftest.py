"""``run.py --selftest``: the harness tested at toy size, in seconds.

Every workload goes through the full path — fresh subprocess per repeat,
correctness checks, traced run with the profile fold, aggregation, the
driver's result object, rendering, compare — so the harness itself can
be checked without the 3-minute run.  Also asserts the contracts that
are easy to break by hand: ``BENCHMARK.json`` equals what ``spec.py``
generates, every metric it names is actually produced, and the harness's
Fig. 12 cell equals the registered ``fig12-point`` scenario's.
"""

from __future__ import annotations

import json
import sys
from typing import List

import compare
import layers
import report
import run
import spec
from workloads import SIZES, WORKLOADS

from repro.cluster.runner import fig12_cells, get_scenario


def _fig12_matches_registered_scenario(seed: int) -> List[str]:
    """The harness assembles a Fig. 12 cell from the scenario's pieces;
    it must produce exactly what the scenario itself produces."""
    params = SIZES["fig12_sweep"]["toy"]
    workload = WORKLOADS["fig12_sweep"]
    state = workload.setup(params, seed)
    workload.run(state, None)
    mine = workload.collect(state).sim["cells"]
    scenario = get_scenario("fig12-point")
    cells = fig12_cells(seed=seed, fractions=params["fractions"],
                        warmup=params["warmup"], periods=params["periods"])
    problems = []
    for got, cell in zip(mine, cells):
        want = scenario(cell.params, cell.seed)
        if got["result"] != want:
            problems.append(f"fig12 cell {dict(cell.params)} differs from "
                            "the registered fig12-point scenario")
    if len(mine) != len(cells):
        problems.append("fig12 cell count differs from fig12_cells()")
    return problems


def _metric_names_agree(document: dict) -> List[str]:
    """Every per-layer metric of the spec is produced by exactly the
    component that owns it, and vice versa."""
    problems = []
    produced = {row.metric for row in layers.rows(0)}
    produced |= {metric for row in layers.rows(0) for _, metric in row.extras}
    wanted = {row["name"] for row in spec.LAYER_TABLE}
    if produced != wanted:
        problems.append(f"layer table != spec: {sorted(produced ^ wanted)}")
    for name, w in document["workloads"].items():
        counters = set(w["counters"])
        if counters != set(spec.COUNTER_NAMES):
            problems.append(f"{name}: counters != spec.COUNTER_NAMES")
        traced = set(w["trace"]["metrics"])
        if traced != {row["name"] for row in spec.TRACE}:
            problems.append(f"{name}: trace metrics != spec.TRACE")
        for row in spec.END_TO_END:
            present = row["name"] in w["end_to_end"]
            if present != (name in row["where"]):
                problems.append(
                    f"{name}: end-to-end {row['name']} "
                    f"{'unexpected' if present else 'missing'}")
    return problems


def _benchmark_json_matches_spec() -> List[str]:
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        return [f"{path} is missing"]
    if json.loads(path.read_text()) != spec.benchmark_json():
        return ["BENCHMARK.json differs from spec.benchmark_json()"]
    return []


def main(seed: int) -> int:
    names = [w["name"] for w in spec.WORKLOADS]
    document = run.full_run(seed, names, "toy", repeats=2,
                            with_layers=False, quick_layers=True)
    problems = [
        f"{name}: check {c['name']} failed: {c['detail']}"
        for name, w in document["workloads"].items()
        for c in w["checks"] if not c["ok"]
    ]
    problems += _metric_names_agree(document)
    problems += _benchmark_json_matches_spec()
    problems += _fig12_matches_registered_scenario(seed)

    # The driver's result object, untraced, on the cheapest workload.
    result = run.driver_result("fabric_incast_mixed", seed, 0.0,
                               traced=False, size="toy")
    gated = {row["name"] for row in spec.END_TO_END if row["gated"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"driver result keys: {sorted(result)}")
    if set(result["metrics"]) != gated:
        problems.append("driver result metrics != gated end-to-end set")
    if any(not m["value"] for m in result["metrics"].values()):
        problems.append("a gated end-to-end metric is 0")

    # Rendering and the A/A comparison must hold together on a real
    # document: a document compared with itself has no 'worse' row.
    report.render_text(document)
    report.render_markdown(document)
    worse = [r for r in compare.compare(document, document)
             if r[5] == "worse"]
    if worse:
        problems.append(f"document vs itself has worse rows: {worse[:3]}")

    for problem in problems:
        print(f"SELFTEST FAIL: {problem}", file=sys.stderr)
    print(f"selftest: {len(names)} workloads at toy size, "
          f"{document['wall_s']:.1f} s in workers, "
          + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0
