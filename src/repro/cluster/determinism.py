"""The determinism guard: bit-identical simulated outputs, by hash.

The simulator's whole value rests on one property: the same scenario
and seed produce the *same* simulated history, byte for byte.  Every
hot-path optimisation (``__slots__``, cached locals, the engine's
direct-callback ticks, the NIC cost tables) is licensed by this module:
it runs a fixed scenario family on the canonical seeds and folds the
telemetry exports — the per-period metrics JSONL, the token-ledger
audit JSONL, and the experiment's result payload — into SHA-256
digests.  If an "optimisation" changes a single float or reorders a
single same-timestamp event, a digest moves and the pinned test fails.

The scenario family deliberately leans on the messy paths: each seed
drives a :func:`~repro.cluster.scenarios.faulty_qos_cluster` with a
seed-specific fault plan (control loss, delay spikes, a brownout), so
drops, retries, engine backoff, capacity dilation, and conversion all
feed the hash — not just the steady-state fast path.

Every digest family is one row of :data:`FAMILIES` — its seeds and a
function from seed to the text streams to hash — folded by one
:func:`_fold`.  ``python -m repro.cluster.determinism --check
[family ...]`` recomputes families and compares them with the committed
reference (``benchmarks/results/determinism_hashes.json``), as does the
pinned test (``tests/integration/test_determinism.py``); ``--write
PATH`` regenerates the file.  Regenerate *only* when a change
intentionally alters simulated behaviour, and say so in the commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.cluster import chaos
from repro.cluster.calibration import CHAMELEON
from repro.cluster.experiment import run_experiment
from repro.cluster.runner import canonical_json
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import (
    faulty_qos_cluster,
    paper_demands,
    reservation_set,
)
from repro.telemetry.exporters import ledger_jsonl, metrics_jsonl
from repro.telemetry.hub import TelemetryConfig, attach_telemetry

#: The canonical seeds every before/after comparison runs on.
CANONICAL_SEEDS = (11, 23, 37, 41, 53)

#: Seed -> (fault kind, fault_plan kwargs).  Distinct plans per seed so
#: the five runs exercise genuinely different dynamics: lossy control
#: planes at two rates, delayed control planes at two rates, and a
#: capacity brownout.
SEED_FAULTS = {
    11: ("control-loss", {"rate": 0.04}),
    23: ("control-loss", {"rate": 0.10}),
    37: ("delay-spike", {"rate": 0.08}),
    41: ("brownout", {"factor": 0.6}),
    53: ("delay-spike", {"rate": 0.15}),
}

#: Matches the Fig. 12 sweep's scale (benchmarks/conftest.py) so the
#: guard hashes the same arithmetic regime the speedup is measured in.
DIGEST_SCALE = SimScale(factor=500, interval_divisor=100)

#: The committed reference, resolved from this file so ``--check``
#: works from any working directory.
REFERENCE_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "benchmarks" / "results" / "determinism_hashes.json"
)

_NUM_CLIENTS = 5
# 70% of C_G reserved, zipf-shaped.
_TOTAL_OPS = 0.7 * CHAMELEON.one_sided_system
_POOL_OPS = 120_000.0
_WARMUP = 1
_MEASURE = 4


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fold(kind: str, parts: Mapping[str, str],
          recorded: Optional[Mapping[str, object]] = None,
          ) -> Dict[str, object]:
    """One digest entry: a SHA-256 per named text stream, any
    ``recorded`` plain values, and ``combined`` — the one number to
    compare — over the stream hashes in order."""
    hashes = {name: _sha256(text) for name, text in parts.items()}
    return {
        "kind": kind,
        **hashes,
        **(recorded or {}),
        "combined": _sha256(canonical_json(list(hashes.values()))),
    }


def _hub_parts(hub, results) -> Dict[str, str]:
    """The three streams most families hash: per-period metrics JSONL,
    ledger audit JSONL, and a result payload."""
    return {
        "metrics": metrics_jsonl(hub.period_rows),
        "ledger": ledger_jsonl(hub.ledger),
        "results": canonical_json(results),
    }


def _seeds(seed: int):
    """The canonical faulty-QoS scenario: covers the metrics stream,
    the ledger stream, the result payload, and the ledger conservation
    check."""
    kind, fault_kwargs = SEED_FAULTS[seed]
    reservations = reservation_set("zipf", _TOTAL_OPS, _NUM_CLIENTS)
    demands = paper_demands(reservations, _POOL_OPS)
    cluster = faulty_qos_cluster(
        reservations,
        demands,
        kind=kind,
        fault_seed=seed,
        fault_kwargs=fault_kwargs,
        scale=DIGEST_SCALE,
        master_seed=seed,
    )
    hub = attach_telemetry(
        cluster, TelemetryConfig(sample_every=7, ledger=True)
    )
    result = run_experiment(
        cluster, warmup_periods=_WARMUP, measure_periods=_MEASURE
    )
    cluster.flush_ledgers()
    return kind, _hub_parts(hub, {
        "client_period_counts": result.client_period_counts,
        "client_latency": result.client_latency,
        "period_totals": result.period_totals,
        "estimator_history": result.estimator_history,
        "conservation": hub.ledger.check_conservation(),
    })


def _chaos_report(scenario: str, seed: int):
    return chaos.run(chaos.scenarios()[scenario], seed)


def _globalqos(seed: int):
    """The full coordinator surface: the static-vs-coordinated skew
    comparison (metrics stream, ledger stream with its ``rebalance``
    events, attainment payload) and a coordinator-crash chaos run
    (fallback, recovery, conservation verdicts)."""
    from repro.globalqos.scenario import run_skewed

    static = run_skewed(seed, False)
    coordinated = run_skewed(seed, True)
    static.pop("_cluster")
    hub = coordinated.pop("_cluster").sim.telemetry
    report, _cluster = _chaos_report("coord-crash", seed)
    return "globalqos-skew", _hub_parts(hub, {
        "static": static,
        "coordinated": coordinated,
        "chaos": report.as_dict(),
    })


def _chaos_family(scenario: str, kind: str):
    """One chaos run: the HA cluster's metrics stream (leader, standby,
    quarantine and policy gauges), its ledger stream (``quarantine`` /
    ``unquarantine`` / ``policy_apply`` events included), and the chaos
    report payload."""
    def run(seed: int):
        report, cluster = _chaos_report(scenario, seed)
        return kind, _hub_parts(
            cluster.sim.telemetry, {"chaos": report.as_dict()}
        )
    return run


def _scale(seed: int):
    """A 10^4-client fluid run (the ``fluid-scale`` cell's full report
    — completions, rollups, resize ops, ledger verdicts) and the
    fluid-vs-exact-DES equivalence report on the down-scaled config.
    The entry also records the documented attainment tolerance tier
    and the equivalence verdict, so the reference file carries the
    validation contract, not just opaque hashes."""
    from repro.fluid.scenario import run_fluid_scale
    from repro.fluid.validate import TOLERANCE_TIER, run_equivalence

    scale_report = run_fluid_scale(num_clients=10_000, seed=seed)
    equivalence = run_equivalence(seed)
    return "fluid-scale", {
        "fluid": canonical_json(scale_report),
        "equivalence": canonical_json(equivalence),
    }, {
        "tolerance_tier": TOLERANCE_TIER,
        "max_error": round(equivalence["max_error"], 6),
        "equivalence_ok": equivalence["ok"],
    }


def _fabric(seed: int):
    """Incast with CC on and off, the WRITE-heavy / CAS-heavy /
    mixed-size verb mixes, and the token-vs-congestion throttling pair.
    The payload folds in every congestion counter (ECN marks, CNPs, PFC
    pauses, DCQCN rates, SQ stalls, chain statistics), so a single
    reordered event or perturbed float anywhere in the modeled datapath
    moves the hash."""
    from repro.cluster.fabric_scenarios import run_fabric_family

    return "fabric-cc", {"results": canonical_json(run_fabric_family(seed))}


@dataclasses.dataclass(frozen=True)
class Family:
    """One digest family: its seeds and ``seed -> _fold arguments``."""

    seeds: Tuple[int, ...]
    run: Callable[[int], tuple]


# Two seeds, not five, for every family but the first: a globalqos
# digest runs the skewed scenario twice plus a coordinator-crash chaos
# run, and each partition / policy run covers the asymmetric partition,
# the standby takeover, the fencing path, the fail-slow quarantine
# cycle (and the mid-failover hot-swap with its ledger audit) — two
# seeds pin every code path without doubling suite cost.
FAMILIES: Dict[str, Family] = {
    "seeds": Family(CANONICAL_SEEDS, _seeds),
    "globalqos": Family((11, 23), _globalqos),
    "partition": Family(
        (11, 23), _chaos_family("partition", "partition-failover")),
    "policy": Family((11, 23), _chaos_family("policy-flip", "policy-flip")),
    "scale": Family((11, 23), _scale),
    "fabric": Family((11, 23), _fabric),
}


def digest(family: str, seed: int) -> Dict[str, object]:
    """Run ``family``'s scenario for ``seed`` and digest its outputs."""
    return _fold(*FAMILIES[family].run(seed))


def digest_all() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``{family: {str(seed): digest}}`` (JSON-keyable)."""
    return {
        name: {str(seed): digest(name, seed) for seed in family.seeds}
        for name, family in FAMILIES.items()
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Recompute the determinism digests; print them, "
        "rewrite the reference file, or check them against it."
    )
    parser.add_argument(
        "--write", metavar="PATH", default=None,
        help="write every family's digests to PATH",
    )
    parser.add_argument(
        "--check", metavar="FAMILY", nargs="*", default=None,
        help="compare the named families (default: all) with the "
        "reference; exit 1 on any mismatch",
    )
    parser.add_argument(
        "--reference", metavar="PATH", default=str(REFERENCE_PATH),
        help="reference file for --check (default: the committed one)",
    )
    args = parser.parse_args(argv)
    if args.check is None:
        text = json.dumps(digest_all(), indent=2, sort_keys=True) + "\n"
        if args.write:
            with open(args.write, "w") as fh:
                fh.write(text)
            print(f"wrote {args.write}")
        else:
            print(text, end="")
        return 0

    # Everything that can be wrong with the request is reported before
    # the first (multi-second) run.
    unknown = [name for name in args.check if name not in FAMILIES]
    if unknown:
        print(f"unknown digest family {', '.join(unknown)} "
              f"(known: {', '.join(FAMILIES)})", file=sys.stderr)
        return 2
    try:
        with open(args.reference) as fh:
            reference = json.load(fh)
        if not isinstance(reference, dict):
            raise ValueError("top level is not an object")
    except (OSError, ValueError) as err:  # JSONDecodeError is a ValueError
        print(f"cannot read reference {args.reference}: {err}",
              file=sys.stderr)
        return 2
    mismatched = 0
    for name in args.check or FAMILIES:
        for seed in FAMILIES[name].seeds:
            got = digest(name, seed)
            matched = got == reference.get(name, {}).get(str(seed))
            mismatched += not matched
            print(f"{name} digest seed {seed}: "
                  f"{'ok' if matched else 'MISMATCH'} "
                  f"({got['combined'][:16]}...)")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
