"""Named experiment presets: every paper experiment as a callable.

Each preset builds, runs, and summarizes one of the paper's experiment
configurations with a single call — the programmatic face of what the
``benchmarks/`` files do, reused by the CLI's ``figure`` subcommand.
Presets accept a ``quick`` flag that trades periods/dilation for speed.

The registry maps preset names (``fig9-zipf``, ``fig13`` ...) to
:class:`Preset` objects carrying a description and a runner that
returns a dict of printable series/tables.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.common.errors import ConfigError
from repro.common.types import AccessMode, QoSMode
from repro.cluster.calibration import CHAMELEON
from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import (
    SATURATING_OPS,
    bare_cluster,
    congestion_schedule,
    paper_demands,
    qos_cluster,
    reservation_set,
)
from repro.policy import load_policy
from repro.workloads.patterns import BURST_WINDOW, RequestPattern

CAPACITY = CHAMELEON.one_sided_system

# Reservation shapes load from the committed policy documents — one
# source of truth for the capacity split, shared with the CLI's
# ``policy`` subcommand and pinned by tests/policy/test_builtin.py.
# ``paper-qos`` reserves 90% of capacity (fig9/fig11/fig13);
# ``paper-congestion`` reserves 80% and leaves 20% of pool headroom
# for the background scan (set4 timelines).
PAPER_QOS_POLICY = load_policy("paper-qos")
PAPER_CONGESTION_POLICY = load_policy("paper-congestion")


@dataclasses.dataclass(frozen=True)
class Preset:
    """A named, runnable experiment configuration."""

    name: str
    description: str
    runner: Callable[[bool], dict]

    def run(self, quick: bool = False) -> dict:
        """Execute and return the result summary dict."""
        return self.runner(quick)


def _scales(quick: bool):
    if quick:
        return SimScale(factor=500, interval_divisor=100), 2, 4
    return SimScale(factor=200, interval_divisor=200), 3, 10


# ---------------------------------------------------------------------------
# Preset runners
# ---------------------------------------------------------------------------

def _run_fig7(quick: bool) -> dict:
    scale, warmup, periods = _scales(quick)
    series = {}
    for access in (AccessMode.ONE_SIDED, AccessMode.TWO_SIDED):
        points = []
        for n in range(1, 11):
            cluster = bare_cluster(
                demands=[SATURATING_OPS] * n, scale=scale, access=access
            )
            result = run_experiment(cluster, warmup_periods=warmup,
                                    measure_periods=periods)
            points.append(round(result.total_kiops()))
        series[access.value] = points
    return {
        "title": "system throughput vs active clients (KIOPS)",
        "header": ["clients", "1-sided", "2-sided"],
        "rows": [
            [n + 1, series["one_sided"][n], series["two_sided"][n]]
            for n in range(10)
        ],
    }


def _make_fig9_runner(distribution: str):
    def runner(quick: bool) -> dict:
        scale, warmup, periods = _scales(quick)
        reservations = reservation_set(
            distribution, PAPER_QOS_POLICY.reserved_fraction * CAPACITY
        )
        demands = paper_demands(
            reservations, PAPER_QOS_POLICY.pool_fraction() * CAPACITY
        )
        haechi = qos_cluster(reservations=reservations, demands=demands,
                             scale=scale)
        h = run_experiment(haechi, warmup_periods=warmup,
                           measure_periods=periods)
        bare = bare_cluster(demands=demands, scale=scale)
        b = run_experiment(bare, warmup_periods=warmup,
                           measure_periods=periods)
        rows = []
        for i, reservation in enumerate(reservations):
            name = f"C{i+1}"
            rows.append([
                name, round(reservation / 1000),
                round(h.client_kiops(name)), round(b.client_kiops(name)),
            ])
        return {
            "title": f"Haechi vs bare ({distribution} reservations, KIOPS)",
            "header": ["client", "reservation", "haechi", "bare"],
            "rows": rows,
            "totals": {"haechi": round(h.total_kiops()),
                       "bare": round(b.total_kiops())},
        }

    return runner


def _run_fig11(quick: bool) -> dict:
    scale, warmup, periods = _scales(quick)
    reservations = reservation_set(
        "zipf", PAPER_QOS_POLICY.reserved_fraction * CAPACITY
    )
    demands = paper_demands(
        reservations, PAPER_QOS_POLICY.pool_fraction() * CAPACITY
    )
    demands[0] = reservations[0] * 0.5
    demands[1] = reservations[1] * 0.5
    totals = {}
    for label, mode in (("haechi", QoSMode.HAECHI),
                        ("basic", QoSMode.BASIC_HAECHI)):
        cluster = qos_cluster(reservations=reservations, demands=demands,
                              qos_mode=mode, scale=scale)
        totals[label] = round(run_experiment(
            cluster, warmup_periods=warmup, measure_periods=periods
        ).total_kiops())
    bare = bare_cluster(demands=demands, scale=scale)
    totals["bare"] = round(run_experiment(
        bare, warmup_periods=warmup, measure_periods=periods
    ).total_kiops())
    return {
        "title": "totals with C1, C2 under-demanding (KIOPS)",
        "header": ["system", "KIOPS"],
        "rows": [[k, v] for k, v in totals.items()],
        "totals": totals,
    }


def _run_fig13(quick: bool) -> dict:
    scale, warmup, periods = _scales(quick)
    reservations = reservation_set(
        "spike", PAPER_QOS_POLICY.reserved_fraction * CAPACITY
    )
    demands = [
        r / PAPER_QOS_POLICY.reserved_fraction for r in reservations
    ]
    out = {}
    for label, pattern, window in (
        ("burst", RequestPattern.BURST, BURST_WINDOW),
        ("constant-rate", RequestPattern.CONSTANT_RATE, None),
    ):
        cluster = qos_cluster(
            reservations=reservations, demands=demands, pattern=pattern,
            window=window, scale=scale,
        )
        out[label] = run_experiment(cluster, warmup_periods=warmup,
                                    measure_periods=periods)
    rows = []
    for i, reservation in enumerate(reservations):
        name = f"C{i+1}"
        rows.append([
            name, round(reservation / 1000),
            round(out["burst"].client_kiops(name)),
            round(out["constant-rate"].client_kiops(name)),
        ])
    return {
        "title": "spike reservations: burst vs constant-rate (KIOPS)",
        "header": ["client", "reservation", "burst", "constant-rate"],
        "rows": rows,
        "totals": {k: round(v.total_kiops()) for k, v in out.items()},
    }


def _make_set4_runner(onset: bool, distribution: str):
    def runner(quick: bool) -> dict:
        scale, warmup, _ = _scales(quick)
        periods = 16 if quick else 30
        switch = periods // 2
        reservations = reservation_set(
            distribution,
            PAPER_CONGESTION_POLICY.reserved_fraction * CAPACITY,
        )
        cluster = qos_cluster(
            reservations=reservations,
            demands=paper_demands(
                reservations,
                PAPER_CONGESTION_POLICY.pool_fraction() * CAPACITY,
            ),
            scale=scale,
        )
        schedule = congestion_schedule(
            onset, switch + warmup, periods + warmup + 2,
            cluster.config.period,
        )
        cluster.add_background_job(schedule=schedule, rate_ops=200_000)
        result = run_experiment(cluster, warmup_periods=warmup,
                                measure_periods=periods)
        series = [round(v) for v in result.total_kiops_series()]
        c1 = [round(v) for v in result.client_kiops_series("C1")]
        direction = "starts" if onset else "stops"
        return {
            "title": f"congestion {direction} at period {switch + 1} "
                     f"({distribution})",
            "header": ["period", "total KIOPS", "C1 KIOPS"],
            "rows": [[i + 1, series[i], c1[i]] for i in range(len(series))],
            "series": {"total": series, "C1": c1},
        }

    return runner


def _run_fabric_incast(quick: bool) -> dict:
    from repro.cluster.fabric_scenarios import run_incast

    ops = 1200 if quick else 4000
    seed = 11
    on = run_incast(seed, cc_enabled=True, ops_per_client=ops)
    off = run_incast(seed, cc_enabled=False, ops_per_client=ops)
    rows = []
    for label, r in (("DCQCN on", on), ("DCQCN off", off)):
        port = r["cc"]["ports"]["server"]
        mk = r["makespan"]
        rows.append([
            label, round(mk * 1e3, 3),
            port["ecn_marks"], r["cc"]["qps"]["cnps_sent"],
            port["pfc_pause_events"],
            round(port["pfc_pause_events"] / mk) if mk else 0,
        ])
    min_rate = on["cc"]["min_congested_rate_bps"]
    return {
        "title": f"{on['num_clients']}:1 incast, 4 KB READs, "
                 f"{ops} ops/client (seed {seed})",
        "header": ["mode", "makespan ms", "ECN marks", "CNPs",
                   "PFC pauses", "pauses/s"],
        "rows": rows,
        "totals": {
            "line_rate_MBps": 6250,
            "min_congested_rate_MBps": round(min_rate / 1e6)
            if min_rate else None,
        },
        "series": {
            "rates_MBps": [round(q["rate_bps"] / 1e6) for q in on["qps"]],
        },
    }


def _run_fabric_throttle(quick: bool) -> dict:
    from repro.cluster.fabric_scenarios import (
        THROTTLE_HIGH_OPS,
        THROTTLE_LOW_OPS,
        run_throttle_vs_cc,
    )

    seed = 11
    measure = 4 if quick else 8
    rows = []
    for label, res in (("token-bound", THROTTLE_LOW_OPS),
                       ("fabric-bound", THROTTLE_HIGH_OPS)):
        r = run_throttle_vs_cc(seed, res, measure=measure)
        att = list(r["attainment"].values())
        port = r["cc"]["ports"]["server"]
        rows.append([
            label, res // 1000, round(r["total_kiops"]),
            round(min(att), 3), round(max(att), 3),
            r["cc"]["qps"]["cnps_sent"], port["pfc_pause_events"],
        ])
    return {
        "title": f"Haechi tokens vs fabric congestion (seed {seed})",
        "header": ["regime", "res KIOPS/client", "total KIOPS",
                   "att min", "att max", "CNPs", "PFC pauses"],
        "rows": rows,
    }


REGISTRY: Dict[str, Preset] = {
    "fig7": Preset("fig7", "throughput vs active clients", _run_fig7),
    "fig9-uniform": Preset("fig9-uniform", "Haechi vs bare, uniform",
                           _make_fig9_runner("uniform")),
    "fig9-zipf": Preset("fig9-zipf", "Haechi vs bare, zipf",
                        _make_fig9_runner("zipf")),
    "fig11": Preset("fig11", "work conservation totals", _run_fig11),
    "fig13": Preset("fig13", "burst vs constant-rate, spike", _run_fig13),
    "fig16": Preset("fig16", "congestion onset timeline (uniform)",
                    _make_set4_runner(True, "uniform")),
    "fig17-zipf": Preset("fig17-zipf", "congestion onset, C1 dip (zipf)",
                         _make_set4_runner(True, "zipf")),
    "fig18": Preset("fig18", "congestion relief timeline (uniform)",
                    _make_set4_runner(False, "uniform")),
    "fabric-incast": Preset(
        "fabric-incast", "8:1 incast on the modeled fabric, DCQCN on/off",
        _run_fabric_incast),
    "fabric-throttle": Preset(
        "fabric-throttle", "token-bound vs fabric-bound QoS attainment",
        _run_fabric_throttle),
}


def get_preset(name: str) -> Preset:
    """Look up a preset; raises ConfigError with the known names."""
    preset = REGISTRY.get(name)
    if preset is None:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown preset {name!r}; known: {known}")
    return preset
