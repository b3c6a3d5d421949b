"""Command-line interface: run canned Haechi experiments from a shell.

Subcommands::

    python -m repro profile   [--clients 10] [--periods 20] [--scale 500]
    python -m repro run       [--mode haechi|basic|bare] [--distribution ...]
                              [--reserved-fraction 0.9] [--pattern ...]
    python -m repro faults    [--kind control-loss|client-crash ...]
    python -m repro chaos     [recovery|coord-crash|partition|policy-flip]
                              [--seeds 11 23 ...] [--periods N]
                              [--report out.json]
    python -m repro globalqos [--seeds 11 23 ...] [--report out.json]
    python -m repro telemetry [--sample N] [--trace out.json]
                              [--chaos-seed N]
    python -m repro figures
    python -m repro bench     [--workers N] [--cache DIR]
                              [--distribution uniform|zipf|both]
    python -m repro hunt      [--budget N] [--seed N] [--no-minimize]
                              [--report out.json] [--reproducers DIR]
                              [--replay repro.json]
    python -m repro scale     [--clients N] [--tenants N] [--periods N]
                              [--seed N] [--validate] [--report out.json]
    python -m repro policy    {list,show,validate,diff} ...

``run`` prints the per-client reservation-vs-served table for the
chosen configuration, the bread-and-butter view of the paper's
evaluation.  ``telemetry`` runs a scenario with span sampling on and
prints the per-stage latency decomposition (docs/OBSERVABILITY.md),
with optional Perfetto/JSONL exports.
``figures`` lists the benchmark that regenerates each of the paper's
tables/figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import format_table, meets_reservation
from repro.common.errors import ConfigError
from repro.common.types import QoSMode
from repro.cluster.calibration import CHAMELEON
from repro.cluster.experiment import run_experiment
from repro.cluster.profiling import run_profiling
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import (
    FAULT_KINDS,
    bare_cluster,
    faulty_qos_cluster,
    paper_demands,
    qos_cluster,
    reservation_set,
)
from repro.workloads.patterns import BURST_WINDOW, RequestPattern

_MODES = {
    "haechi": QoSMode.HAECHI,
    "basic": QoSMode.BASIC_HAECHI,
    "bare": QoSMode.BARE,
}

_CAPACITY = CHAMELEON.one_sided_system


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Haechi reproduction: token-based QoS for one-sided "
                    "RDMA storage (ICDCS 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)


    profile = sub.add_parser("profile", help="profile saturated capacity")
    profile.add_argument("--clients", type=int, default=10)
    profile.add_argument("--periods", type=int, default=20)
    profile.add_argument("--scale", type=float, default=500)

    run = sub.add_parser("run", help="run a QoS scenario")
    run.add_argument("--mode", choices=sorted(_MODES), default="haechi")
    run.add_argument("--distribution", choices=["uniform", "zipf", "spike"],
                     default="zipf")
    run.add_argument("--reserved-fraction", type=float, default=0.9)
    run.add_argument("--pattern", choices=["burst", "constant-rate"],
                     default="burst")
    run.add_argument("--clients", type=int, default=10)
    run.add_argument("--periods", type=int, default=8)
    run.add_argument("--warmup", type=int, default=3)
    run.add_argument("--scale", type=float, default=200)
    run.add_argument("--window", type=int, default=None,
                     help="completion-gated window for burst apps "
                          "(default: token-paced)")

    faults = sub.add_parser(
        "faults", help="run a QoS scenario under an injected fault plan"
    )
    faults.add_argument("--kind", choices=FAULT_KINDS, default="control-loss")
    faults.add_argument("--rate", type=float, default=0.05,
                        help="per-op probability for probabilistic kinds")
    faults.add_argument("--client", type=int, default=0,
                        help="victim client index for crash/qp-close kinds")
    faults.add_argument("--factor", type=float, default=0.5,
                        help="remaining NIC capacity during a brownout")
    faults.add_argument("--start-period", type=int, default=2)
    faults.add_argument("--end-period", type=int, default=None)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--distribution", choices=["uniform", "zipf", "spike"],
                        default="uniform")
    faults.add_argument("--reserved-fraction", type=float, default=0.75)
    faults.add_argument("--clients", type=int, default=3)
    faults.add_argument("--periods", type=int, default=10)
    faults.add_argument("--warmup", type=int, default=3)
    faults.add_argument("--scale", type=float, default=200)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos runs with invariant verdicts: the replicated "
             "cluster's crash/failover (recovery), the global "
             "coordinator's crash (coord-crash) and partition/failover/"
             "fail-slow (partition), or a policy hot-swap mid-failover "
             "(policy-flip)",
    )
    chaos.add_argument("scenario", nargs="?", default="recovery",
                       help="which declared scenario to run "
                            "(default: recovery)")
    chaos.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="seeds to run (default: the scenario's "
                            "documented set)")
    chaos.add_argument("--periods", type=int, default=None,
                       help="run length in QoS periods (default: the "
                            "scenario's)")
    chaos.add_argument("--report", metavar="PATH", default=None,
                       help="write the per-seed verdicts, counters and "
                            "ledger totals as JSON")

    globalqos = sub.add_parser(
        "globalqos",
        help="multi-node global coordinator: static-vs-coordinated skew "
             "comparison",
    )
    globalqos.add_argument("--seeds", type=int, nargs="+",
                           default=[11, 23, 37], help="seeds to run")
    globalqos.add_argument("--rebalance-periods", type=int, default=2,
                           help="QoS periods per rebalance epoch")
    globalqos.add_argument("--fallback-after", type=int, default=2,
                           help="silent epochs before clients restore the "
                                "static even split")
    globalqos.add_argument("--report", metavar="PATH", default=None,
                           help="write the per-seed comparison and ledger "
                                "conservation audit as JSON")

    telemetry = sub.add_parser(
        "telemetry",
        help="run a traced scenario: per-stage latency breakdown, "
             "Perfetto/JSONL exports",
    )
    telemetry.add_argument("--mode", choices=sorted(_MODES), default="haechi")
    telemetry.add_argument("--access", choices=["one-sided", "two-sided"],
                           default="one-sided",
                           help="data path for the bare scenario "
                                "(QoS modes are one-sided by design)")
    telemetry.add_argument("--clients", type=int, default=4)
    telemetry.add_argument("--periods", type=int, default=6)
    telemetry.add_argument("--warmup", type=int, default=2)
    telemetry.add_argument("--scale", type=float, default=200)
    telemetry.add_argument("--sample", type=int, default=10,
                           help="span sampling: record 1 op in N "
                                "(1 = every op, 0 = data spans off)")
    telemetry.add_argument("--trace", metavar="PATH", default=None,
                           help="write a Perfetto trace_event JSON file")
    telemetry.add_argument("--metrics", metavar="PATH", default=None,
                           help="write per-period metric snapshots as JSONL")
    telemetry.add_argument("--ledger", metavar="PATH", default=None,
                           help="write the token-ledger audit stream as JSONL")
    telemetry.add_argument("--chaos-seed", type=int, default=None,
                           help="trace one seeded recovery chaos run "
                                "instead of a QoS scenario")

    sub.add_parser("figures", help="list the paper-figure benchmarks")

    figure = sub.add_parser(
        "figure", help="regenerate one paper figure from a preset"
    )
    figure.add_argument("name", help="preset name (see `figure --list`)")
    figure.add_argument("--quick", action="store_true",
                        help="coarser dilation, fewer periods")

    bench = sub.add_parser(
        "bench",
        help="run a sweep through the parallel cell runner",
    )
    bench.add_argument("--workers", type=int, default=1,
                       help="worker processes (results are byte-identical "
                            "for any count)")
    bench.add_argument("--cache", default=None, metavar="DIR",
                       help="result-cache directory (cells re-run only "
                            "when their config hash is new)")
    bench.add_argument("--distribution", default="both",
                       choices=["uniform", "zipf", "both"])
    bench.add_argument("--seed", type=int, default=0,
                       help="master seed fed to every cell")
    bench.add_argument("--json", action="store_true",
                       help="print the canonical merged JSON instead of "
                            "the table")

    hunt = sub.add_parser(
        "hunt",
        help="search the scenario space for oracle violations "
             "(docs/HUNT.md)",
    )
    hunt.add_argument("--budget", type=int, default=40,
                      help="candidate runs in the search phase")
    hunt.add_argument("--seed", type=int, default=0,
                      help="campaign master seed (same seed + budget = "
                           "byte-identical report)")
    hunt.add_argument("--batch", type=int, default=8,
                      help="candidates per runner fan-out")
    hunt.add_argument("--minimize", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="delta-debug each finding to a minimal spec")
    hunt.add_argument("--workers", type=int, default=1,
                      help="worker processes for candidate fan-out")
    hunt.add_argument("--cache", default=None, metavar="DIR",
                      help="runner result-cache directory")
    hunt.add_argument("--report", default=None, metavar="PATH",
                      help="write the campaign report JSON here")
    hunt.add_argument("--reproducers", default=None, metavar="DIR",
                      help="write one reproducer file per finding here")
    hunt.add_argument("--replay", default=None, metavar="PATH",
                      help="replay one reproducer file instead of "
                           "searching; exit 0 iff it still reproduces")

    scale = sub.add_parser(
        "scale",
        help="fluid-approximation scale run: 10^4-10^6 simulated "
             "clients in seconds (docs/SCALE.md), with the optional "
             "down-scaled fluid-vs-DES equivalence check",
    )
    scale.add_argument("--clients", type=int, default=100_000,
                       help="simulated client population")
    scale.add_argument("--tenants", type=int, default=4)
    scale.add_argument("--groups-per-tenant", type=int, default=4)
    scale.add_argument("--periods", type=int, default=30)
    scale.add_argument("--seed", type=int, default=11,
                       help="hierarchy-shape seed (the engine itself "
                            "has no RNG)")
    scale.add_argument("--brownout", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="inject the mid-run 60%% capacity brownout")
    scale.add_argument("--resize", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="apply the two-thirds-mark coordinator "
                            "resize (decrease-before-increase)")
    scale.add_argument("--validate", action="store_true",
                       help="also run the down-scaled fluid-vs-exact-DES "
                            "equivalence check on the same seed")
    scale.add_argument("--report", metavar="PATH", default=None,
                       help="write the full run (and validation) report "
                            "as JSON")
    scale.add_argument("--json", action="store_true",
                       help="print the canonical report JSON instead of "
                            "the tables")

    fabric = sub.add_parser(
        "fabric",
        help="congestion-controlled fabric smoke: incast with DCQCN "
             "on/off (docs/FABRIC.md)",
    )
    fabric.add_argument("--seed", type=int, default=11,
                        help="scenario seed (ECN marks and verb mixes "
                             "derive private streams from it)")
    fabric.add_argument("--ops", type=int, default=1200,
                        help="ops per incast sender")
    fabric.add_argument("--report", metavar="PATH", default=None,
                        help="write the smoke report JSON here")

    policy = sub.add_parser(
        "policy",
        help="declarative QoS policy control plane: inspect, validate, "
             "and diff committed policy documents (docs/POLICY.md; the "
             "hot-swap scenario is `chaos policy-flip`)",
    )
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    policy_show = policy_sub.add_parser(
        "show", help="print one policy document (canonical JSON)"
    )
    policy_show.add_argument("name", help="builtin name or JSON path")
    policy_show.add_argument(
        "--schema", type=int, default=None,
        help="down-convert to this schema version before printing "
             "(what a consumer with that ceiling would receive)")
    policy_sub.add_parser(
        "list", help="list the committed builtin policy documents"
    )
    policy_validate = policy_sub.add_parser(
        "validate",
        help="load, schema-check, and round-trip every named document "
             "(default: all committed builtins)")
    policy_validate.add_argument(
        "names", nargs="*", help="builtin names or JSON paths")
    policy_diff = policy_sub.add_parser(
        "diff", help="field-level differences between two documents"
    )
    policy_diff.add_argument("old", help="builtin name or JSON path")
    policy_diff.add_argument("new", help="builtin name or JSON path")
    return parser


def _cmd_profile(args) -> int:
    scale = SimScale(factor=args.scale, interval_divisor=100)
    profiled = run_profiling(
        num_clients=args.clients, periods=args.periods, scale=scale
    )
    kiops = scale.kiops(profiled.mean)
    sigma = scale.kiops(profiled.stddev)
    print(f"profiled capacity: {kiops:.1f} KIOPS "
          f"(sigma {sigma:.2f}, {args.periods} periods, "
          f"{args.clients} clients)")
    print(f"Algorithm-1 floor (mean - 3*sigma): "
          f"{kiops - 3 * sigma:.1f} KIOPS")
    return 0


def _cmd_run(args) -> int:
    if not 0 < args.reserved_fraction <= 1:
        print("--reserved-fraction must be in (0, 1]", file=sys.stderr)
        return 2
    scale = SimScale(factor=args.scale, interval_divisor=200)
    reservations = reservation_set(
        args.distribution, args.reserved_fraction * _CAPACITY, args.clients
    )
    pool = (1 - args.reserved_fraction) * _CAPACITY
    demands = paper_demands(reservations, pool)
    pattern = (RequestPattern.BURST if args.pattern == "burst"
               else RequestPattern.CONSTANT_RATE)
    mode = _MODES[args.mode]

    if mode is QoSMode.BARE:
        cluster = bare_cluster(
            demands=demands, pattern=pattern, scale=scale,
            window=args.window or BURST_WINDOW,
        )
    else:
        cluster = qos_cluster(
            reservations=reservations, demands=demands, qos_mode=mode,
            pattern=pattern, scale=scale, window=args.window,
        )
    result = run_experiment(cluster, warmup_periods=args.warmup,
                            measure_periods=args.periods)

    verdicts = None
    if mode is not QoSMode.BARE:
        verdicts = meets_reservation(result, reservations)
    rows = []
    for i, reservation in enumerate(reservations):
        name = f"C{i+1}"
        row = [name, f"{reservation/1000:.0f}",
               f"{result.client_kiops(name):.0f}"]
        if verdicts is not None:
            row.append("yes" if verdicts[name] else "NO")
        rows.append(row)
    header = ["client", "reservation (KIOPS)", "served (KIOPS)"]
    if verdicts is not None:
        header.append("met")
    for line in format_table(header, rows):
        print(line)
    print(f"total: {result.total_kiops():.0f} KIOPS  "
          f"(mode={args.mode}, {args.distribution}, "
          f"{args.reserved_fraction:.0%} reserved, {args.pattern})")
    if verdicts is not None and not all(verdicts.values()):
        return 1
    return 0


def _cmd_faults(args) -> int:
    if not 0 < args.reserved_fraction <= 1:
        print("--reserved-fraction must be in (0, 1]", file=sys.stderr)
        return 2
    if not 0 <= args.client < args.clients:
        print(f"--client must be in [0, {args.clients})", file=sys.stderr)
        return 2
    scale = SimScale(factor=args.scale, interval_divisor=200)
    reservations = reservation_set(
        args.distribution, args.reserved_fraction * _CAPACITY, args.clients
    )
    pool = (1 - args.reserved_fraction) * _CAPACITY
    demands = paper_demands(reservations, pool)
    cluster = faulty_qos_cluster(
        reservations, demands,
        kind=args.kind,
        fault_seed=args.seed,
        fault_kwargs={
            "rate": args.rate,
            "client": args.client,
            "factor": args.factor,
            "start_period": args.start_period,
            "end_period": args.end_period,
        },
        scale=scale,
        master_seed=args.seed,
    )
    result = run_experiment(cluster, warmup_periods=args.warmup,
                            measure_periods=args.periods)

    rows = []
    for i, reservation in enumerate(reservations):
        name = f"C{i+1}"
        rows.append([name, f"{reservation/1000:.0f}",
                     f"{result.client_kiops(name):.0f}"])
    for line in format_table(
        ["client", "reservation (KIOPS)", "served (KIOPS)"], rows
    ):
        print(line)
    faults_seen = cluster.fault_injector.summary()
    print(f"total: {result.total_kiops():.0f} KIOPS  "
          f"(kind={args.kind}, rate={args.rate}, seed={args.seed})")
    print(f"faults: dropped={faults_seen['dropped_total']}  "
          f"delayed={faults_seen['delayed_total']}  "
          f"qps_closed={faults_seen['qps_closed']}")
    engines = [ctx.engine for ctx in cluster.clients]
    monitor = cluster.monitor
    print(f"control plane: "
          f"faa_failures={sum(e.faa_failures for e in engines)}  "
          f"timeouts={sum(e.faa_timeouts for e in engines)}  "
          f"degraded_entries={sum(e.degraded_entries for e in engines)}  "
          f"stale_reports={monitor.stale_reports}  "
          f"clamped={monitor.clamped_reports}")
    for eviction in monitor.evictions:
        print(f"evicted: client C{eviction['client'] + 1} at period "
              f"{eviction['period']} (reservation {eviction['reservation']})")
    return 0


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {path}")


def _cmd_chaos(args) -> int:
    from repro.cluster import chaos

    registry = chaos.scenarios()
    scenario = registry.get(args.scenario)
    if scenario is None:
        print(f"unknown chaos scenario {args.scenario!r} "
              f"(known: {', '.join(registry)})", file=sys.stderr)
        return 2
    seeds = args.seeds or scenario.seeds
    periods = args.periods if args.periods is not None else scenario.periods
    reports = []
    for seed in seeds:
        report, _cluster = chaos.run(scenario, seed, periods=periods)
        reports.append(report)
        for violation in report.violations:
            print(f"seed {seed}: {violation}", file=sys.stderr)
    failed = sum(not report.ok for report in reports)
    header = ["seed", "verdict"] + [
        name.replace("_", " ") for name in scenario.columns
    ]
    rows = [
        [str(r.seed), "PASS" if r.ok else "FAIL"]
        + [str(r.counters[name]) for name in scenario.columns]
        for r in reports
    ]
    for line in format_table(header, rows):
        print(line)
    print(f"{len(seeds) - failed}/{len(seeds)} seeds passed "
          f"({periods} periods, {scenario.summary})")
    if args.report:
        _write_report(args.report, {
            "scenario": scenario.name,
            "seeds": {str(r.seed): r.as_dict() for r in reports},
            "failed": failed,
        })
    return 1 if failed else 0


def _cmd_globalqos(args) -> int:
    from repro.globalqos import run_skewed_comparison

    payload: dict = {"mode": "comparison", "seeds": {}}
    failed = 0
    rows = []
    for seed in args.seeds:
        comparison = run_skewed_comparison(
            seed,
            rebalance_periods=args.rebalance_periods,
            fallback_after=args.fallback_after,
        )
        comparison.pop("_cluster")
        static = comparison["static"]
        coordinated = comparison["coordinated"]
        conserved = not (coordinated["ledger_violations"]
                         or coordinated["split_violations"])
        ok = (comparison["worst_gain"] > 0 and conserved)
        rows.append([
            str(seed),
            f"{static['worst_entitled_attainment']:.3f}",
            f"{coordinated['worst_entitled_attainment']:.3f}",
            f"{comparison['worst_gain']:+.3f}",
            str(coordinated["rebalances"]),
            str(coordinated["tokens_shifted"]),
            "PASS" if conserved else "FAIL",
        ])
        payload["seeds"][str(seed)] = comparison
        if not ok:
            failed += 1
            for violation in (coordinated["ledger_violations"]
                              + coordinated["split_violations"]):
                print(f"seed {seed}: {violation}", file=sys.stderr)
    for line in format_table(
        ["seed", "static worst", "coordinated worst", "gain",
         "rebalances", "tokens shifted", "conservation"],
        rows,
    ):
        print(line)
    print(f"{len(args.seeds) - failed}/{len(args.seeds)} seeds improved "
          "the worst entitled client's attainment with clean "
          "conservation audits")
    payload["failed"] = failed
    if args.report:
        _write_report(args.report, payload)
    return 1 if failed else 0


def _cmd_telemetry(args) -> int:
    from repro.common.types import AccessMode
    from repro.telemetry import (
        TelemetryConfig,
        attach_telemetry,
        format_stage_table,
        write_ledger_jsonl,
        write_metrics_jsonl,
        write_perfetto,
    )

    if args.sample < 0:
        print("--sample must be >= 0", file=sys.stderr)
        return 2

    if args.chaos_seed is not None:
        from repro.cluster import chaos
        from repro.recovery.chaos import NUM_CLIENTS, RECOVERY

        if args.clients != NUM_CLIENTS:
            print(f"--chaos-seed traces the fixed {NUM_CLIENTS}-client "
                  "recovery scenario; --clients does not apply",
                  file=sys.stderr)
            return 2
        report, cluster = chaos.run(
            RECOVERY, args.chaos_seed, periods=args.periods,
            telemetry=TelemetryConfig(sample_every=args.sample),
            trace_path=args.trace,
        )
        totals = report.ledger_totals
        print(f"chaos seed {args.chaos_seed}: "
              f"{'PASS' if report.ok else 'FAIL'}  "
              f"failovers={report.counters['failovers']}  "
              f"rejoins={report.counters['rejoins']}")
        print(f"token ledger: granted="
              f"{totals.get('granted_reservation', 0)}"
              f"+{totals.get('granted_pool', 0)} pool  "
              f"spent={totals.get('spent', 0)}  "
              f"yielded={totals.get('yielded', 0)}  "
              f"expired={totals.get('expired', 0)}  "
              f"accounts={totals.get('accounts', 0)}")
        counts = sorted(cluster.sim.telemetry.records.summary().items())
        print("records:", *(f"{k}={n}" for k, n in counts))
        for violation in report.violations:
            print(violation, file=sys.stderr)
        if args.trace:
            print(f"perfetto trace written to {args.trace}")
        return 0 if report.ok else 1

    scale = SimScale(factor=args.scale, interval_divisor=200)
    access = (AccessMode.ONE_SIDED if args.access == "one-sided"
              else AccessMode.TWO_SIDED)
    mode = _MODES[args.mode]
    if mode is QoSMode.BARE:
        demands = [_CAPACITY / args.clients * 1.5] * args.clients
        cluster = bare_cluster(demands=demands, scale=scale, access=access)
    else:
        # Stay under the per-client C_L admission cap for small counts.
        total = min(0.9 * _CAPACITY, args.clients * 350_000)
        reservations = reservation_set("uniform", total, args.clients)
        demands = paper_demands(reservations, _CAPACITY - total)
        cluster = qos_cluster(
            reservations=reservations, demands=demands, qos_mode=mode,
            scale=scale,
        )
    hub = attach_telemetry(cluster, TelemetryConfig(sample_every=args.sample))
    result = run_experiment(cluster, warmup_periods=args.warmup,
                            measure_periods=args.periods)

    for line in format_stage_table(hub.spans):
        print(line)
    store = hub.spans.export()
    print(f"spans: {store['recorded']} recorded "
          f"({store['started']} started, {store['dropped']} dropped, "
          f"sampling 1/{args.sample})  "
          f"total: {result.total_kiops():.0f} KIOPS")
    counts = sorted(hub.records.summary().items())
    print("records:", *(f"{k}={n}" for k, n in counts))
    if args.trace:
        events = write_perfetto(args.trace, hub.spans, store)
        print(f"perfetto trace: {args.trace} ({events} events)")
    if args.metrics:
        rows = write_metrics_jsonl(args.metrics, hub.period_rows)
        print(f"metrics snapshots: {args.metrics} ({rows} periods)")
    if args.ledger is not None and hub.ledger is not None:
        cluster.flush_ledgers()
        lines = write_ledger_jsonl(args.ledger, hub.ledger)
        print(f"token ledger: {args.ledger} ({lines} events)")
        violations = hub.ledger.check_conservation()
        for violation in violations:
            print(f"token ledger: {violation}", file=sys.stderr)
        if violations:
            return 1
    return 0


_FIGURES = [
    ("Table I", "bench_table1_config.py", "testbed configuration"),
    ("Fig. 6", "bench_fig06_client_throughput.py", "per-client saturation"),
    ("Fig. 7", "bench_fig07_scaling.py", "throughput vs active clients"),
    ("Fig. 8", "bench_fig08_demand_patterns.py", "demand x pattern matrix"),
    ("Fig. 9", "bench_fig09_haechi_qos.py", "Haechi vs bare (Exp 2A)"),
    ("Fig. 10", "bench_fig10_token_conversion.py", "conversion vs Basic"),
    ("Fig. 11", "bench_fig11_conversion_throughput.py", "totals ordering"),
    ("Fig. 12", "bench_fig12_reserved_capacity.py", "reserved-fraction sweep"),
    ("Fig. 13", "bench_fig13_request_patterns.py", "burst vs constant-rate"),
    ("Fig. 14", "bench_fig14_pattern_throughput.py", "pattern throughput"),
    ("Fig. 15", "bench_fig15_latency.py", "latency distributions"),
    ("Fig. 16", "bench_fig16_overestimation.py", "congestion onset"),
    ("Fig. 17", "bench_fig17_overestimation_client.py", "C1 under onset"),
    ("Fig. 18", "bench_fig18_underestimation.py", "congestion relief"),
    ("Fig. 19", "bench_fig19_underestimation_client.py", "C1 under relief"),
    ("ablation", "bench_ablation_batch.py", "token batch size B"),
    ("ablation", "bench_ablation_intervals.py", "tick granularity"),
    ("ablation", "bench_ablation_capacity.py", "Algorithm-1 parameters"),
    ("ablation", "bench_ablation_pacing.py", "completion-gated vs token-paced"),
    ("baseline", "bench_baseline_twosided_qos.py", "server-side QoS vs Haechi"),
    ("extension", "bench_ext_multinode.py", "multi-data-node Haechi"),
    ("extension", "bench_ext_limits.py", "limit (L_i) enforcement"),
    ("extension", "bench_ext_poisson.py", "QoS under Poisson arrivals"),
    ("extension", "bench_ext_faults.py", "QoS under injected faults"),
    ("extension", "bench_ext_recovery.py", "replication + client failover"),
    ("extension", "bench_ext_telemetry.py", "span sampling + stage latency"),
    ("extension", "bench_ext_globalqos.py", "coordinator vs static split"),
    ("extension", "bench_ext_failover.py", "coordinator failover chaos"),
    ("extension", "bench_ext_hunt.py", "anomaly-hunting campaign"),
    ("extension", "bench_ext_scale.py", "fluid fast path vs exact DES"),
    ("extension", "bench_ext_fabric.py", "verb-diverse NIC + DCQCN fabric"),
]


def _cmd_figure(args) -> int:
    from repro.cluster.presets import REGISTRY, get_preset

    if args.name == "--list" or args.name == "list":
        for line in format_table(
            ["preset", "regenerates"],
            [[name, REGISTRY[name].description] for name in sorted(REGISTRY)],
        ):
            print(line)
        return 0
    summary = get_preset(args.name).run(quick=args.quick)
    print(summary["title"])
    for line in format_table(summary["header"], summary["rows"]):
        print(line)
    totals = summary.get("totals")
    if totals:
        print("totals: " + "  ".join(f"{k}={v}" for k, v in totals.items()))
    series = summary.get("series")
    if series:
        from repro.analysis import sparkline

        for label, values in series.items():
            print(f"{label:>8}: {sparkline(values)}")
    return 0


def _cmd_bench(args) -> int:
    from repro.cluster.runner import RunnerError, fig12_cells, run_cells

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    distributions = (("uniform", "zipf") if args.distribution == "both"
                     else (args.distribution,))
    cells = fig12_cells(distributions=distributions, seed=args.seed)
    try:
        report = run_cells(cells, workers=args.workers, cache_dir=args.cache)
    except RunnerError as err:
        print(err, file=sys.stderr)
        return 1
    if args.json:
        print(report.merged_json())
        return 0
    rows = [
        [cell.params["distribution"], f"{cell.params['fraction']:.0%}",
         f"{result['total_kiops']:.0f}"]
        for cell, result in zip(report.cells, report.results)
    ]
    for line in format_table(["distribution", "reserved", "KIOPS"], rows):
        print(line)
    print(f"{len(cells)} cells in {report.wall_seconds:.2f}s "
          f"({args.workers} worker(s), cache: {report.cache_hits} hit(s) / "
          f"{report.cache_misses} miss(es))")
    return 0


def _cmd_hunt(args) -> int:
    from repro.hunt import HuntConfig, replay_file, run_hunt
    from repro.hunt.reproducer import write_reproducers

    if args.replay is not None:
        try:
            outcome = replay_file(args.replay)
        except (FileNotFoundError, json.JSONDecodeError) as err:
            print(err, file=sys.stderr)
            return 2
        if outcome.reproduced:
            print(f"{args.replay}: {outcome.kind!r} reproduced "
                  f"(kinds: {', '.join(outcome.kinds)})")
            return 0
        print(f"{args.replay}: {outcome.kind!r} did NOT reproduce "
              f"(replay kinds: {', '.join(outcome.kinds) or 'none'})",
              file=sys.stderr)
        return 1

    if args.budget < 1:
        print("--budget must be >= 1", file=sys.stderr)
        return 2
    config = HuntConfig(
        budget=args.budget, seed=args.seed, batch=args.batch,
        minimize=args.minimize, workers=args.workers,
        cache_dir=args.cache,
    )
    campaign = run_hunt(config, log=print)

    rows = []
    for finding in sorted(campaign.findings, key=lambda f: f.kind):
        spec = finding.minimized_spec or finding.spec
        rows.append([
            finding.kind, finding.oracle or "?", str(finding.found_at),
            str(finding.sightings), str(finding.minimize_steps),
            f"{spec.num_clients}c/{spec.periods}p/"
            f"{len(spec.faults)} fault(s)",
        ])
    if rows:
        for line in format_table(
            ["kind", "oracle", "found@", "seen", "dd-steps", "minimal"],
            rows,
        ):
            print(line)
    else:
        print("no oracle violations found")
    print("counters: " + "  ".join(
        f"{k}={v}" for k, v in sorted(campaign.counters.items())
    ))

    if args.report is not None:
        with open(args.report, "w") as fh:
            fh.write(campaign.to_json())
            fh.write("\n")
        print(f"report written to {args.report}")
    if args.reproducers is not None:
        import os

        os.makedirs(args.reproducers, exist_ok=True)
        paths = write_reproducers(args.reproducers, campaign)
        print(f"{len(paths)} reproducer(s) written to {args.reproducers}")
    if not campaign.ok:
        print("ERROR: finding(s) failed to re-reproduce during "
              "minimization (nondeterminism?)", file=sys.stderr)
        return 1
    return 0


def _cmd_scale(args) -> int:
    import time

    from repro.fluid.scenario import run_fluid_scale
    from repro.fluid.validate import run_equivalence

    started = time.perf_counter()
    report = run_fluid_scale(
        num_clients=args.clients,
        tenants=args.tenants,
        groups_per_tenant=args.groups_per_tenant,
        periods=args.periods,
        seed=args.seed,
        brownout=args.brownout,
        resize=args.resize,
    )
    wall = time.perf_counter() - started

    problems = list(report["hierarchy_violations"])
    problems += list(report["ledger_conservation"])
    payload: dict = {"scale": report, "wall_seconds": round(wall, 3)}

    if not args.json:
        rows = []
        for name in sorted(report["tenant_rollup"]):
            entry = report["tenant_rollup"][name]
            attainment = entry["attainment"]
            rows.append([
                name,
                str(entry["clients"]),
                str(entry["reservation"]),
                str(entry["completed"]),
                "-" if attainment is None else f"{attainment:.3f}",
            ])
        for line in format_table(
            ["tenant", "clients", "reservation (tokens/T)",
             "completed", "attainment"],
            rows,
        ):
            print(line)
        print(f"{report['num_clients']} clients / {report['flows']} flows "
              f"across {report['tenants']} tenants, "
              f"{report['periods']} periods in {wall:.2f}s wall-clock  "
              f"(conversions={report['conversions']}, "
              f"faa_batches={report['faa_batches']}, "
              f"resize_ops={len(report['resize_ops'])})")
        for problem in problems:
            print(problem, file=sys.stderr)

    failed = bool(problems)
    if args.validate:
        equivalence = run_equivalence(args.seed)
        payload["equivalence"] = equivalence
        if not args.json:
            print(f"equivalence (seed {args.seed}): "
                  f"{'PASS' if equivalence['ok'] else 'FAIL'}  "
                  f"max attainment error {equivalence['max_error']:.4f} "
                  f"(tier {equivalence['tolerance_tier']:.2f}), "
                  f"{len(equivalence['who_wins_reversals'])} who-wins "
                  f"reversal(s)")
            for pair in equivalence["who_wins_reversals"]:
                print(f"who-wins reversal: {pair}", file=sys.stderr)
        failed = failed or not equivalence["ok"]

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not args.json:
            print(f"report written to {args.report}")
    return 1 if failed else 0


def _cmd_figures(_args) -> int:
    for line in format_table(["artifact", "benchmark", "regenerates"],
                             _FIGURES):
        print(line)
    print("\nrun them all:  pytest benchmarks/ --benchmark-only")
    return 0


def _cmd_fabric(args) -> int:
    from repro.cluster.fabric_scenarios import run_incast

    rows = []
    runs = {}
    for label, cc in (("DCQCN on", True), ("DCQCN off", False)):
        r = run_incast(args.seed, cc_enabled=cc, ops_per_client=args.ops)
        runs["cc_on" if cc else "cc_off"] = r
        port = r["cc"]["ports"]["server"]
        rows.append([
            label, "yes" if r["all_finished"] else "NO",
            round(r["makespan"] * 1e3, 3) if r["makespan"] else "-",
            port["ecn_marks"], r["cc"]["qps"]["cnps_sent"],
            port["pfc_pause_events"],
        ])
    print(f"{runs['cc_on']['num_clients']}:1 incast, 4 KB READs, "
          f"{args.ops} ops/client, seed {args.seed}")
    for line in format_table(
        ["mode", "finished", "makespan ms", "ECN marks", "CNPs",
         "PFC pauses"], rows,
    ):
        print(line)

    ok = all(r["all_finished"] for r in runs.values())
    for label, r in runs.items():
        if "failed_ops" in r:
            print(f"FAIL: {label} completed {r['failed_ops']} ops in error",
                  file=sys.stderr)
            ok = False
    on = runs["cc_on"]
    if on["cc"]["qps"]["cnps_sent"] == 0:
        print("FAIL: DCQCN run produced no CNPs (no rate feedback)",
              file=sys.stderr)
        ok = False
    if runs["cc_off"]["cc"]["qps"]["cnps_sent"] != 0:
        print("FAIL: CC-disabled run generated CNPs", file=sys.stderr)
        ok = False

    if args.report:
        _write_report(args.report, {"seed": args.seed, "ops": args.ops,
                                    "ok": ok, "incast": runs})
    return 0 if ok else 1


def _cmd_policy(args) -> int:
    from repro.policy import (
        SUPPORTED_SCHEMA_VERSIONS,
        QoSPolicy,
        list_builtin,
        load_policy,
    )

    if args.policy_command == "list":
        rows = []
        for name in list_builtin():
            doc = load_policy(name)
            rows.append([
                name, doc.name, str(doc.version),
                str(doc.schema_version), str(len(doc.classes)),
                str(doc.num_clients()) if doc.classes else "-",
            ])
        for line in format_table(
            ["file", "policy", "revision", "schema", "classes",
             "clients"], rows,
        ):
            print(line)
        return 0

    if args.policy_command == "show":
        doc = load_policy(args.name)
        if args.schema is not None:
            doc = doc.downconvert(args.schema)
        print(doc.to_json(indent=2))
        return 0

    if args.policy_command == "diff":
        old = load_policy(args.old)
        new = load_policy(args.new)
        lines = old.diff(new)
        if not lines:
            print("documents are identical")
            return 0
        for line in lines:
            print(line)
        return 0

    if args.policy_command == "validate":
        names = args.names or list_builtin()
        if not names:
            print("no policy documents to validate", file=sys.stderr)
            return 2
        rows = []
        for name in names:
            doc = load_policy(name)
            # The committed form must survive a canonical
            # round-trip: what a consumer parses is what the
            # author validated.
            if QoSPolicy.from_json(doc.to_json()) != doc:
                raise ConfigError(
                    f"{name}: document does not round-trip through "
                    "its own canonical JSON"
                )
            floors = sorted(
                v for v in SUPPORTED_SCHEMA_VERSIONS
                if v <= doc.schema_version
            )
            downconverts = []
            for target in floors[:-1]:
                try:
                    doc.downconvert(target)
                    downconverts.append(f"v{target}:ok")
                except ConfigError:
                    downconverts.append(f"v{target}:rejected")
            rows.append([
                name, str(doc.version), str(doc.schema_version),
                ", ".join(downconverts) or "-", "PASS",
            ])
        for line in format_table(
            ["document", "revision", "schema", "down-convert",
             "verdict"], rows,
        ):
            print(line)
        print(f"{len(rows)} document(s) validated")
        return 0
    raise AssertionError(f"unhandled policy command {args.policy_command!r}")


_COMMANDS = {
    "profile": _cmd_profile,
    "run": _cmd_run,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "globalqos": _cmd_globalqos,
    "telemetry": _cmd_telemetry,
    "figures": _cmd_figures,
    "figure": _cmd_figure,
    "bench": _cmd_bench,
    "hunt": _cmd_hunt,
    "scale": _cmd_scale,
    "fabric": _cmd_fabric,
    "policy": _cmd_policy,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A semantic error in the request (:class:`ConfigError` from any
    layer) is one line on stderr and exit code 2, never a traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
