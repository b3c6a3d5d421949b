#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end-to-end and per-layer.

Whole benchmark (what a person runs; ~3.5 min on the reference box)::

    python3 benchmarks/layered/run.py [--seed 11] [--out FILE]

runs every workload 5x (repeats interleaved A B C D A B C D ..., each in
its own fresh sequential subprocess), one traced run per workload, the
isolated layer table and the feature-cost matrix; prints every metric
by name with its unit; checks the outputs; writes one JSON document
(and a Markdown rendering beside it); exits non-zero on a failed check.
``--only W`` / ``--layers-only`` narrow it for iteration and
``--selftest`` pushes every workload through the full path at toy size
in seconds.

One workload (what the PR driver runs)::

    python3 benchmarks/layered/run.py --workload W --seed N \\
        --seconds S --trace 0|1

measures W for about S seconds (never fewer than 5 repeats) and prints,
as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the gated end-to-end metrics
with ``--trace 0``, every per-layer metric with ``--trace 1``.

See README.md for what each workload is for and how the metrics
interact.  Nothing under ``src/`` is changed or monkeypatched: every
layer is measured from outside.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

MIN_REPEATS = 5
#: A worker that runs longer than this is stuck (the driver allows a
#: whole run 180 s).
WORKER_TIMEOUT_S = 150
DIGESTS_FILE = HERE / "digests.json"
PINNED_SEEDS = (11, 23)


# ---------------------------------------------------------------------------
# Workers: each runs in its own fresh process and prints one JSON line.
# ---------------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """This process's peak resident set, in MB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the forking
    parent's resident size across ``exec`` into the child's
    ``ru_maxrss``, so a worker spawned by a parent that has grown to
    100 MB would report 100 MB however little it used itself.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(workload, seed: int) -> None:
    """Untimed toy run: finishes imports and lazy registration so the
    timed phases see warm module state, as a second call would."""
    from workloads import SIZES

    state = workload.setup(SIZES[workload.name]["toy"], seed)
    workload.run(state, None)
    workload.collect(state)


def worker_repeat(name: str, size: str, seed: int) -> dict:
    """One untraced repeat: set-up, run, collect — then set-up again a
    few times for a steadier ``setup_s``.

    The extra builds come *after* the timed run so that the run sees the
    heap a user's process would have (imports plus one build), with the
    garbage collector in whatever state that leaves it; the first
    build's time is one of the set-up samples."""
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[name]
    params = SIZES[name][size]
    _warm_up(workload, seed)
    clock = time.process_time
    start = clock()
    state = workload.setup(params, seed)
    setup_samples = [clock() - start]
    start = clock()
    workload.run(state, None)
    run_host_s = clock() - start
    start = clock()
    outcome = workload.collect(state)
    collect_s = clock() - start
    peak_rss_mb = _peak_rss_mb()
    state = None
    for _ in range(params["setup_repeats"] - 1):
        gc.collect()  # the previous build is the harness's garbage
        start = clock()
        workload.setup(params, seed)
        setup_samples.append(clock() - start)
    return {
        "workload": name, "size": size, "seed": seed,
        "host": {
            "setup_s": statistics.median(setup_samples),
            "setup_samples": setup_samples,
            "run_host_s": run_host_s,
            "collect_s": collect_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "outcome": outcome.to_dict(),
    }


def worker_trace(name: str, size: str, seed: int) -> dict:
    """The traced run: the workload once untraced and once under
    cProfile with heap sampling, both at ``size`` in this process, so
    their ratio is the tracing overhead per unit of work."""
    import trace as tracing
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[name]
    params = SIZES[name][size]
    _warm_up(workload, seed)
    clock = time.process_time

    state = workload.setup(params, seed)
    start = clock()
    workload.run(state, None)
    untraced_s = clock() - start
    untraced = workload.collect(state)
    state = None
    gc.collect()

    spans = tracing.SpanLog(clock)
    root = spans.open(f"bench.{name}")
    span = spans.open(f"bench.{name}.setup", root)
    state = workload.setup(params, seed)
    spans.close(span)
    watch = tracing.HeapWatch(clock)
    start = clock()
    profile = tracing.profiled(lambda: workload.run(state, watch))
    traced_s = clock() - start
    watch.spans_into(spans, f"bench.{name}", root)
    span = spans.open(f"bench.{name}.collect", root)
    outcome = workload.collect(state)
    spans.close(span)
    spans.close(root)

    folded = tracing.fold_by_layer(profile)
    metrics = tracing.layer_metrics(folded, outcome.work_units)
    metrics.update(watch.summary())
    metrics["trace.overhead_ratio"] = (
        (traced_s / outcome.work_units)
        / (untraced_s / untraced.work_units)
    )
    return {
        "workload": name, "size": size, "seed": seed,
        "metrics": metrics,
        "untraced_s": untraced_s, "traced_s": traced_s,
        "other_top": tracing.top_unnamed(folded),
        "spans": spans.spans,
        # The heap-sampling callbacks only read, so the traced run must
        # produce the simulated result the untraced one did.
        "same_result": outcome.digest() == untraced.digest(),
        "outcome": outcome.to_dict(),
    }


def spawn(kind: str, *args) -> dict:
    """Run one worker (``repeat`` / ``trace`` / ``layers``) to completion
    in a fresh interpreter and return the JSON object it printed."""
    command = [sys.executable, str(HERE / "run.py"), "--worker", kind,
               *map(str, args)]
    # A fixed hash seed makes dict/set layouts, and so host time, repeat
    # from one worker to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=str(ROOT), env=env)
    if done.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(command[3:])} exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Aggregation and checks
# ---------------------------------------------------------------------------
def _pinned_digest(name: str, size: str, seed: int) -> Optional[str]:
    if size != "standard" or not DIGESTS_FILE.exists():
        return None
    pinned = json.loads(DIGESTS_FILE.read_text())
    return pinned.get(name, {}).get(str(seed))


def _applicable(checks: List[dict], size: str) -> List[dict]:
    """Attainment thresholds bind at the standard size only."""
    return [dict(c) for c in checks
            if size == "standard" or not c["standard_only"]]


def machine_speed(calibrations: List[float]) -> float:
    """Reference-box seconds per CPU second of this machine, right now.

    The calibration loop is timed in the idle parent between the workers
    (one load-generating process at a time).  Its fastest round is the
    best view of the machine this run got; the reference box in its
    quiet state needs ``spec.CALIBRATION_REF_S`` for the same loop.
    """
    from spec import CALIBRATION_REF_S

    return CALIBRATION_REF_S / min(calibrations)


def aggregate(name: str, size: str, seed: int, repeats: List[dict],
              calibrations: List[float]) -> dict:
    """Fold one workload's repeats: host-side numbers in reference-box
    seconds (fastest repeat reported, quartiles and every raw value
    kept), the identical simulated side once, every check's verdict."""
    from spec import END_TO_END
    from stats import summarize

    first = repeats[0]["outcome"]
    checks = _applicable(first["checks"], size)
    identical = all(r["outcome"] == first for r in repeats[1:])
    checks.append({
        "name": "repeats_identical", "ok": identical,
        "detail": f"{len(repeats)} repeats, simulated side "
                  + ("equal" if identical else "DIFFERS"),
    })
    pinned = _pinned_digest(name, size, seed)
    if pinned is not None:
        checks.append({
            "name": "digest_pinned", "ok": first["digest"] == pinned,
            "detail": f"{first['digest'][:16]} vs pinned {pinned[:16]}",
        })

    speed = machine_speed(calibrations)
    hosts = [r["host"] for r in repeats]
    run_ref = [h["run_host_s"] * speed for h in hosts]
    end_to_end = {
        "setup_s": summarize([h["setup_s"] * speed for h in hosts], "min"),
        "run_host_s": summarize(run_ref, "min"),
        "peak_rss_mb": summarize([h["peak_rss_mb"] for h in hosts]),
        "sim_ops_per_host_s": summarize(
            [first["completed"] / t for t in run_ref], "max"),
    }
    if first["client_periods"]:
        end_to_end["client_periods_per_host_s"] = summarize(
            [first["client_periods"] / t for t in run_ref], "max")
    simulated = dict(first["end_to_end"])
    simulated["failed_op_share"] = first["failed"] / first["attempted"]
    for metric, value in simulated.items():
        end_to_end[metric] = {"value": value}
    units = {row["name"]: row["unit"] for row in END_TO_END}
    for metric, row in end_to_end.items():
        row["unit"] = units.get(metric, "count")
    return {
        "workload": name, "size": size, "seed": seed,
        "repeats": len(repeats),
        "end_to_end": end_to_end,
        "harness": {
            "calibration_s": min(calibrations),
            "calibrations": calibrations,
            "machine_speed": speed,
            "run_norm": min(h["run_host_s"] for h in hosts)
            / min(calibrations),
            # what the clock actually read, before any rescaling
            "cpu_s": {key: [h[key] for h in hosts]
                      for key in ("setup_s", "run_host_s", "collect_s")},
        },
        "attempted": first["attempted"],
        "failed": first["failed"],
        "completed": first["completed"],
        "work_units": first["work_units"],
        "digest": first["digest"],
        "counters": first["counters"],
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def trace_checks(traced: dict, size: str) -> List[dict]:
    """Checks on a traced worker's output."""
    shares = sum(v for k, v in traced["metrics"].items()
                 if k.endswith(".self_share"))
    checks = _applicable(traced["outcome"]["checks"], size)
    checks.append({
        "name": "trace_shares_sum_to_one", "ok": abs(shares - 1.0) <= 0.01,
        "detail": f"self shares sum to {shares:.4f}",
    })
    checks.append({
        "name": "traced_result_unchanged", "ok": traced["same_result"],
        "detail": "traced and untraced runs produced "
                  + ("equal" if traced["same_result"] else "DIFFERENT")
                  + " simulated results",
    })
    return checks


def reconcile(name: str, summary: dict, layer_values: Dict[str, float]
              ) -> Dict[str, float]:
    """The two views against each other: exact per-workload counts times
    isolated per-call costs, as an estimate of ``run_host_s``.

    Each term is a count the untraced run produced multiplied by the
    layer-table row that exercises the same path in isolation (a row's
    cost includes everything beneath it, so terms are chosen not to
    overlap).  The residual is what the isolated rows do not explain —
    dispatch through the apps, cache effects of the bigger working set,
    heap depth — and is reported, not thresholded.
    """
    counters = summary["counters"]
    ops = summary["work_units"]
    us = 1e-6
    if name in ("fig12_sweep", "des_1k_clients"):
        monitor_row = ("core.monitor.us_per_period_10c"
                       if name == "fig12_sweep"
                       else "core.monitor.us_per_period_1000c")
        estimate = (
            ops * layer_values["core.engine.us_per_op_tokened"] * us
            + counters["core.engine.faa_issued"]
            * layer_values["core.engine.us_per_control_tick"] * us
            + counters["core.monitor.periods"] * layer_values[monitor_row] * us
        )
    elif name == "fabric_incast_mixed":
        estimate = (
            counters["rdma.qp.single_posts"]
            * layer_values["rdma.qp.us_per_read_fabric"] * us
            + counters["rdma.qp.chain_wrs"]
            * layer_values["rdma.qp.us_per_wr_chain16"] * us
        )
    else:
        estimate = (
            counters["fluid.engine.flow_periods"]
            * layer_values["fluid.engine.us_per_flow_period"] * us
        )
    run_host_s = summary["end_to_end"]["run_host_s"]["value"]
    return {
        "reconcile.estimate_s": estimate,
        "reconcile.residual_share": (run_host_s - estimate) / run_host_s,
    }


# ---------------------------------------------------------------------------
# One workload, for the PR driver
# ---------------------------------------------------------------------------
def measure_for(name: str, size: str, seed: int, seconds: float,
                min_repeats: int = MIN_REPEATS):
    """Repeats of one workload until ``seconds`` are spent, never fewer
    than ``min_repeats``, with a calibration round before the first and
    after each.  Returns ``(repeats, calibrations)``."""
    from stats import calibration_round

    repeats: List[dict] = []
    started = time.monotonic()
    calibrations = [calibration_round()]
    while True:
        repeats.append(spawn("repeat", name, size, seed))
        calibrations.append(calibration_round())
        elapsed = time.monotonic() - started
        if (len(repeats) >= min_repeats
                and elapsed + elapsed / len(repeats) > seconds):
            return repeats, calibrations


def driver_result(name: str, seed: int, seconds: float, traced: bool,
                  size: str = "standard") -> dict:
    """The object the PR driver parses: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the gated end-to-end metrics untraced,
    every per-layer metric traced."""
    from spec import END_TO_END, PER_LAYER

    if traced:
        # one untraced repeat for the exact counters, the traced run,
        # and the quick layer table
        summary = aggregate(name, size, seed,
                            *measure_for(name, size, seed, 0.0, 1))
        trace_size = "quarter" if size == "standard" else size
        trace = spawn("trace", name, trace_size, seed)
        table = spawn("layers", "quick", seed)
        checks = (summary["checks"] + trace_checks(trace, trace_size)
                  + table["checks"])
        values = dict(table["values"])
        values.update(summary["counters"])
        values.update(trace["metrics"])
        values.update(reconcile(name, summary, values))
        for metric in ("calibration_s", "run_norm"):
            values[f"harness.{metric}"] = summary["harness"][metric]
        wanted = PER_LAYER
    else:
        summary = aggregate(name, size, seed,
                            *measure_for(name, size, seed, seconds))
        checks = summary["checks"]
        values = {k: v["value"] for k, v in summary["end_to_end"].items()}
        wanted = [row for row in END_TO_END if row["gated"]]
    for check in checks:
        if not check["ok"]:
            print(f"CHECK FAILED {name}: {check['name']}: "
                  f"{check['detail']}", file=sys.stderr)
    return {
        "correct": all(c["ok"] for c in checks),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            row["name"]: {"value": values[row["name"]],
                          "unit": row["unit"]}
            for row in wanted
        },
    }


# ---------------------------------------------------------------------------
# The whole benchmark
# ---------------------------------------------------------------------------
def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def full_run(seed: int, names: List[str], size: str, repeats: int,
             with_layers: bool, quick_layers: bool) -> dict:
    """Everything, into one document."""
    from spec import CALIBRATION_REF_S, REFERENCE_MACHINE
    from stats import calibration_round

    started = time.monotonic()
    raw: Dict[str, List[dict]] = {name: [] for name in names}
    beside: Dict[str, List[float]] = {name: [] for name in names}
    # Round-robin so a slow phase of the host does not land on one
    # workload; a calibration round between every two workers, each
    # counted for the workloads on both sides of it.
    calibration = calibration_round()
    for _ in range(repeats):
        for name in names:
            beside[name].append(calibration)
            raw[name].append(spawn("repeat", name, size, seed))
            calibration = calibration_round()
            beside[name].append(calibration)
            print(f"  {name} repeat {len(raw[name])}/{repeats}: "
                  f"{raw[name][-1]['host']['run_host_s']:.3f} CPU-s "
                  f"(calibration {calibration:.3f} s)", file=sys.stderr)
    trace_size = "quarter" if size == "standard" else size
    document = {
        "schema": 1,
        "seed": seed,
        "size": size,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "machine": {"nproc": os.cpu_count(), "note": REFERENCE_MACHINE,
                    "platform": platform.platform(),
                    "calibration_ref_s": CALIBRATION_REF_S},
        "workloads": {},
        "layers": {},
    }
    if with_layers:
        print("  layer table + feature-cost matrix ...", file=sys.stderr)
        document["layers"] = spawn("layers", "quick" if quick_layers else "full", seed)
    layer_values = document["layers"].get("values", {})
    for name in names:
        summary = aggregate(name, size, seed, raw[name], beside[name])
        print(f"  {name} traced run ...", file=sys.stderr)
        traced = spawn("trace", name, trace_size, seed)
        summary["trace"] = {
            "size": trace_size,
            "metrics": traced["metrics"],
            "untraced_s": traced["untraced_s"],
            "traced_s": traced["traced_s"],
            "other_top": traced["other_top"],
            "spans": traced["spans"],
        }
        summary["checks"] += trace_checks(traced, trace_size)
        summary["ok"] = all(c["ok"] for c in summary["checks"])
        if layer_values:
            summary["reconcile"] = reconcile(name, summary, layer_values)
        document["workloads"][name] = summary
    document["ok"] = (
        all(w["ok"] for w in document["workloads"].values())
        and document["layers"].get("ok", True)
    )
    document["wall_s"] = time.monotonic() - started
    return document


def full_main(args) -> int:
    import report
    from spec import WORKLOADS

    names = [w["name"] for w in WORKLOADS]
    if args.only:
        names = [args.only]
    if args.layers_only:
        document = {"schema": 1, "seed": args.seed, "workloads": {},
                    "layers": spawn("layers", "full", args.seed), "ok": True}
    else:
        document = full_run(args.seed, names, "standard", MIN_REPEATS,
                            with_layers=not args.only, quick_layers=False)
    print(report.render_text(document))
    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        out.with_suffix(".md").write_text(report.render_markdown(document))
        print(f"wrote {out} and {out.with_suffix('.md')}")
    return 0 if document["ok"] else 1


def pin_digests() -> int:
    """Re-pin ``digests.json`` for the pinned seeds (run after a PR that
    changes simulated behaviour on purpose, and say so in that PR)."""
    from spec import WORKLOADS

    pinned = {
        w["name"]: {
            str(seed): spawn("repeat", w["name"], "standard", seed)
            ["outcome"]["digest"]
            for seed in PINNED_SEEDS
        }
        for w in WORKLOADS
    }
    DIGESTS_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {DIGESTS_FILE}")
    return 0


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark: four workloads, end-to-end and "
                    "per-layer metrics, traced run.")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", help="write the JSON document here "
                        "(and a .md rendering beside it)")
    parser.add_argument("--only", help="run just this workload")
    parser.add_argument("--layers-only", action="store_true",
                        help="run just the layer table and feature matrix")
    parser.add_argument("--selftest", action="store_true",
                        help="every workload at toy size through the full "
                             "path (< 20 s)")
    parser.add_argument("--pin-digests", action="store_true",
                        help="rewrite digests.json for seeds 11 and 23")
    # the PR driver's interface
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one measurement in this (fresh) process
    parser.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator to measure: {SRC / 'repro'} is "
              "missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from spec import WORKLOADS

    known = [w["name"] for w in WORKLOADS]
    for chosen in (args.workload, args.only):
        if chosen is not None and chosen not in known:
            parser.error(f"unknown workload {chosen!r} (know {known})")

    if args.worker:
        kind, *rest = args.worker
        if kind == "repeat":
            result = worker_repeat(rest[0], rest[1], int(rest[2]))
        elif kind == "trace":
            result = worker_trace(rest[0], rest[1], int(rest[2]))
        elif kind == "layers":
            import layers

            result = layers.run_all(quick=rest[0] == "quick",
                                    seed=int(rest[1]))
        else:
            parser.error(f"unknown worker kind {kind!r}")
        print(json.dumps(result))
        return 0
    if args.selftest:
        import selftest

        return selftest.main(args.seed)
    if args.pin_digests:
        return pin_digests()
    if args.workload:
        result = driver_result(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
