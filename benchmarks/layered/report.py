"""Render a result document as plain text (stdout) or Markdown
(``results/BENCH_<pr>.md``): every metric by name, with its unit."""

from __future__ import annotations

from typing import Iterator, List, Tuple

from spec import PER_LAYER
from stats import spread

_UNITS = {row["name"]: row["unit"] for row in PER_LAYER}

#: (section, metric, value, unit, note)
Line = Tuple[str, str, float, str, str]


def _note(summary: dict) -> str:
    if "raw" not in summary or len(summary["raw"]) < 2:
        return ""
    return (f"median {summary['median']:.6g}  q1 {summary['q1']:.6g}  "
            f"q3 {summary['q3']:.6g}  spread {100 * spread(summary):.1f}%  "
            f"n={len(summary['raw'])}")


def _lines(document: dict) -> Iterator[Line]:
    for name, w in document["workloads"].items():
        for metric, summary in w["end_to_end"].items():
            yield (f"{name} / end to end", metric, summary["value"],
                   summary["unit"], _note(summary))
        harness = w["harness"]
        section = f"{name} / harness (what the clock read, not gated)"
        yield (section, "harness.calibration_s", harness["calibration_s"],
               "s", f"fastest of {len(harness['calibrations'])} rounds")
        yield (section, "harness.machine_speed", harness["machine_speed"],
               "ratio", "reference-box seconds per CPU second here")
        yield (section, "harness.run_norm", harness["run_norm"], "ratio",
               "fastest run / fastest calibration")
        for key, values in harness["cpu_s"].items():
            yield (section, f"harness.cpu_s.{key}", min(values), "s",
                   "fastest; all: " + " ".join(f"{v:.4g}" for v in values))
        for metric, value in w["counters"].items():
            yield (f"{name} / counters (untraced run, exact)", metric,
                   value, _UNITS[metric], "")
        trace = w.get("trace")
        if trace:
            section = (f"{name} / trace ({trace['size']} size, cProfile; "
                       f"{trace['untraced_s']:.2f} s untraced, "
                       f"{trace['traced_s']:.2f} s traced)")
            for metric, value in trace["metrics"].items():
                if value:  # layers the workload never enters stay silent
                    yield section, metric, value, _UNITS[metric], ""
            for layer, share in trace["other_top"]:
                yield (section, f"(inside other) {layer}", share, "ratio",
                       "informational")
        for metric, value in w.get("reconcile", {}).items():
            yield (f"{name} / reconcile (counters x layer table)", metric,
                   value, _UNITS[metric], "")
    for metric, row in document["layers"].get("rows", {}).items():
        section = ("feature-cost matrix (zipf@0.7 cell, on / off)"
                   if metric.startswith("feature_cost.")
                   else "isolated layer table")
        yield section, metric, row["value"], row["unit"], _note(row)


def _check_lines(document: dict) -> List[Tuple[str, str, bool, str]]:
    out = []
    for name, w in document["workloads"].items():
        out += [(name, c["name"], c["ok"], c["detail"]) for c in w["checks"]]
    for c in document["layers"].get("checks", []):
        out.append(("layers", c["name"], c["ok"], c["detail"]))
    return out


def _header(document: dict) -> List[str]:
    machine = document.get("machine", {})
    return [
        f"seed {document['seed']}  size {document.get('size', '-')}  "
        f"commit {document.get('commit', '-')}  "
        f"python {document.get('python', '-')}",
        f"machine: nproc {machine.get('nproc', '-')}; "
        f"{machine.get('note', '')}",
        "host times are reference-box seconds: time.process_time() of a "
        "single-threaded run x (reference calibration "
        f"{machine.get('calibration_ref_s', '-')} s / calibration timed "
        "beside it); the fastest repeat is reported, median and quartiles "
        "alongside; simulated-side values are exact for the seed",
    ]


def render_text(document: dict) -> str:
    out = _header(document)
    section = None
    for sec, metric, value, unit, note in _lines(document):
        if sec != section:
            section = sec
            out += ["", f"== {sec} =="]
        out.append(f"  {metric:52s} {value:>16.6g} {unit:6s} {note}")
    out += ["", "== checks =="]
    for scope, name, ok, detail in _check_lines(document):
        out.append(f"  {'ok  ' if ok else 'FAIL'} {scope}: {name} — {detail}")
    out.append("")
    out.append("RESULT: " + ("all checks passed" if document["ok"]
                             else "CHECKS FAILED"))
    return "\n".join(out)


def render_markdown(document: dict) -> str:
    out = ["# Layered benchmark result", ""] + [
        f"- {line}" for line in _header(document)]
    section = None
    for sec, metric, value, unit, note in _lines(document):
        if sec != section:
            section = sec
            out += ["", f"## {sec}", "",
                    "| metric | value | unit | repeats |",
                    "|---|---:|---|---|"]
        out.append(f"| `{metric}` | {value:.6g} | {unit} | {note} |")
    out += ["", "## checks", "", "| scope | check | ok | detail |",
            "|---|---|---|---|"]
    for scope, name, ok, detail in _check_lines(document):
        out.append(f"| {scope} | {name} | {'yes' if ok else '**NO**'} "
                   f"| {detail} |")
    out += ["", "Result: " + ("all checks passed" if document["ok"]
                              else "**checks failed**"), ""]
    return "\n".join(out)
