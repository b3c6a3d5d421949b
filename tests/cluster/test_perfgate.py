"""Perf-gate mechanics (decision logic, baseline I/O — not timing)."""

from __future__ import annotations

import json
import pathlib

from repro.cluster import perfgate


def test_measure_reports_positive_scores():
    scores = perfgate.measure(rounds=1)
    assert scores["calibration_seconds"] > 0
    assert scores["workload_seconds"] > 0
    assert scores["normalized"] > 0
    assert scores["events"] > 0
    assert scores["events_per_op"] > 0


def test_write_then_check_passes(tmp_path):
    baseline = tmp_path / "perf_baseline.json"
    assert perfgate.main(["--write", "--rounds", "1",
                          "--baseline", str(baseline)]) == 0
    payload = json.loads(baseline.read_text())
    assert set(payload) == {
        "calibration_seconds", "workload_seconds", "normalized",
        "events", "events_per_op", "fluid_calls_per_period",
    }
    # A generous tolerance makes the check insensitive to machine noise.
    assert perfgate.main(["--rounds", "1", "--tolerance", "10.0",
                          "--baseline", str(baseline)]) == 0


def test_regression_fails_the_gate(tmp_path):
    baseline = tmp_path / "perf_baseline.json"
    baseline.write_text(json.dumps({
        "calibration_seconds": 1.0,
        "workload_seconds": 0.001,
        "normalized": 0.001,  # absurdly fast baseline: any run regresses
    }))
    assert perfgate.main(["--rounds", "1",
                          "--baseline", str(baseline)]) == 1


def test_missing_baseline_is_an_error(tmp_path):
    assert perfgate.main(["--rounds", "1",
                          "--baseline", str(tmp_path / "nope.json")]) == 2


def test_event_budget_is_exact_and_gated(tmp_path, capsys):
    """The event count is deterministic, so the gate holds it with no
    tolerance: a ceiling equal to a previous run's count passes, one
    event under it fails (so every run schedules exactly that many)."""
    first = perfgate.measure(rounds=1)
    baseline = tmp_path / "perf_baseline.json"
    payload = {"calibration_seconds": 1.0, "workload_seconds": 1000.0,
               "normalized": 1000.0,  # timing can never fail
               "events": first["events"],
               "events_per_op": first["events_per_op"]}
    baseline.write_text(json.dumps(payload))
    assert perfgate.main(["--rounds", "1", "--baseline", str(baseline)]) == 0
    payload["events"] -= 1
    baseline.write_text(json.dumps(payload))
    assert perfgate.main(["--rounds", "1", "--baseline", str(baseline)]) == 1
    assert "events" in capsys.readouterr().err


def test_fluid_call_budget_is_exact_and_gated(tmp_path, capsys):
    """Calls into ``src/repro`` per fluid period repeat exactly, so the
    ceiling is held with no tolerance, like the event count."""
    first = perfgate._fluid_calls_per_period()
    assert first == perfgate._fluid_calls_per_period()
    # A 512-flow water-fill in Python is ~1.8 k calls a period.
    assert first < 40
    baseline = tmp_path / "perf_baseline.json"
    payload = {"normalized": 1000.0, "fluid_calls_per_period": first - 0.01}
    baseline.write_text(json.dumps(payload))
    assert perfgate.main(["--rounds", "1", "--baseline", str(baseline)]) == 1
    assert "fluid_calls_per_period" in capsys.readouterr().err


def test_committed_event_ceiling_holds():
    """The committed ceiling is the count at the commit that set it; a
    per-op or per-tick timer coming back onto the heap fails here."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    committed = json.loads((repo / perfgate.DEFAULT_BASELINE).read_text())
    current = perfgate.measure(rounds=1)
    assert current["events"] <= committed["events"]
    assert current["events_per_op"] <= committed["events_per_op"]
    # ... and a per-flow Python loop coming back into the fluid step.
    assert (current["fluid_calls_per_period"]
            <= committed["fluid_calls_per_period"])
