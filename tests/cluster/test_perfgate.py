"""Perf-gate mechanics: exact counts, ceiling decisions, baseline I/O."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cluster import perfgate

from tests.core.reference_engine import per_op_backlog_engines
from tests.rdma.reference_qp import event_arrival_qps

KEYS = {"events", "events_per_op", "fabric_events", "backlog_records",
        "held_completions", "fluid_calls_per_period", "fluid_columns_held"}


@pytest.fixture(scope="module")
def measured():
    """One real measurement, shared: the counts are exact for the seed
    (the two ``*_is_exact_and_gated`` tests re-run one half each)."""
    return perfgate.measure()


@pytest.fixture
def gate(measured, monkeypatch):
    """``perfgate.main`` deciding on the shared measurement."""
    monkeypatch.setattr(perfgate, "measure", lambda: dict(measured))
    return perfgate.main


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_measure_reports_positive_scores(measured):
    """Every count is positive but the held completions, which are none:
    no CQ of the cell keeps a completion nobody reads."""
    assert set(measured) == KEYS
    assert all(measured[key] > 0 for key in KEYS - {"held_completions"})
    assert measured["held_completions"] == 0


def test_write_then_check_passes(tmp_path, gate):
    baseline = tmp_path / "perf_baseline.json"
    assert gate(["--write", "--baseline", str(baseline)]) == 0
    assert set(json.loads(baseline.read_text())) == KEYS
    assert gate(["--baseline", str(baseline)]) == 0


def test_regression_fails_the_gate(tmp_path, gate, measured, capsys):
    """Each budget fails alone, by name, the moment it is exceeded."""
    for key in sorted(KEYS):
        payload = dict(measured)
        payload[key] -= 0.0001
        baseline = _write(tmp_path / f"{key}.json", payload)
        assert gate(["--baseline", baseline]) == 1
        err = capsys.readouterr().err
        assert f"FAIL: {key} " in err and err.count("FAIL") == 1


def test_missing_baseline_is_an_error(tmp_path, monkeypatch):
    """An unreadable baseline exits 2 before anything is measured."""
    def unreachable():
        raise AssertionError("measured before opening the baseline")

    monkeypatch.setattr(perfgate, "measure", unreachable)
    assert perfgate.main(["--baseline", str(tmp_path / "nope.json")]) == 2
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert perfgate.main(["--baseline", str(corrupt)]) == 2


def test_event_budget_is_exact_and_gated(tmp_path, gate, measured, capsys):
    """The counts are deterministic, so the gate holds them with no
    tolerance: a second run repeats the first exactly, a ceiling equal
    to it passes, and one event under it fails."""
    events, completed, _records, _held = perfgate._workload_counts()
    assert events == measured["events"]
    assert round(events / completed, 4) == measured["events_per_op"]
    payload = {"events": measured["events"],
               "events_per_op": measured["events_per_op"]}
    baseline = tmp_path / "perf_baseline.json"
    assert gate(["--baseline", _write(baseline, payload)]) == 0
    payload["events"] -= 1
    assert gate(["--baseline", _write(baseline, payload)]) == 1
    assert "events" in capsys.readouterr().err


def test_fabric_event_budget_catches_an_arrival_event_per_op(
        tmp_path, gate, measured, monkeypatch, capsys):
    """Through a fabric port a fast one-sided op schedules its
    completion alone; the retired two-event datapath (kept as a test
    oracle) schedules an arrival too, which the ceiling catches."""
    assert perfgate._fabric_events() == measured["fabric_events"]
    with event_arrival_qps():
        events = perfgate._fabric_events()
    assert events > 1.5 * measured["fabric_events"]
    monkeypatch.setattr(perfgate, "measure",
                        lambda: dict(measured, fabric_events=events))
    payload = {"fabric_events": measured["fabric_events"]}
    baseline = _write(tmp_path / "perf_baseline.json", payload)
    assert gate(["--baseline", baseline]) == 1
    assert "arrival came back onto the heap" in capsys.readouterr().err


def test_backlog_record_budget_catches_a_per_op_backlog(tmp_path, gate,
                                                       measured, capsys):
    """The gate cell ends with most of its demand still queued; the
    engines hold that in one record per run of submissions, and the
    tuple-per-op backlog (kept as a test oracle) is three orders of
    magnitude over the ceiling with every event count unchanged."""
    clients = 10
    assert measured["backlog_records"] <= clients
    with per_op_backlog_engines():
        events, _completed, records, _held = perfgate._workload_counts()
    assert events == measured["events"]
    assert records > 1000 * clients
    payload = {"backlog_records": measured["backlog_records"] - 1}
    baseline = _write(tmp_path / "perf_baseline.json", payload)
    assert gate(["--baseline", baseline]) == 1
    assert "per-op record came back" in capsys.readouterr().err


def test_held_completion_budget_catches_a_signaled_monitor_send(
        tmp_path, gate, measured, monkeypatch, capsys):
    """The monitor's SENDs land in CQs that nobody polls: posted
    signaled, each leaves a work completion there for the life of the
    cluster, which the zero ceiling catches with every event count
    unchanged (the ack is an event either way)."""
    from repro.core import monitor
    from repro.rdma.verbs import WorkRequest

    def signaled(*args, **kwargs):
        kwargs["signaled"] = True
        return WorkRequest(*args, **kwargs)

    monkeypatch.setattr(monitor, "WorkRequest", signaled)
    events, _completed, _records, held = perfgate._workload_counts()
    assert events == measured["events"]
    assert held > 0
    payload = {"held_completions": 0}
    monkeypatch.setattr(perfgate, "measure",
                        lambda: dict(measured, held_completions=held))
    baseline = _write(tmp_path / "perf_baseline.json", payload)
    assert gate(["--baseline", baseline]) == 1
    assert "completion nobody reads is kept again" in capsys.readouterr().err


def test_fluid_call_budget_is_exact_and_gated(tmp_path, gate, measured,
                                              capsys):
    """Calls into ``src/repro`` per fluid period repeat exactly, so the
    ceiling is held with no tolerance, like the event count."""
    first = measured["fluid_calls_per_period"]
    calls_per_period, columns_held = perfgate._fluid_counts()
    assert round(calls_per_period, 4) == first
    # A 512-flow water-fill in Python is ~1.8 k calls a period.
    assert first < 40
    payload = {"fluid_calls_per_period": first - 0.01}
    baseline = _write(tmp_path / "perf_baseline.json", payload)
    assert gate(["--baseline", baseline]) == 1
    assert "fluid_calls_per_period" in capsys.readouterr().err
    # The same run's columns held repeat exactly too.
    assert columns_held == measured["fluid_columns_held"]


def test_fluid_column_budget_catches_fresh_columns(tmp_path, gate,
                                                   measured, capsys):
    """The 60-period cell holds a column per change, not per period: a
    fresh requested / pool / spent / residual column every period
    would be 4 x 60 plus the reservation columns."""
    periods = perfgate._FLUID_CELL["periods"]
    assert measured["fluid_columns_held"] < periods
    payload = {"fluid_columns_held": measured["fluid_columns_held"] - 1}
    baseline = _write(tmp_path / "perf_baseline.json", payload)
    assert gate(["--baseline", baseline]) == 1
    assert "stores fresh columns" in capsys.readouterr().err


def test_committed_event_ceiling_holds(measured):
    """The committed ceiling is the count at the commit that set it; a
    per-op or per-tick timer coming back onto the heap fails here, and
    so does a per-flow Python loop coming back into the fluid step."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    committed = json.loads((repo / perfgate.DEFAULT_BASELINE).read_text())
    assert set(committed) == KEYS
    for key in KEYS:
        assert measured[key] <= committed[key]
