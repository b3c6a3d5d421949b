"""The chaos spine itself: declarations validate, the harness can say
FAIL, and every registered scenario exercises what it claims to."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.cluster import chaos
from repro.common.errors import ConfigError
from repro.core.oracles import ORACLES
from repro.core.violations import Violation
from repro.faults.plan import FaultPlan
from repro.recovery.chaos import RECOVERY

# The recovery declaration with an empty fault plan: nothing crashes, so
# nothing fails over, and the run must not pass by doing nothing.
QUIET = dataclasses.replace(
    RECOVERY, name="quiet",
    plan=lambda seed, cluster, periods: FaultPlan(),
)


class TestDeclaration:
    def test_unknown_oracle_is_rejected_when_declared(self):
        with pytest.raises(ConfigError, match="unknown oracle 'no-such'"):
            dataclasses.replace(RECOVERY, oracles=("no-such",))

    def test_oracle_without_an_adapter_for_the_kind_is_rejected(self):
        # Registered, but the replicated cluster has no split agents.
        assert "no-stale-split" in ORACLES
        with pytest.raises(ConfigError, match="no evidence adapter"):
            dataclasses.replace(RECOVERY, oracles=("no-stale-split",))


def test_telemetry_cannot_be_passed_to_a_builder_that_brings_its_own():
    from repro.globalqos.chaos import COORD_CRASH
    from repro.telemetry import TelemetryConfig

    with pytest.raises(ConfigError, match="attaches its own telemetry"):
        chaos.run(COORD_CRASH, 11, telemetry=TelemetryConfig())


class TestHarnessCanFail:
    def test_unexercised_machinery_is_a_violation(self):
        report, _cluster = chaos.run(QUIET, 11)
        assert report.ok is False
        assert report.counters["failovers"] == 0
        assert any(v.startswith("failovers is 0") for v in report.violations)

    def test_oracle_violation_reaches_the_report(self, monkeypatch):
        stub = dataclasses.replace(
            ORACLES["reservations-met"],
            check=lambda rows: [Violation(kind="reservation-unmet",
                                          message="stubbed: C1 starved")],
        )
        monkeypatch.setitem(ORACLES, "reservations-met", stub)
        report, _cluster = chaos.run(RECOVERY, 11)
        assert [v.kind for v in report.findings] == ["reservation-unmet"]
        assert report.violations == ["stubbed: C1 starved"]
        assert report.as_dict()["violations"] == ["stubbed: C1 starved"]

    def test_cli_prints_the_violation_and_exits_1(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(chaos, "scenarios", lambda: {"quiet": QUIET})
        path = tmp_path / "quiet.json"
        assert main(["chaos", "quiet", "--seeds", "11",
                     "--report", str(path)]) == 1
        captured = capsys.readouterr()
        assert "seed 11: failovers is 0" in captured.err
        assert "FAIL" in captured.out and "0/1 seeds passed" in captured.out
        payload = json.loads(path.read_text())
        assert payload["failed"] == 1
        assert payload["seeds"]["11"]["violations"]


@pytest.mark.parametrize("name", list(chaos.scenarios()))
def test_registered_scenario_runs_clean_and_exercised(name, chaos_run):
    scenario = chaos.scenarios()[name]
    assert scenario.name == name
    assert scenario.exercised, "a scenario must say what it exercises"
    report, _cluster = chaos_run(scenario, scenario.seeds[0])
    assert report.ok, report.violations
    assert set(scenario.exercised) <= set(report.counters)
    assert set(scenario.columns) <= set(report.counters)
    for counter in scenario.exercised:
        assert report.counters[counter], f"{name}: {counter} is zero"
