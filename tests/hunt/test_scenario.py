"""The candidate executor: determinism, oracle wiring, runner cells."""

import dataclasses
import json

import pytest

from repro.cluster.runner import Cell, run_cells
from repro.core.oracles import ORACLES
from repro.core.violations import Violation
from repro.hunt.scenario import run_spec, spec_workload
from repro.hunt.space import (
    PER_CLIENT_RESERVATION_CAP,
    FaultGene,
    ScenarioSpec,
    clamp_spec,
)


def canonical(result):
    return json.dumps(result, sort_keys=True)


class TestWorkload:
    def test_demand_follows_factor(self):
        one = clamp_spec(ScenarioSpec(demand_factor=1.0))
        two = clamp_spec(ScenarioSpec(demand_factor=2.0))
        _, d1, _ = spec_workload(one)
        _, d2, _ = spec_workload(two)
        assert all(abs(b - 2 * a) < 1e-6 for a, b in zip(d1, d2))

    def test_reservations_respect_local_cap(self):
        for distribution in ("uniform", "zipf", "spike"):
            for n in (1, 2, 4, 6):
                spec = clamp_spec(ScenarioSpec(
                    num_clients=n, distribution=distribution,
                    reserved_fraction=0.95,
                ))
                reservations, _, _ = spec_workload(spec)
                assert len(reservations) == spec.num_clients
                assert all(r <= PER_CLIENT_RESERVATION_CAP
                           for r in reservations)

    def test_limits_only_with_limit_factor(self):
        _, _, none = spec_workload(clamp_spec(ScenarioSpec()))
        assert none is None
        spec = clamp_spec(ScenarioSpec(limit_factor=1.5))
        reservations, _, limits = spec_workload(spec)
        assert limits is not None
        assert all(lim >= r for lim, r in zip(limits, reservations))


class TestRunSpec:
    def test_baseline_is_clean(self):
        result = run_spec(clamp_spec(ScenarioSpec()), seed=1)
        assert result["kinds"] == []
        assert result["violations"] == []
        assert result["counters"]["completions_total"] > 0
        assert result["counters"]["checks_run"] > 0

    def test_deterministic_in_spec_and_seed(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=3,
            faults=(FaultGene(kind="control-drop", start=1.5, rate=0.3),),
        ))
        assert canonical(run_spec(spec, 9)) == canonical(run_spec(spec, 9))
        assert canonical(run_spec(spec, 9)) != canonical(run_spec(spec, 10))

    def test_qp_close_starves_victim(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=3,
            faults=(FaultGene(kind="qp-close", start=2.0, client=1),),
        ))
        result = run_spec(spec, 1)
        assert "reservation-unmet" in result["kinds"]
        subjects = {v["subject"] for v in result["violations"]}
        assert subjects == {"C2"}

    def test_permanent_crash_victim_excused_from_liveness(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=3,
            faults=(FaultGene(kind="client-crash", start=2.0, client=0,
                              permanent=True),),
        ))
        result = run_spec(spec, 5)
        assert result["kinds"] == []

    def test_fault_counters_surface(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=2,
            faults=(FaultGene(kind="control-drop", start=1.0, duration=3.0,
                              rate=0.5),),
        ))
        result = run_spec(spec, 3)
        assert result["counters"]["faults_dropped"] > 0


class TestOneOracleLoop:
    @pytest.mark.parametrize("spec", [
        ScenarioSpec(num_clients=2),
        ScenarioSpec(num_clients=100, tenant_count=2, fluid_mode=True),
    ], ids=["des", "fluid"])
    def test_candidates_are_judged_through_the_registry(
            self, spec, monkeypatch):
        # Both branches look oracles up in ORACLES at run time, so a
        # stubbed registry entry reaches the verdict.
        stub = dataclasses.replace(
            ORACLES["progress"],
            check=lambda rows: [Violation(kind="progress-stall",
                                          message="stubbed", subject="X")],
        )
        monkeypatch.setitem(ORACLES, "progress", stub)
        result = run_spec(clamp_spec(spec), 1)
        assert result["kinds"] == ["progress-stall"]
        assert result["violations"] == [
            {"kind": "progress-stall", "message": "stubbed", "subject": "X"}
        ]


class TestRunnerIntegration:
    def test_hunt_candidate_resolves_lazily_and_matches_inline(self):
        spec = clamp_spec(ScenarioSpec(num_clients=2))
        report = run_cells([
            Cell("hunt-candidate", {"spec": spec.to_dict()}, seed=4),
        ])
        assert canonical(report.results[0]) == canonical(run_spec(spec, 4))
