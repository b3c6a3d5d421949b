"""The schema-v2 tenancy genes: round trip, clamping, fluid execution."""

import dataclasses

from repro.common.rng import make_rng
from repro.core.oracles import check_hierarchy_conservation
from repro.hunt.minimize import minimize_spec
from repro.hunt.scenario import run_spec
from repro.hunt.space import (
    FLUID_GROUPS_PER_TENANT,
    MAX_CLIENTS_DES,
    MAX_CLIENTS_FLUID,
    MAX_TENANTS,
    FaultGene,
    ScenarioSpec,
    clamp_spec,
    random_spec,
)


class TestSchemaCompat:
    def test_v2_round_trip_keeps_tenancy_genes(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=500, tenant_count=3, fluid_mode=True
        ))
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.tenant_count == 3
        assert again.fluid_mode is True


class TestModeDependentClamp:
    def test_des_ceiling_still_applies_without_fluid_mode(self):
        spec = clamp_spec(ScenarioSpec(num_clients=5_000))
        assert spec.num_clients == MAX_CLIENTS_DES

    def test_fluid_mode_unlocks_the_large_client_regime(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=5_000, tenant_count=2, fluid_mode=True
        ))
        assert spec.num_clients == 5_000
        over = clamp_spec(ScenarioSpec(
            num_clients=10 * MAX_CLIENTS_FLUID, tenant_count=2,
            fluid_mode=True,
        ))
        assert over.num_clients == MAX_CLIENTS_FLUID

    def test_fluid_mode_with_zero_tenants_is_repaired(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=100, tenant_count=0, fluid_mode=True
        ))
        assert spec.tenant_count >= 1

    def test_fluid_client_floor_covers_every_flow_class(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=1, tenant_count=MAX_TENANTS, fluid_mode=True
        ))
        assert spec.num_clients >= MAX_TENANTS * FLUID_GROUPS_PER_TENANT

    def test_des_tenant_count_capped_by_client_count(self):
        spec = clamp_spec(ScenarioSpec(num_clients=2, tenant_count=4))
        assert spec.tenant_count <= spec.num_clients

    def test_random_search_reaches_fluid_mode(self):
        rng = make_rng(31, "scale-genes")
        drawn = [random_spec(rng) for _ in range(60)]
        fluid = [s for s in drawn if s.fluid_mode]
        assert fluid
        assert any(s.num_clients > MAX_CLIENTS_DES for s in fluid)
        assert all(s.tenant_count >= 1 for s in fluid)


class TestFluidVictims:
    def test_fluid_victims_are_flow_classes(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=100, tenant_count=2, fluid_mode=True,
            faults=(FaultGene(kind="client-crash", start=2.0, client=5),),
        ))
        victim = spec.victim(spec.faults[0])
        tenant, group = victim.split("/")
        assert tenant in {"T1", "T2"}
        assert group in {"g1", "g2"}


class TestFluidExecutor:
    def test_fluid_run_spec_is_deterministic(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=1_000, tenant_count=3, fluid_mode=True,
            periods=8,
        ))
        a = run_spec(spec, seed=11)
        b = run_spec(spec, seed=11)
        assert a == b
        assert a["counters"]["fluid_clients"] == 1_000
        assert a["counters"]["fluid_flows"] == 3 * FLUID_GROUPS_PER_TENANT
        assert a["counters"]["completions_total"] > 0

    def test_benign_fluid_candidate_raises_no_violations(self):
        spec = clamp_spec(ScenarioSpec(
            num_clients=2_000, tenant_count=2, fluid_mode=True,
            periods=8,
        ))
        verdict = run_spec(spec, seed=23)
        assert verdict["violations"] == []
        assert verdict["kinds"] == []

    def test_des_candidate_with_tenants_binds_and_stays_clean(self):
        # Binding the per-client-leaf hierarchy adds envelopes, not
        # workload: the benign spec stays violation-free and completes
        # exactly what its flat twin does.
        with_tenants = clamp_spec(ScenarioSpec(
            num_clients=4, tenant_count=2, periods=8,
        ))
        flat = dataclasses.replace(with_tenants, tenant_count=0)
        bound = run_spec(with_tenants, seed=11)
        unbound = run_spec(flat, seed=11)
        assert bound["violations"] == []
        assert (bound["counters"]["completions_total"]
                == unbound["counters"]["completions_total"])


class TestHierarchyOracle:
    def test_audit_strings_become_typed_violations(self):
        problems = ["tenant T1 child sum 120 exceeds envelope 100"]
        (violation,) = check_hierarchy_conservation(problems)
        assert violation.kind == "hierarchy-conservation"
        assert "T1" in violation.message

    def test_clean_audit_is_silent(self):
        assert check_hierarchy_conservation([]) == []


class TestMinimizerFloor:
    def test_minimizer_drops_fluid_mode_when_anomaly_survives(self):
        # A predicate indifferent to the execution mode: the minimizer
        # must land on the exact-DES floor with a tiny client count.
        spec = clamp_spec(ScenarioSpec(
            num_clients=4_000, tenant_count=3, fluid_mode=True,
            periods=10,
        ))
        result = minimize_spec(spec, lambda s: True, max_steps=120)
        assert result.reproduced
        assert result.spec.fluid_mode is False
        assert result.spec.num_clients <= MAX_CLIENTS_DES
        assert result.spec.tenant_count == 0
