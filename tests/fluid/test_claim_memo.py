"""What a fluid period recomputes: the claim water-fill once per
distinct claim, per-flow connectivity only under an overlapping window.

The claim phase's ``bounded_apportion(spendable, weights, wants)`` is a
pure function of its arguments and the weights (client counts) never
change, so a period whose claim equals the previous period's reuses
that period's grants instead of solving again.  The expected counts
here come from the ledger's blocks, not from the engine: a period
claims when its pool grants sum above zero (they sum to exactly the
spendable total), and it must solve when its ``requested`` column or
that sum differs from the period before.
"""

import numpy as np
import pytest

from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.faults.plan import (
    Brownout,
    CrashWindow,
    FaultPlan,
    PartitionRule,
)
from repro.fluid import kernels
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import flows_from_hierarchy
from repro.fluid.scenario import build_fluid_scale
from repro.telemetry.exporters import ledger_jsonl
from repro.telemetry.ledger import TokenLedger
from repro.tenancy.hierarchy import ClientGroup, Tenant, TenantHierarchy

from tests.fluid.reference_engine import ReferenceFluidEngine


@pytest.fixture
def solves(monkeypatch):
    """Every ``bounded_apportion`` call's total, via a counting wrapper
    around the kernel the engine calls."""
    totals = []
    solve = kernels.bounded_apportion

    def counted(total, weights, bounds):
        totals.append(total)
        return solve(total, weights, bounds)

    monkeypatch.setattr(kernels, "bounded_apportion", counted)
    return totals


def _run(engine, periods, solves):
    """Run ``periods`` one at a time; the periods that solved."""
    solved = []
    for _ in range(periods):
        before = len(solves)
        engine.run(1)
        solved += [engine.period_id] * (len(solves) - before)
    return solved


def _claim_changes(ledger):
    """Periods whose claim differs from the previous period's, read off
    the ledger's blocks."""
    changed = []
    last = None
    for block in ledger.blocks():
        claim = (block.requested, int(block.granted_pool.sum()))
        if claim[1] > 0 and (last is None or claim[1] != last[1]
                             or not np.array_equal(claim[0], last[0])):
            changed.append(block.period)
        last = claim
    return changed


@pytest.mark.parametrize("periods,resize,expected", [
    (60, False, 18),   # the perf-gate cell
    (600, True, 19),   # the fluid_1m_tenants shape, resized at 400
])
def test_one_solve_per_changed_claim(solves, periods, resize, expected):
    hierarchy, engine, ledger, _capacity = build_fluid_scale(
        num_clients=1_000_000, tenants=32, groups_per_tenant=16,
        periods=periods, seed=11,
    )
    if resize:
        called = _run(engine, 400, solves)
        by_res = sorted(hierarchy.tenants, key=lambda t: t.reservation)
        shrink = int(by_res[-1].reservation * 0.2)
        hierarchy.resize_tenant(by_res[-1].name,
                                by_res[-1].reservation - shrink)
        hierarchy.resize_tenant(by_res[0].name,
                                by_res[0].reservation + shrink)
        engine.apply_hierarchy(hierarchy)
        called += _run(engine, periods - 400, solves)
    else:
        called = _run(engine, periods, solves)
    assert len(engine.flows) == 512 and engine.period_id == periods
    assert called == _claim_changes(ledger)
    assert len(called) == expected


def _tiny(plan=None, engine_cls=FluidEngine):
    """Three equal flows, no limits, every flow over its reservation;
    the physical ceiling binds the claim, and the estimator (profiled
    far above what completes) stays put, so the claim is steady until
    a fault or a resize moves it."""
    config = HaechiConfig.paper(token_conversion=True)
    hierarchy = TenantHierarchy([Tenant("T", 300, groups=[
        ClientGroup(name, 100, clients=10) for name in ("a", "b", "c")
    ])])
    flows = flows_from_hierarchy(hierarchy, demand_of=lambda t, g: 1_000)
    estimator = AdaptiveCapacityEstimator(
        profiled=ProfiledCapacity(mean=2_000.0, stddev=0.0),
        eta=config.eta, history_window=config.history_window,
        saturation_tolerance=config.saturation_tolerance,
    )
    ledger = TokenLedger()
    engine = engine_cls(flows, config, estimator, physical_capacity=1_000,
                        plan=plan, ledger=ledger)
    return hierarchy, engine, ledger


def _spendable(ledger):
    return [int(block.granted_pool.sum()) for block in ledger.blocks()]


def test_solves_again_when_only_spendable_changes(solves):
    """A brownout over period 3 halves the physical ceiling: the same
    wants, a smaller claim, then the old claim again in period 4 —
    each a change from the period before."""
    T = HaechiConfig.paper().period
    _h, engine, ledger = _tiny(
        FaultPlan(brownouts=(Brownout("server", 2 * T, 3 * T, 0.5),)))
    called = _run(engine, 6, solves)
    assert _spendable(ledger) == [700, 700, 200, 700, 700, 700]
    blocks = ledger.blocks()
    assert all(block.requested is blocks[0].requested for block in blocks)
    assert called == [1, 3, 4] == _claim_changes(ledger)
    assert ledger.check_conservation() == []


def test_solves_again_when_only_wants_change(solves):
    """Moving 50 reservation tokens from one group to another keeps
    the reserved total, the pool and the claim total, but not the
    per-flow wants."""
    hierarchy, engine, ledger = _tiny()
    called = _run(engine, 3, solves)
    hierarchy.resize_group("T", "a", 50)
    hierarchy.resize_group("T", "b", 150)
    assert engine.apply_hierarchy(hierarchy)
    called += _run(engine, 3, solves)
    assert _spendable(ledger) == [700] * 6
    blocks = ledger.blocks()
    assert not np.array_equal(blocks[3].requested, blocks[2].requested)
    assert called == [1, 4] == _claim_changes(ledger)
    assert ledger.check_conservation() == []


def test_reused_grants_reject_in_place_writes():
    _h, engine, ledger = _tiny()
    engine.run(3)
    blocks = ledger.blocks()
    grants = blocks[0].granted_pool
    assert all(block.granted_pool is grants for block in blocks)
    with pytest.raises(ValueError):
        grants[0] += 1
    assert grants.tolist() == [234, 233, 233]


def test_connectivity_is_asked_only_under_an_overlapping_window(
        monkeypatch):
    """A partition over period 3 and a crash over part of period 5:
    the per-flow outage fractions are asked for in those two periods
    only, and the run still equals the scalar oracle's."""
    T = HaechiConfig.paper().period
    plan = FaultPlan(
        partitions=(PartitionRule("T/a", "server", 2 * T, 3 * T),),
        crashes=(CrashWindow("T/b", 4 * T + T / 3, 5 * T),),
    )
    asked = []
    outage = FaultPlan.fluid_outage_fraction

    def counted(self, host, peer, w0, w1):
        asked.append(round(w0 / T) + 1)
        return outage(self, host, peer, w0, w1)

    monkeypatch.setattr(FaultPlan, "fluid_outage_fraction", counted)
    _h, engine, ledger = _tiny(plan)
    engine.run(7)
    assert asked == [3] * 3 + [5] * 3
    # The windows cut what T/a and T/b ask for.
    requested = [block.requested.tolist() for block in ledger.blocks()]
    assert requested[2][0] < requested[1][0]
    assert requested[4][1] < requested[3][1]

    _h, want, want_ledger = _tiny(plan, ReferenceFluidEngine)
    want.run(7)
    assert engine.period_records == want.period_records
    assert engine.flow_completions == want.flow_completions
    assert ledger_jsonl(ledger) == ledger_jsonl(want_ledger)


def test_a_reused_claim_compares_only_the_columns_it_did_not_reuse(
        monkeypatch):
    """On the perf-gate cell, a period that reuses last period's claim
    compares three arrays: the claim's ``requested`` column, then the
    spent and residual columns.  Its ``requested`` and pool-grant
    columns are last period's objects already, so they are not
    compared again (that was five compares a period)."""
    calls = []
    equal = np.array_equal

    def counted(a, b, *args, **kwargs):
        calls.append(1)
        return equal(a, b, *args, **kwargs)

    hierarchy, engine, ledger, _capacity = build_fluid_scale(
        num_clients=1_000_000, tenants=32, groups_per_tenant=16,
        periods=60, seed=11,
    )
    monkeypatch.setattr(np, "array_equal", counted)
    per_period = []
    for _ in range(60):
        before = len(calls)
        engine.run(1)
        per_period.append(len(calls) - before)
    monkeypatch.undo()
    changed = set(_claim_changes(ledger))
    claimed = {block.period for block in ledger.blocks()
               if block.granted_pool.sum() > 0}
    reused = [p for p in range(2, 61) if p in claimed and p not in changed]
    assert len(reused) > 30
    assert {per_period[p - 1] for p in reused} == {3}
    # A period that solves compares all four columns, after its claim
    # when the spendable total alone did not tell it apart.
    assert {per_period[p - 1] for p in changed if p > 1} <= {4, 5}
