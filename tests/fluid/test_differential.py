"""The array engine against the scalar oracle: equal to the last bit.

Every case runs the same seeded hierarchy (limits and burst buckets on
every other group and tenant) through ``FluidEngine`` and
``ReferenceFluidEngine`` with a mid-run resize, and requires equal
readouts and a byte-equal ledger export — and that nothing read back
from the array engine is a numpy scalar.

The array engine water-fills with ``fluid.kernels.bounded_apportion``,
the oracle with the list ``globalqos.waterfill.bounded_apportion``, so
this file is also the engine-level array-vs-list check.
"""

import itertools
import json

import pytest

from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.faults.plan import Brownout, CrashWindow, FaultPlan, PartitionRule
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import FlowClass, flows_from_hierarchy
from repro.fluid.scenario import PROFILE_RSD, build_scale_hierarchy
from repro.rdma.nic import NICProfile
from repro.telemetry.exporters import ledger_jsonl
from repro.telemetry.ledger import TokenLedger

from tests.fluid.reference_engine import ReferenceFluidEngine

PERIODS = 18
RESIZE_AT = 11


def _plan(kind, config):
    """A fault window over periods 4-6, cutting into 7 by a third so the
    faulted demand is a fraction that has to be rounded."""
    T = config.period
    start, end = 4 * T, 7 * T + T / 3
    if kind == "brownout":
        return FaultPlan(brownouts=(Brownout("server", start, end, 0.6),))
    if kind == "partition":
        return FaultPlan(partitions=(
            PartitionRule("T1/g2", "server", start, end),
            PartitionRule("server", "T3/g1", start + T / 2, end),
        ))
    if kind == "crash":
        return FaultPlan(crashes=(
            CrashWindow("T2/g2", start, end),
            CrashWindow("T4/g3", start + T / 7, end + T),
        ))
    return None


def _estimator(config, capacity, stddev):
    return AdaptiveCapacityEstimator(
        profiled=ProfiledCapacity(mean=float(capacity), stddev=stddev),
        eta=config.eta, history_window=config.history_window,
        saturation_tolerance=config.saturation_tolerance,
    )


def _run(engine_cls, token_conversion, plan_kind, demand_factor, seed,
         clients=20_000, tenants=4, groups=4, periods=PERIODS,
         resize_at=RESIZE_AT):
    config = HaechiConfig.paper(token_conversion=token_conversion)
    rate = NICProfile.chameleon().onesided_saturation_rate()
    capacity = config.tokens_per_period(rate)
    hierarchy, demand_map = build_scale_hierarchy(
        clients, tenants=tenants, groups_per_tenant=groups, config=config,
        capacity_tokens=capacity, seed=seed,
    )
    flows = flows_from_hierarchy(
        hierarchy,
        demand_of=lambda t, g: int(
            demand_map[f"{t.name}/{g.name}"] * demand_factor
        ),
    )
    ledger = TokenLedger()
    engine = engine_cls(
        flows, config, _estimator(config, capacity, PROFILE_RSD * capacity),
        physical_capacity=capacity, plan=_plan(plan_kind, config),
        ledger=ledger,
    )
    engine.run(resize_at)
    by_res = sorted(hierarchy.tenants, key=lambda t: t.reservation)
    shrink = int(by_res[-1].reservation * 0.2)
    hierarchy.resize_tenant(by_res[-1].name, by_res[-1].reservation - shrink)
    hierarchy.resize_tenant(by_res[0].name, by_res[0].reservation + shrink)
    changes = engine.apply_hierarchy(hierarchy)
    engine.run(periods - resize_at)
    return engine, ledger, changes


def _assert_same_run(got, got_ledger, want, want_ledger):
    assert got.period_records == want.period_records
    assert got.flow_completions == want.flow_completions
    assert got.burst_buckets == want.burst_buckets
    assert ledger_jsonl(got_ledger) == ledger_jsonl(want_ledger)


def _assert_builtin_numbers(value, where="report"):
    """Recursively: every number is exactly ``int`` or ``float``."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, f"{where}: key {key!r}"
            _assert_builtin_numbers(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _assert_builtin_numbers(item, f"{where}[{i}]")
    else:
        assert value is None or type(value) in (int, float, str, bool), (
            f"{where}: {type(value).__name__} {value!r}"
        )


CASES = list(itertools.product(
    (True, False), (None, "brownout", "partition", "crash"), (1.0, 0.55),
))


@pytest.mark.parametrize("token_conversion,plan_kind,demand_factor", CASES)
def test_array_engine_equals_scalar_oracle(token_conversion, plan_kind,
                                           demand_factor):
    got, got_ledger, got_changes = _run(
        FluidEngine, token_conversion, plan_kind, demand_factor, seed=7
    )
    want, want_ledger, want_changes = _run(
        ReferenceFluidEngine, token_conversion, plan_kind, demand_factor,
        seed=7,
    )
    assert got_changes == want_changes and got_changes
    _assert_same_run(got, got_ledger, want, want_ledger)
    assert got.conversions == want.conversions
    assert got.faa_batches == want.faa_batches
    assert got.resize_log == want.resize_log
    assert got.total_reserved == want.total_reserved
    assert got.total_clients == want.total_clients
    assert got.now == want.now
    assert got_ledger.check_conservation() == []

    readouts = {
        "period_records": got.period_records,
        "flow_completions": dict(got.flow_completions),
        "burst_buckets": got.burst_buckets,
        "resize_log": got.resize_log,
        "attainment": got.attainment(),
        "tenant_rollup": got.tenant_rollup(),
        "ledger_events": list(got_ledger.events),
        "ledger_accounts": list(got_ledger.closed_accounts),
        "ledger_totals": got_ledger.totals(),
        "metrics": {name: read() for name, read in got.metrics_items()},
        "scalars": [got.conversions, got.faa_batches, got.total_reserved,
                    got.total_clients, got.period_id],
    }
    _assert_builtin_numbers(readouts)
    json.dumps(readouts)


def test_cases_exercise_limits_bursts_and_faulted_rounding():
    """The grid above is only worth its name if the hard parts fire."""
    engine, _, _ = _run(FluidEngine, True, "partition", 1.0, seed=7)
    limited = [f for f in engine.flows if f.limit is not None]
    assert limited and any(f.burst for f in limited)
    # Some bucket moved off its cap, i.e. the limit + burst ceiling bit.
    assert any(
        engine.burst_buckets[f.name] < f.burst for f in limited
    ) or any(
        max(engine.flow_completions[f.name]) > f.limit for f in limited
    )
    assert engine.conversions > 0
    # The partition cut T1/g2's demand in the faulted periods.
    counts = engine.flow_completions["T1/g2"]
    assert min(counts[4:7]) < min(counts[:4])


def test_benchmark_shaped_hierarchy_equals_scalar_oracle():
    """512 flows, the ``fluid_1m_tenants`` shape: brownout plus a
    mid-run resize, water-filled over hundreds of bins a period."""
    shape = dict(clients=1_000_000, tenants=32, groups=16, periods=20,
                 resize_at=13)
    got, got_ledger, got_changes = _run(
        FluidEngine, True, "brownout", 1.0, seed=7, **shape
    )
    want, want_ledger, want_changes = _run(
        ReferenceFluidEngine, True, "brownout", 1.0, seed=7, **shape
    )
    assert len(got.flows) == 512
    assert got_changes == want_changes and got_changes
    _assert_same_run(got, got_ledger, want, want_ledger)
    assert got_ledger.check_conservation() == []


def _tied_flows():
    """Three tiers of three identical flows.  Every flow spends its
    1000-token reservation and wants 9000 more; the limits leave room
    for 200 (tier a), 1000 (tier b) and all of it (tier c)."""
    return [
        FlowClass(name=f"T/{tier}{i}", tenant="T", group=f"{tier}{i}",
                  clients=100, reservation=1000, demand=10_000, limit=limit)
        for tier, limit in (("a", 1200), ("b", 2000), ("c", None))
        for i in range(3)
    ]


def test_tied_bins_saturate_over_three_rounds(monkeypatch):
    """Equal weights, equal wants and limits within a tier, an odd pool:
    8101 tokens over nine bins is 900 each plus one, which saturates the
    a-tier; the 2101 given back saturates the b-tier; the 751 given back
    again is 250 each plus one — and in every round the odd token goes
    to the lowest index still active."""
    from repro.fluid import kernels

    config = HaechiConfig.paper(token_conversion=True)
    capacity = 9 * 1000 + 8101

    def build(engine_cls):
        ledger = TokenLedger()
        engine = engine_cls(
            _tied_flows(), config, _estimator(config, capacity, 1.0),
            physical_capacity=capacity, ledger=ledger,
        )
        return engine, ledger

    rounds = []
    largest_remainder = kernels.largest_remainder

    def counted(total, weights):
        rounds.append(total)
        return largest_remainder(total, weights)

    monkeypatch.setattr(kernels, "largest_remainder", counted)
    got, got_ledger = build(FluidEngine)
    got.run(1)
    assert rounds == [8101, 2101, 751]
    assert {
        name: counts[0] for name, counts in got.flow_completions.items()
    } == {
        "T/a0": 1200, "T/a1": 1200, "T/a2": 1200,
        "T/b0": 2000, "T/b1": 2000, "T/b2": 2000,
        "T/c0": 2501, "T/c1": 2500, "T/c2": 2500,
    }
    got.run(5)
    want, want_ledger = build(ReferenceFluidEngine)
    want.run(6)
    _assert_same_run(got, got_ledger, want, want_ledger)
    assert got_ledger.check_conservation() == []
