"""The array engine against the scalar oracle: equal to the last bit.

Every case runs the same seeded hierarchy (limits and burst buckets on
every other group and tenant) through ``FluidEngine`` and
``ReferenceFluidEngine`` with a mid-run resize, and requires equal
readouts and a byte-equal ledger export — and that nothing read back
from the array engine is a numpy scalar.
"""

import itertools
import json

import pytest

from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.faults.plan import Brownout, CrashWindow, FaultPlan, PartitionRule
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import flows_from_hierarchy
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


def _run(engine_cls, token_conversion, plan_kind, demand_factor, seed):
    config = HaechiConfig.paper(token_conversion=token_conversion)
    rate = NICProfile.chameleon().onesided_saturation_rate()
    capacity = config.tokens_per_period(rate)
    hierarchy, demand_map = build_scale_hierarchy(
        20_000, tenants=4, groups_per_tenant=4, config=config,
        capacity_tokens=capacity, seed=seed,
    )
    flows = flows_from_hierarchy(
        hierarchy,
        demand_of=lambda t, g: int(
            demand_map[f"{t.name}/{g.name}"] * demand_factor
        ),
    )
    estimator = AdaptiveCapacityEstimator(
        profiled=ProfiledCapacity(mean=float(capacity),
                                  stddev=PROFILE_RSD * capacity),
        eta=config.eta, history_window=config.history_window,
        saturation_tolerance=config.saturation_tolerance,
    )
    ledger = TokenLedger()
    engine = engine_cls(
        flows, config, estimator, physical_capacity=capacity,
        plan=_plan(plan_kind, config), ledger=ledger,
    )
    engine.run(RESIZE_AT)
    by_res = sorted(hierarchy.tenants, key=lambda t: t.reservation)
    shrink = int(by_res[-1].reservation * 0.2)
    hierarchy.resize_tenant(by_res[-1].name, by_res[-1].reservation - shrink)
    hierarchy.resize_tenant(by_res[0].name, by_res[0].reservation + shrink)
    changes = engine.apply_hierarchy(hierarchy)
    engine.run(PERIODS - RESIZE_AT)
    return engine, ledger, changes


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
    assert got.period_records == want.period_records
    assert got.flow_completions == want.flow_completions
    assert got.burst_buckets == want.burst_buckets
    assert got.conversions == want.conversions
    assert got.faa_batches == want.faa_batches
    assert got.resize_log == want.resize_log
    assert got.total_reserved == want.total_reserved
    assert got.total_clients == want.total_clients
    assert got.now == want.now
    assert ledger_jsonl(got_ledger) == ledger_jsonl(want_ledger)
    assert got_ledger.check_conservation() == []

    readouts = {
        "period_records": got.period_records,
        "flow_completions": got.flow_completions,
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
