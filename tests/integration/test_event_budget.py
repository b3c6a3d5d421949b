"""Performance regression guard: the hot path's event budget.

The simulator stays tractable because a one-sided I/O costs a fixed,
small number of heap events (issue-arrival + completion) and because
control traffic is bounded per protocol tick.  These tests pin those
budgets so an accidental O(n) regression (say, a per-op process spawn)
fails loudly rather than silently making benches 10x slower.

Events are counted through ``Simulator._seq``: every scheduled
callback — including the heap pushes the datapath inlines for speed —
increments it exactly once, so the delta over a window is the exact
number of events scheduled in that window.
"""

from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import bare_cluster

SCALE = SimScale(factor=1000, interval_divisor=50)


def test_one_sided_io_costs_at_most_three_events(mini):
    sim = mini.sim
    before = sim._seq
    n = 100
    done = []
    for key in range(n):
        mini.clients[0].get_onesided(
            key % 64, lambda ok, v, l: done.append(ok), touch_memory=False
        )
    sim.run(until=0.01)
    assert len(done) == n
    # two heap events per op (target arrival + completion); allow 3
    assert sim._seq - before <= 3 * n


def test_bare_saturation_run_stays_within_event_budget():
    """A full bare experiment: events scale with I/Os, not I/Os^2."""
    cluster = bare_cluster(demands=[400_000] * 4, scale=SCALE)
    result = run_experiment(cluster, warmup_periods=1, measure_periods=3)
    completed = sum(sum(v) for v in result.client_period_counts.values())
    assert completed > 3000
    # generous ceiling: < 6 events per completed I/O for the whole
    # harness (datapath + apps + metrics)
    assert cluster.sim._seq < 6 * (completed + 4000)


def test_qos_control_plane_event_budget():
    """Haechi's control threads add O(ticks), not O(I/Os)."""
    from repro.common.types import QoSMode
    from repro.cluster.builder import build_cluster

    cluster = build_cluster(
        2, QoSMode.HAECHI, reservations_ops=[100_000, 100_000],
        scale=SCALE,
    )
    cluster.start()
    period = cluster.config.period
    cluster.sim.run(until=2 * period)  # idle periods: control plane only
    baseline = cluster.sim._seq
    cluster.sim.run(until=4 * period)
    per_period = (cluster.sim._seq - baseline) / 2
    ticks = cluster.config.period / cluster.config.check_interval
    # monitor loop + period machinery; no I/O traffic.  Token decay is
    # evaluated at observation and costs no events, so the budget does
    # not grow with the client count: ~2 events per tick in total.
    assert per_period < 2 * ticks + 100


def test_fluid_period_never_enters_the_list_waterfill(monkeypatch):
    """The fluid claim phase is array ops per water-fill *round*; the
    list form (a Python step per bin) is off the fluid path for good."""
    from repro.core.capacity import (
        AdaptiveCapacityEstimator, ProfiledCapacity,
    )
    from repro.core.config import HaechiConfig
    from repro.fluid.engine import FluidEngine
    from repro.fluid.flows import FlowClass
    from repro.globalqos import waterfill
    from repro.telemetry.ledger import TokenLedger

    def refuse(*_args):
        raise AssertionError("list water-fill on the fluid path")

    # ``largest_remainder`` too: it is looked up at call time, so this
    # also catches a ``bounded_apportion`` imported by name earlier.
    monkeypatch.setattr(waterfill, "bounded_apportion", refuse)
    monkeypatch.setattr(waterfill, "largest_remainder", refuse)
    config = HaechiConfig.paper(token_conversion=True)
    # Half the flows use a quarter of their reservation (the rest
    # converts into the pool), the other half want far more than their
    # limit lets them claim.
    flows = [
        FlowClass(name=f"T/g{i}", tenant="T", group=f"g{i}", clients=10 + i,
                  reservation=1000, demand=250 if i % 2 else 5000,
                  limit=None if i % 2 else 1800)
        for i in range(8)
    ]
    capacity = 16_000
    estimator = AdaptiveCapacityEstimator(
        profiled=ProfiledCapacity(mean=float(capacity), stddev=100.0),
        eta=config.eta, history_window=config.history_window,
        saturation_tolerance=config.saturation_tolerance,
    )
    ledger = TokenLedger()
    engine = FluidEngine(flows, config, estimator,
                         physical_capacity=capacity, ledger=ledger)
    engine.run(10)
    assert engine.conversions == 10
    # The limit, not the pool, stopped the hungry flows.
    assert engine.flow_completions["T/g0"] == [1800] * 10
    assert ledger.check_conservation() == []
