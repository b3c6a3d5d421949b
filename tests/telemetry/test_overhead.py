"""Telemetry observes a run; it never changes it — checked with no clock.

The saturated 10-client bare point runs with no hub, a disabled hub,
1/100 and 1/1 span sampling: simulated throughput *and* the scheduled
event count must be identical across all four, while the span count
follows the sampling depth.  What watching costs the host is measured
in ``benchmarks/layered`` (``feature_cost.telemetry.ratio``, with
``feature_cost.telemetry.sim_equal`` as this test's twin there).
"""

import pytest

from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import SATURATING_OPS, bare_cluster
from repro.telemetry import TelemetryConfig, TelemetryHub, attach_telemetry

SCALE = SimScale(factor=1000.0, interval_divisor=100)
# sample_every per run; None attaches no hub at all (the seed's path).
RATES = (None, 0, 100, 1)


def saturated(sample_every, num_clients=10):
    """``(cluster, result, hub or None)`` for one saturated bare run."""
    cluster = bare_cluster([SATURATING_OPS] * num_clients, scale=SCALE)
    hub = None
    if sample_every is not None:
        hub = attach_telemetry(
            cluster, TelemetryConfig(sample_every=sample_every))
    result = run_experiment(cluster, warmup_periods=1, measure_periods=2)
    return cluster, result, hub


@pytest.fixture(scope="module")
def runs():
    return {rate: saturated(rate) for rate in RATES}


def test_rows_cover_rates_and_kiops_is_identical(runs):
    kiops = {result.total_kiops() for _, result, _ in runs.values()}
    events = {cluster.sim._seq for cluster, _, _ in runs.values()}
    assert len(kiops) == 1 and kiops.pop() > 0
    assert len(events) == 1
    spans = {rate: len(hub.spans) if hub is not None else 0
             for rate, (_, _, hub) in runs.items()}
    assert spans[None] == spans[0] == 0 < spans[100] < spans[1]
    # Every run sees the same op stream, so 1/100 keeps ops 1, 101, ...
    assert spans[100] == -(-spans[1] // 100)


def test_run_saturated_reports_hub_state(runs):
    cluster, _, hub = runs[None]
    assert hub is None and cluster.sim.telemetry is None
    for rate in RATES[1:]:
        cluster, _, hub = runs[rate]
        assert cluster.sim.telemetry is hub
        state = hub.spans.export()
        assert state["recorded"] == state["started"] == len(hub.spans)
        assert state["complete"]
    # A bare cluster has no control plane: every span is a data op.
    assert not any(span.control for span in runs[1][2].spans)


def test_validation(monkeypatch):
    """Negative control for the identity check above: a hub that
    schedules an event per op leaves KIOPS untouched, so only the
    event count catches it."""
    quiet_cluster, quiet, _ = saturated(None, num_clients=2)
    data_span = TelemetryHub.data_span

    def noisy_data_span(self, *args):
        self.sim.schedule(0.0, int)
        return data_span(self, *args)

    monkeypatch.setattr(TelemetryHub, "data_span", noisy_data_span)
    noisy_cluster, noisy, hub = saturated(1, num_clients=2)
    assert noisy.total_kiops() == quiet.total_kiops()
    assert noisy_cluster.sim._seq == quiet_cluster.sim._seq + len(hub.spans)
