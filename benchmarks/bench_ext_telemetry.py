"""Extension: telemetry span sampling and the per-stage latency
decomposition.

Two questions a QoS observability layer must answer about itself:

- **Does watching change the run?**  The sampling table runs the
  saturated Fig. 7 point (10 clients, burst, one-sided) with no hub, a
  disabled hub, and span sampling at 1/100, 1/10 and 1/1.  The
  simulated KIOPS must be bit-identical in every row — telemetry
  observes the run, it never perturbs it — while the span count
  follows the sampling depth.  (What watching costs the *host* is
  measured in one place: ``feature_cost.telemetry.*`` in
  ``benchmarks/layered``.)
- **Where does the time go?**  The decomposition table breaks the same
  saturated point's end-to-end latency into causal stages (engine
  queue, NIC issue pipeline, fabric, target pipeline, return) whose
  means sum exactly to the end-to-end mean — the property the span
  model guarantees by construction.
"""

import pytest

from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import SATURATING_OPS, bare_cluster
from repro.telemetry import TelemetryConfig, attach_telemetry, \
    format_stage_table, stage_breakdown

from conftest import NUM_CLIENTS, SWEEP_SCALE

PERIODS = 8
# Label -> sample_every; None attaches no hub at all (the seed's path).
RATES = {"no hub": None, "disabled": 0, "1/100": 100, "1/10": 10, "1/1": 1}


def saturated_point(sample_every):
    """``(KIOPS, hub or None)`` for one saturated run."""
    cluster = bare_cluster([SATURATING_OPS] * NUM_CLIENTS, scale=SWEEP_SCALE)
    hub = None
    if sample_every is not None:
        hub = attach_telemetry(
            cluster, TelemetryConfig(sample_every=sample_every))
    result = run_experiment(cluster, warmup_periods=1,
                            measure_periods=PERIODS)
    return result.total_kiops(), hub


def test_ext_telemetry(benchmark, report):
    def run():
        return {label: saturated_point(rate)
                for label, rate in RATES.items()}

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    spans = {label: len(hub.spans) if hub is not None else 0
             for label, (_kiops, hub) in runs.items()}

    report.line("Span sampling at the saturated Fig. 7 point "
                "(10 clients, burst, one-sided)")
    report.table(
        ["sampling", "KIOPS", "spans"],
        [[label, f"{kiops:.0f}", str(spans[label])]
         for label, (kiops, _hub) in runs.items()],
    )
    report.line("(KIOPS identical in every row: telemetry never perturbs "
                "the simulated run)")

    assert len({kiops for kiops, _hub in runs.values()}) == 1
    # Sampling depth scales the span count, roughly linearly.
    assert spans["1/1"] > 5 * spans["1/10"] > 5 * spans["1/100"] > 0

    report.line()
    report.line("Per-stage latency decomposition at the same point "
                "(sampling 1/10)")
    _kiops, hub = runs["1/10"]
    for line in format_stage_table(hub.spans):
        report.line(line)
    entry = stage_breakdown(hub.spans)["onesided_read"]
    stage_mean_sum = sum(mean for _, mean, _, _ in entry["stages"])
    assert stage_mean_sum == pytest.approx(entry["total_mean"], rel=1e-9)
    # At C_G saturation the target NIC's pipeline is the bottleneck: 10
    # clients contend for one server NIC, so queueing in its target
    # pipeline dwarfs every wire segment.
    stages = dict((name, mean) for name, mean, _, _ in entry["stages"])
    assert stages["nic_target"] == max(stages.values())
    assert stages["nic_target"] > 0.9 * entry["total_mean"]
    report.line()
    report.line(f"stage means sum to the end-to-end mean exactly "
                f"({entry['total_mean'] * 1e6:.3f} us over "
                f"{entry['count']} sampled ops)")
