"""Extension: QoS under injected faults (robustness evaluation).

Haechi's control plane rides on the same lossy fabric it manages, so
the interesting question is what 1-10% control-op loss does to the
guarantees.  Two scenarios:

- **Control-loss sweep**: 3 clients, every control op (FAAs, report
  WRITEs, QoS SENDs) dropped at 1/5/10%.  The hardened engines retry
  with capped backoff; throughput must stay within 80% of the
  fault-free run per client and reservations must keep being met.
- **Client crash + redistribution**: one client goes dark mid-run; the
  monitor's liveness lease evicts it and its reservation flows back to
  the global pool, which the survivors — capacity-starved before the
  crash — must visibly absorb.

Both runs are seeded end to end: same plan + same seed reproduces the
same fault sequence and the same counters.
"""

import pytest

from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import faulty_qos_cluster, qos_cluster

from conftest import SWEEP_SCALE, CLIENT_CAPACITY

NUM = 3
NUM_CRASH = 5  # 5 x 400 K demand > 1570 K capacity: the pool is contested
RESERVATION = 250_000
DEMAND = CLIENT_CAPACITY  # saturate each client's local limit
DROP_RATES = (0.01, 0.05, 0.10)
PERIODS = 8
WARMUP = 2
SEED = 7


def run_lossy(rate):
    reservations = [RESERVATION] * NUM
    demands = [DEMAND] * NUM
    if rate == 0.0:
        cluster = qos_cluster(reservations, demands, scale=SWEEP_SCALE,
                              master_seed=SEED)
    else:
        cluster = faulty_qos_cluster(
            reservations, demands,
            kind="control-loss",
            fault_seed=SEED,
            fault_kwargs={"rate": rate},
            scale=SWEEP_SCALE,
            master_seed=SEED,
        )
    result = run_experiment(cluster, warmup_periods=WARMUP,
                            measure_periods=PERIODS)
    return cluster, result


def run_crash():
    """Contested pool (5 saturating clients), one crashes, is evicted."""
    cluster = faulty_qos_cluster(
        [RESERVATION] * NUM_CRASH, [DEMAND] * NUM_CRASH,
        kind="client-crash",
        fault_seed=SEED,
        fault_kwargs={"client": NUM_CRASH - 1, "start_period": WARMUP + 3},
        scale=SWEEP_SCALE,
        master_seed=SEED,
    )
    result = run_experiment(cluster, warmup_periods=WARMUP,
                            measure_periods=12)
    return cluster, result


def test_ext_faults(benchmark, report):
    def run():
        sweep = {rate: run_lossy(rate) for rate in (0.0,) + DROP_RATES}
        return sweep, run_crash()

    sweep, (crash_cluster, crash_result) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    names = [f"C{i + 1}" for i in range(NUM)]
    report.line(f"Control-op loss sweep: {NUM} clients, reservation "
                f"{RESERVATION / 1000:.0f} K, demand {DEMAND / 1000:.0f} K "
                "(KIOPS)")
    def faa_failures(cluster):
        return sum(ctx.engine.faa_failures for ctx in cluster.clients)

    rows = []
    for rate, (cluster, result) in sweep.items():
        injector = cluster.fault_injector  # None on the fault-free run
        dropped = sum(injector.dropped.values()) if injector else 0
        rows.append([
            f"{rate:.0%}",
            *[f"{result.client_kiops(n):.0f}" for n in names],
            f"{result.total_kiops():.0f}",
            str(dropped),
            str(faa_failures(cluster)),
        ])
    report.table(["drop rate", *names, "total", "ops dropped",
                  "faa failures"], rows)

    _, baseline = sweep[0.0]
    for rate in DROP_RATES:
        cluster, result = sweep[rate]
        for name in names:
            served = result.client_kiops(name)
            # headline criterion: lossy control plane costs < 20%
            assert served >= 0.8 * baseline.client_kiops(name), (
                f"{name} at {rate:.0%} loss: {served:.0f} KIOPS < 80% "
                f"of fault-free {baseline.client_kiops(name):.0f}")
            # reservations keep being met by live clients
            assert served * 1000 >= 0.95 * RESERVATION
        # faults actually happened and were absorbed, not avoided
        assert cluster.fault_injector.dropped["control-loss"] > 0
        assert faa_failures(cluster) > 0

    report.line()
    report.line(f"Crash + lease eviction: {NUM_CRASH} saturating clients "
                "contest the pool; one crashes and its 250 K reservation "
                "must flow to the survivors")
    monitor = crash_cluster.monitor
    assert len(monitor.evictions) == 1
    eviction = monitor.evictions[0]
    assert eviction["client"] == NUM_CRASH - 1
    # evicted within lease_periods (+1 for the partially-dark period)
    lease = crash_cluster.config.lease_periods
    crash_period = WARMUP + 3 + 1  # monitor periods are 1-based
    assert eviction["period"] <= crash_period + lease + 1
    # the reservation observably left the books...
    assert monitor.total_reserved == pytest.approx(
        (NUM_CRASH - 1) * RESERVATION * crash_cluster.config.period, rel=0.01)

    # ...and the survivors' throughput rose once the pool re-absorbed it
    per_client = [r["per_client"] for r in monitor.period_records]
    pre = [r for r in per_client[crash_period - 2:crash_period]]
    post = [r for r in per_client[-3:]]
    for idx in range(NUM_CRASH - 1):
        pre_mean = sum(p[idx] for p in pre) / len(pre)
        post_mean = sum(p[idx] for p in post) / len(post)
        report.line(f"  C{idx + 1}: {pre_mean:.0f} -> {post_mean:.0f} "
                    "tokens/period")
        assert post_mean > 1.1 * pre_mean, (
            f"survivor C{idx + 1} did not absorb the freed reservation "
            f"({pre_mean:.0f} -> {post_mean:.0f})")
    report.line(f"  evicted C{NUM_CRASH} at period {eviction['period']} "
                f"(crash at {crash_period}); stale reports: "
                f"{monitor.stale_reports}")
