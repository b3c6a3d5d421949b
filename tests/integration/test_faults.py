"""Injected faults end to end: survival, degraded mode, eviction,
redistribution, and bit-for-bit reproducibility."""

from repro.common.types import OpType
from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import fault_plan, faulty_qos_cluster, qos_cluster
from repro.faults import DropRule, FaultPlan, OpFilter
from repro.telemetry import TelemetryConfig, attach_telemetry

from tests.conftest import cluster_registry
from tests.core.conftest import SCALE, make_qos_cluster


def drain(cluster, periods=1.0):
    cluster.sim.run(until=cluster.sim.now + periods * cluster.config.period)


def submit_n(engine, n):
    for key in range(n):
        engine.submit(key % 16, lambda ok, v, l: None)


class TestControlLossSurvival:
    """5% control-op loss: degraded numbers, zero deadlock."""

    RES = [250_000, 250_000, 250_000]
    DEMANDS = [400_000.0] * 3

    def run_at(self, rate):
        if rate == 0.0:
            cluster = qos_cluster(self.RES, self.DEMANDS, scale=SCALE)
        else:
            cluster = faulty_qos_cluster(
                self.RES, self.DEMANDS,
                kind="control-loss",
                fault_kwargs={"rate": rate},
                scale=SCALE,
            )
        result = run_experiment(cluster, warmup_periods=1, measure_periods=6)
        return cluster, result

    def test_five_percent_loss_stays_within_80_percent(self):
        _, clean = self.run_at(0.0)
        cluster, lossy = self.run_at(0.05)
        assert cluster.fault_injector.dropped["control-loss"] > 0
        for name in ("C1", "C2", "C3"):
            assert lossy.client_kiops(name) >= 0.8 * clean.client_kiops(name)

    def test_no_deadlock_and_periods_keep_rolling(self):
        cluster, _ = self.run_at(0.10)
        assert cluster.monitor.period_id >= 7
        for client in cluster.clients:
            assert client.engine.period_id >= cluster.monitor.period_id - 1
            assert client.engine.total_completed > 0

    def test_summary_counts_the_damage(self):
        cluster, _ = self.run_at(0.05)
        registry = cluster_registry(cluster)
        assert registry.value("faults_dropped_total") > 0
        failures = {
            labels["client"]: value
            for name, labels, value in registry.collect()
            if name == "engine_faa_failures"
        }
        assert set(failures) == {"C1", "C2", "C3"}
        assert sum(failures.values()) > 0


class TestDegradedMode:
    def test_pool_partition_enters_and_exits_degraded(self):
        """All FETCH_ADDs are dropped for a window: engines must fall
        back to reservation-only service, then re-sync."""
        config = SCALE.config(degraded_after=2)
        window_end = 6 * config.period
        plan = FaultPlan(
            drops=(DropRule(1.0, OpFilter(opcodes=(OpType.FETCH_ADD,),
                                          end=window_end)),),
            drop_fail_after=config.check_interval,
        )
        cluster = make_qos_cluster([100_000, 100_000], config=config)
        cluster.inject_faults(plan)
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        for _ in range(8):
            submit_n(engine, 400)  # 100 reservation + 300 wanting the pool
            drain(cluster, 1.0)
        assert engine.degraded_entries >= 1
        assert engine.probes_issued >= 1
        assert engine.degraded_recoveries >= 1
        assert not engine.degraded
        # after recovery the pool is reachable again: the engine issues
        # beyond its 100-token reservation within the period
        assert engine.faa_granted_tokens > 0
        assert engine.issued_this_period > 100

    def test_reservation_served_while_degraded(self):
        config = SCALE.config(degraded_after=2)
        plan = FaultPlan(
            drops=(DropRule(1.0, OpFilter(opcodes=(OpType.FETCH_ADD,))),),
            drop_fail_after=config.check_interval,
        )
        cluster = make_qos_cluster([100_000, 100_000], config=config)
        cluster.inject_faults(plan)
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        for _ in range(5):
            submit_n(engine, 400)
            drain(cluster, 1.0)
        assert engine.degraded
        # local-only mode still delivers the reservation every period
        assert engine.issued_this_period >= 90


class TestCrashEvictionRedistribution:
    def test_crashed_client_evicted_and_capacity_flows_back(self):
        num = 5  # 5 x 400K demand > 1570K capacity: pool is contested
        cluster = faulty_qos_cluster(
            [250_000] * num, [400_000.0] * num,
            kind="client-crash",
            fault_kwargs={"client": num - 1, "start_period": 3},
            scale=SCALE,
        )
        run_experiment(cluster, warmup_periods=1, measure_periods=10)
        monitor = cluster.monitor
        (eviction,) = monitor.evictions
        assert eviction["client"] == num - 1
        # evicted within lease_periods of going dark (+1 partial period)
        assert eviction["period"] <= 4 + cluster.config.lease_periods + 1
        # its reservation left the books
        reservation = cluster.config.tokens_per_period(250_000)
        assert monitor.total_reserved == (num - 1) * reservation
        # survivors absorbed the freed capacity
        per_client = [r["per_client"] for r in monitor.period_records]
        pre = per_client[2]  # before the crash
        post = per_client[-1]  # well after the eviction
        for idx in range(num - 1):
            assert post[idx] > 1.05 * pre[idx]


class TestFaultDeterminism:
    """Same seed + same plan => identical records, ledger and
    completions."""

    def run_once(self):
        plan = fault_plan("control-loss", SCALE.config(), rate=0.05)
        cluster = make_qos_cluster([250_000, 250_000, 250_000])
        hub = attach_telemetry(cluster, TelemetryConfig(sample_every=0))
        injector = cluster.inject_faults(plan, seed=42)
        cluster.start()
        drain(cluster, 0.02)
        for _ in range(4):
            for client in cluster.clients:
                submit_n(client.engine, 400)
            drain(cluster, 1.0)
        completions = tuple(
            c.engine.total_completed for c in cluster.clients
        )
        records = [
            (r.time, r.category, r.event, tuple(sorted(r.fields.items())))
            for r in hub.records
        ]
        # The ledger holds the FAA claims and conversions.
        ledger = [tuple(sorted(e.items())) for e in hub.ledger.events]
        return completions, records, dict(injector.dropped), ledger

    def test_identical_runs(self):
        first = self.run_once()
        second = self.run_once()
        assert first[0] == second[0]  # per-client completion counts
        assert first[2] == second[2]  # fault counters
        assert first[1] == second[1]  # every protocol record
        assert first[3] == second[3]  # every ledger event
        assert any(dict(e)["event"] == "claim" for e in first[3])
