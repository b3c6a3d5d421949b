"""Protocol records on the telemetry hub (``repro.telemetry.records``).

The class and test names follow the ``Tracer`` API the records replaced:
``TestNullTracer`` is the no-store case, ``test_builder_threads_tracer``
the one-hub-for-every-component case.
"""

import pytest

from repro.cluster.chaos import LEDGER_ONLY
from repro.telemetry import TelemetryConfig, TelemetryHub, record
from repro.telemetry.records import RecordStore


def hub_on(sim, **config):
    sim.telemetry = TelemetryHub(sim, TelemetryConfig(**config))
    return sim.telemetry.records


class TestTracer:
    def test_records_carry_sim_time(self, sim):
        store = hub_on(sim)
        sim.schedule(1.5, record, sim, "cat", "tick")
        sim.run()
        assert len(store.records) == 1
        rec = store.records[0]
        assert rec.time == 1.5
        assert rec.category == "cat" and rec.event == "tick"

    def test_fields_preserved(self, sim):
        store = hub_on(sim)
        record(sim, "engine", "period_start", client=3, tokens=10)
        assert store.records[0].fields == {"client": 3, "tokens": 10}

    def test_category_filtering(self, sim):
        store = hub_on(sim)
        record(sim, "engine", "report")
        record(sim, "monitor", "estimate")
        assert [r.event for r in store.filter(category="monitor")] == [
            "estimate"]
        assert [r.event for r in store.filter(category="engine")] == [
            "report"]
        assert store.filter(category="fault") == []

    def test_filter_by_category_and_event(self, sim):
        store = hub_on(sim)
        record(sim, "a", "x")
        record(sim, "a", "y")
        record(sim, "b", "x")
        assert len(store.filter(category="a")) == 2
        assert len(store.filter(event="x")) == 2
        assert len(store.filter(category="a", event="x")) == 1

    def test_summary_counts_survive_eviction(self, sim):
        store = hub_on(sim, max_spans=10)
        for _ in range(100):
            record(sim, "c", "e")
        assert store.summary() == {"c.e": 100}
        assert len(store.records) <= 10
        assert store.dropped > 0

    def test_str_rendering(self, sim):
        store = hub_on(sim)
        record(sim, "monitor", "estimate", value=7)
        text = str(store.records[0])
        assert "monitor.estimate" in text and "value=7" in text

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            RecordStore(max_records=1)
        with pytest.raises(ValueError):
            hub_on(sim, max_spans=1)


class TestExport:
    def test_export_complete_collection(self, sim):
        store = hub_on(sim)
        record(sim, "c", "e")
        record(sim, "c", "f")
        assert store.export() == {
            "recorded": 2,
            "emitted": 2,
            "dropped": 0,
            "complete": True,
            "counts": {"c.e": 1, "c.f": 1},
        }

    def test_export_flags_eviction(self, sim):
        store = hub_on(sim, max_spans=10)
        for _ in range(100):
            record(sim, "c", "e")
        export = store.export()
        assert export["dropped"] > 0
        assert not export["complete"]
        assert export["emitted"] == 100  # counts survive eviction
        assert export["recorded"] + export["dropped"] == 100
        assert export["counts"] == {"c.e": 100}

    def test_export_is_json_serializable(self, sim):
        import json

        store = hub_on(sim)
        record(sim, "a", "b")
        assert json.loads(json.dumps(store.export()))["recorded"] == 1


class TestNullTracer:
    """No hub, or a hub without control spans: no store, no records."""

    def test_null_tracer_is_inert(self, sim):
        record(sim, "any", "thing", n=1)
        assert sim.telemetry is None
        hub = TelemetryHub(sim, LEDGER_ONLY)
        sim.telemetry = hub
        record(sim, "any", "thing", n=1)
        assert hub.records is None

    def test_null_tracer_export(self, recovery_run):
        from repro.cluster import chaos
        from repro.recovery.chaos import RECOVERY

        # The chaos spine's own hub is LEDGER_ONLY: a whole run with
        # faults, failovers and conversions leaves no store behind.
        report, cluster = chaos.run(RECOVERY, 11)
        hub = cluster.sim.telemetry
        assert hub.config == LEDGER_ONLY and hub.records is None
        assert len(hub.ledger.events) > 0
        assert report == recovery_run[0]  # records observe, never steer
        assert RecordStore().export() == {
            "recorded": 0, "emitted": 0, "dropped": 0, "complete": True,
            "counts": {},
        }


@pytest.fixture(scope="module")
def recovery_run():
    """The replicated recovery chaos run with records on."""
    from repro.cluster import chaos
    from repro.recovery.chaos import RECOVERY

    return chaos.run(RECOVERY, 11, telemetry=TelemetryConfig(sample_every=0))


def ledger_events(hub, name):
    return [e for e in hub.ledger.events if e["event"] == name]


class TestWiring:
    def test_cluster_traces_protocol_events(self):
        from repro.common.types import QoSMode
        from repro.cluster.builder import build_cluster
        from repro.cluster.scale import SimScale
        from repro.telemetry import attach_telemetry

        scale = SimScale(factor=1000, interval_divisor=50)
        cluster = build_cluster(
            2, QoSMode.HAECHI, reservations_ops=[100_000, 100_000],
            scale=scale,
        )
        hub = attach_telemetry(cluster, TelemetryConfig(sample_every=0))
        cluster.start()
        period = cluster.config.period
        cluster.sim.run(until=0.05 * period)
        for key in range(300):
            cluster.clients[0].engine.submit(key % 16, lambda ok, v, l: None)
        cluster.sim.run(until=1.5 * period)

        summary = hub.records.summary()
        assert summary["monitor.period_begin"] >= 1
        assert summary["engine.period_start"] >= 2  # both clients
        assert len(ledger_events(hub, "claim")) >= 1  # the pool FAAs
        assert summary["monitor.reporting_triggered"] >= 1
        assert len(ledger_events(hub, "convert")) >= 1
        assert summary["monitor.estimate"] >= 1

    def test_builder_threads_tracer(self, recovery_run):
        """Every component of a replicated run records on the one hub:
        engines, monitors, failover managers and the fault injector."""
        report, cluster = recovery_run
        assert report.ok, report.violations
        summary = cluster.sim.telemetry.records.summary()
        assert {name.split(".")[0] for name in summary} == {
            "engine", "monitor", "failover", "fault"}
        assert summary["failover.failed_over"] == report.counters[
            "failovers"]
        assert summary["engine.rebound"] == report.counters["failovers"]
        assert summary["monitor.client_rejoined"] == report.counters[
            "rejoins"]
        assert summary["monitor.estimate"] >= 1
        assert summary["fault.drop"] >= 1


def test_no_record_duplicates_a_ledger_event(recovery_run):
    """Pool claims and conversions live on the ledger only."""
    _report, cluster = recovery_run
    hub = cluster.sim.telemetry
    assert ledger_events(hub, "claim") and ledger_events(hub, "convert")
    summary = hub.records.summary()
    assert "engine.faa" not in summary
    assert "monitor.conversion" not in summary


def test_estimate_records_algorithm_1():
    """Each period's ``monitor.estimate`` is the estimator's own step:
    U in, the branch it took, the floor, Omega before and after."""
    from repro.cluster.scenarios import qos_cluster
    from repro.telemetry import attach_telemetry

    from tests.core.conftest import SCALE

    # Saturated: Algorithm 1 alternates its window and increment steps.
    cluster = qos_cluster([100_000] * 6, [900_000.0] * 6, scale=SCALE)
    hub = attach_telemetry(cluster, TelemetryConfig(sample_every=0))
    cluster.start()
    cluster.sim.run(until=6.5 * cluster.config.period)

    estimator = cluster.monitor.estimator
    records = [r.fields for r in hub.records.filter("monitor", "estimate")]
    periods = cluster.monitor.period_records
    assert len(records) == len(periods) == len(estimator.decisions) >= 5
    assert {"window", "increment"} <= set(estimator.decisions)
    for i, (fields, period) in enumerate(zip(records, periods)):
        assert fields == {
            "period": period["period"],
            "completed": period["completed"],
            "omega_prev": estimator.history[i],
            "decision": estimator.decisions[i],
            "floor": estimator.lower_bound,
            "omega": estimator.history[i + 1],
            "next_estimate": int(round(estimator.history[i + 1])),
        }
