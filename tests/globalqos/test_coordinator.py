"""Coordinator integration: rebalancing, conservation, degradation."""

import pytest

from repro.common.errors import ConfigError
from repro.common.types import QoSMode
from repro.cluster.multinode import build_multinode_cluster
from repro.cluster.scale import SimScale
from repro.faults.plan import CrashWindow, FaultPlan
from repro.globalqos.coordinator import COORD_HOST_NAME, attach_coordinator
from repro.globalqos.scenario import (
    NUM_ENTITLED,
    SKEW_SCALE,
    build_skewed_cluster,
    run_skewed,
)
from repro.globalqos.waterfill import even_split

from tests.conftest import cluster_registry

SCALE = SimScale(factor=500, interval_divisor=100)


def small_cluster(**kwargs):
    return build_multinode_cluster(
        2, 2, reservations_ops=[200_000, 200_000], scale=SCALE, **kwargs
    )


class TestAttachValidation:
    def test_knob_validation(self):
        with pytest.raises(ConfigError, match="rebalance_periods"):
            attach_coordinator(small_cluster(), rebalance_periods=0)
        with pytest.raises(ConfigError, match="fallback_after"):
            attach_coordinator(small_cluster(), fallback_after=0)
        with pytest.raises(ConfigError, match="min_shift_fraction"):
            attach_coordinator(small_cluster(), min_shift_fraction=1.0)

    def test_requires_qos_nodes(self):
        bare = small_cluster(qos_mode=QoSMode.BARE)
        with pytest.raises(ConfigError, match="HAECHI"):
            attach_coordinator(bare)

    def test_double_attach_rejected(self):
        cluster = small_cluster()
        attach_coordinator(cluster)
        with pytest.raises(ConfigError, match="already attached"):
            attach_coordinator(cluster)

    def test_coord_host_joins_the_fabric(self):
        cluster = small_cluster()
        attach_coordinator(cluster)
        assert COORD_HOST_NAME in cluster.fabric.hosts


@pytest.fixture(scope="module")
def skewed_run():
    """One short coordinated run of the skewed scenario, shared."""
    return run_skewed(11, True, warmup_periods=4, measure_periods=4)


# Gauges only an HA build (standby and/or quarantine armed) registers.
HA_GAUGES = {
    "globalqos_term", "globalqos_takeovers", "globalqos_stepdowns",
    "globalqos_quarantines", "globalqos_unquarantines",
    "globalqos_updates_fenced", "globalqos_updates_rejected_stale",
}


class TestRebalancing:
    def test_coordinator_shifts_the_entitled_clients(self, skewed_run):
        cluster = skewed_run["_cluster"]
        assert cluster.coordinator.rebalances_computed >= 1
        # The entitled clients' splits follow their 90% hot node.
        for i in range(NUM_ENTITLED):
            striped = cluster.clients[i]
            hot = i % len(cluster.nodes)
            assert striped.splits[hot] > max(
                s for n, s in enumerate(striped.splits) if n != hot
            )

    def test_every_split_conserves_its_aggregate(self, skewed_run):
        cluster = skewed_run["_cluster"]
        for striped in cluster.clients:
            assert sum(striped.splits) == striped.aggregate_reservation

    def test_monitor_state_matches_client_splits(self, skewed_run):
        cluster = skewed_run["_cluster"]
        for n, node in enumerate(cluster.nodes):
            for striped in cluster.clients:
                slot = node.monitor._clients[striped.index]
                assert slot.reservation == striped.splits[n]
                assert (node.monitor.admission.admitted[striped.index]
                        == striped.splits[n])

    def test_heartbeats_reach_every_client(self, skewed_run):
        cluster = skewed_run["_cluster"]
        for agent in cluster.client_agents:
            assert agent.updates_received >= 1
            assert agent.last_update_epoch >= 1
        assert cluster.coordinator.updates_sent >= len(cluster.clients)

    def test_ledger_audits_are_clean(self, skewed_run):
        assert skewed_run["ledger_violations"] == []
        assert skewed_run["split_violations"] == []
        ledger = skewed_run["_cluster"].sim.telemetry.ledger
        rebalances = [e for e in ledger.events
                      if e["event"] == "rebalance"]
        assert len(rebalances) >= 1
        for event in rebalances:
            assert sum(event["new"]) == event["aggregate"]

    def test_robustness_summary_exposes_the_subsystem(self, skewed_run):
        cluster = skewed_run["_cluster"]
        registry = cluster_registry(cluster)
        coord = cluster.coordinator.host.name
        assert registry.value("globalqos_rebalances_computed",
                              node=coord) >= 1
        assert registry.value("globalqos_updates_sent", node=coord) >= 1

        def labelled(gauge, key):
            return {labels[key] for name, labels, _value
                    in registry.collect() if name == gauge}

        clients = {striped.name for striped in cluster.clients}
        nodes = {node.host.name for node in cluster.nodes}
        assert labelled("globalqos_updates_received", "client") == clients
        assert labelled("globalqos_node_reports_sent", "node") == nodes
        assert labelled("engine_faa_failures", "client") == clients
        assert labelled("monitor_period_id", "node") == nodes

    def test_summary_ha_block_absent_without_standby(self, skewed_run):
        names = {name for name, _labels, _value
                 in cluster_registry(skewed_run["_cluster"]).collect()}
        assert not names & HA_GAUGES

    def test_summary_ha_block_present_with_standby(self):
        cluster = build_skewed_cluster(
            11, coordinated=True, standby=True, quarantine=True,
        )
        registry = cluster_registry(cluster)
        for coordinator in (cluster.coordinator, cluster.standby):
            node = coordinator.host.name
            for name in ("globalqos_takeovers", "globalqos_quarantines",
                         "globalqos_unquarantines"):
                assert registry.value(name, node=node) == 0
        for striped in cluster.clients:
            for name in ("globalqos_updates_fenced",
                         "globalqos_updates_rejected_stale"):
                assert registry.value(name, client=striped.name) == 0


class TestFallback:
    def test_clients_restore_even_split_on_silence(self):
        cluster = build_skewed_cluster(
            11, coordinated=True, rebalance_periods=2, fallback_after=2,
        )
        period = cluster.config.period
        # Coordinator dies after the first rebalance and never returns
        # within the run.
        plan = FaultPlan(crashes=(
            CrashWindow(COORD_HOST_NAME, 2.5 * period, 40 * period),
        ))
        cluster.inject_faults(plan, seed=11)
        cluster.start()
        cluster.sim.run(until=14 * period)

        assert cluster.coordinator.epochs_skipped_no_quorum >= 1
        fallbacks = sum(a.fallbacks for a in cluster.client_agents)
        assert fallbacks >= NUM_ENTITLED  # the shifted clients reverted
        for striped in cluster.clients:
            assert striped.splits == even_split(
                striped.aggregate_reservation, len(cluster.nodes)
            )
