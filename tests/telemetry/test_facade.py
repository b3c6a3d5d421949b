"""The registry is the one reader: every gauge fronts its getter.

``register_cluster_metrics`` turns each component's ``metrics_items()``
into callback gauges.  For a plain QoS cluster, a replicated cluster
driven through a chaos plan and an HA multi-node cluster through a
leader crash, every registered gauge must read exactly what the getter
it fronts returns, nothing may be registered that no component fronts,
and the ``name{label keys}`` set must match the committed
``gauge_names.txt`` (one ``topology name{label keys}`` row each; the
digest families hash the metrics JSONL these names feed, so a rename
is a re-pin, not a drive-by).
"""

import math
import pathlib

from repro.cluster import chaos
from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import paper_demands, qos_cluster, \
    reservation_set
from repro.faults.plan import CrashWindow, FaultPlan
from repro.globalqos.coordinator import COORD_HOST_NAME
from repro.globalqos.scenario import build_skewed_cluster
from repro.recovery.chaos import RECOVERY

from tests.conftest import cluster_registry

COARSE = SimScale(factor=1000, interval_divisor=50)
NAMES = pathlib.Path(__file__).with_name("gauge_names.txt")


def single_node_components(cluster):
    """``(labels, component)`` for everything with ``metrics_items()``
    on a (possibly replicated) single-data-node cluster."""
    server = cluster.server_host.name
    out = [({"node": server}, part) for part in
           (cluster.server_host.nic, cluster.data_node, cluster.monitor)]
    for ctx in cluster.clients:
        out.append(({"client": ctx.name}, ctx.engine))
        out.append(({"node": ctx.host.name}, ctx.host.nic))
        if getattr(ctx, "failover", None) is not None:
            out.append(({"client": ctx.name}, ctx.failover))
    if getattr(cluster, "replica_host", None) is not None:
        replica = cluster.replica_host.name
        out += [({"node": replica}, part) for part in
                (cluster.replica_host.nic, cluster.replica_node,
                 cluster.replica_monitor)]
    if cluster.fault_injector is not None:
        out.append(({}, cluster.fault_injector))
    return out


def multinode_components(cluster):
    out = [({}, cluster.fault_injector)]
    for striped in cluster.clients:
        out.append(({"node": striped.host.name}, striped.host.nic))
        for node, engine in zip(cluster.nodes, striped.engines):
            out.append(({"client": striped.name, "node": node.host.name},
                        engine))
    for node in cluster.nodes:
        out += [({"node": node.host.name}, part) for part in
                (node.host.nic, node.data_node, node.monitor)]
    for coordinator in (cluster.coordinator, cluster.standby):
        out.append(({"node": coordinator.host.name}, coordinator))
    for agent in cluster.client_agents:
        out.append(({"client": agent.striped.name}, agent))
    for agent in cluster.node_agents:
        out.append(({"node": agent.node.host.name}, agent))
    return out


def check_gauges_front_their_getters(cluster, components) -> set:
    """Returns the ``name{label keys}`` set the cluster registered."""
    registry = cluster_registry(cluster)
    fronted = set()
    for labels, component in components:
        for name, getter in component.metrics_items():
            assert registry.value(name, **labels) == getter(), (name, labels)
            fronted.add((name, tuple(sorted(labels.items()))))
    registered = {(name, tuple(sorted(labels.items())))
                  for name, labels, _value in registry.collect()}
    assert registered == fronted
    return {f"{name}{{{','.join(key for key, _ in labels)}}}"
            for name, labels in registered}


def committed(topology, without=()) -> set:
    rows = (line.split() for line in NAMES.read_text().splitlines())
    return {name for kind, name in rows
            if kind == topology and not name.startswith(without)}


def test_qos_cluster_summary_unchanged():
    reservations = reservation_set("uniform", 400_000, num_clients=2)
    cluster = qos_cluster(
        reservations, paper_demands(reservations, 50_000), scale=COARSE,
    )
    run_experiment(cluster, warmup_periods=1, measure_periods=2)
    names = check_gauges_front_their_getters(
        cluster, single_node_components(cluster))
    assert names == committed("single", without=("failover_", "faults_"))


def test_chaotic_replicated_cluster_summary_unchanged():
    # Failover, rejoin, replication and fault counters all move, so the
    # gauges compared are not all zero.
    report, cluster = chaos.run(RECOVERY, 11, periods=8)
    assert report.counters["failovers"] and report.counters["puts_acked"]
    assert sum(cluster.fault_injector.dropped.values()) > 0
    names = check_gauges_front_their_getters(
        cluster, single_node_components(cluster))
    assert names == committed("single")


def test_ha_multinode_cluster_gauges_front_their_getters():
    cluster = build_skewed_cluster(
        11, coordinated=True, standby=True, quarantine=True, scale=COARSE,
        rebalance_periods=1, takeover_after=2,
    )
    T = cluster.config.period
    cluster.inject_faults(FaultPlan(
        crashes=(CrashWindow(COORD_HOST_NAME, 2.5 * T, math.inf),),
        drop_fail_after=cluster.config.check_interval,
    ), seed=11)
    cluster.start()
    cluster.sim.run(until=10 * T)

    assert cluster.standby.takeovers == 1
    names = check_gauges_front_their_getters(
        cluster, multinode_components(cluster))
    assert names == committed("multi")
