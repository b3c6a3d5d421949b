"""One testbed assembly: the contract every built deployment honours.

The three builders are loops over the same three steps
(``Assembly.deploy_node`` / ``connect`` / ``enrol``) and return a
``Deployment``; this file states, once and for all three, what a
consumer may rely on without asking which topology it holds — and pins
the wiring order (host-add, ``fabric.connect``, KV naming) the digest
families depend on as literals generated at the commit before the
builders were folded.
"""

import inspect
import math

import pytest

from repro.cluster.builder import Deployment, build_cluster
from repro.cluster.calibration import CHAMELEON
from repro.cluster.multinode import build_multinode_cluster
from repro.common.errors import ConfigError
from repro.common.types import AccessMode, QoSMode
from repro.faults.plan import CrashWindow, FaultPlan
from repro.recovery.cluster import build_replicated_cluster

RESERVATIONS = [100_000.0, 200_000.0]
NUM_CLIENTS = len(RESERVATIONS)

# name -> (builder call, number of QoS nodes each client enrols with)
BUILDERS = {
    "single": (lambda: build_cluster(NUM_CLIENTS,
                                     reservations_ops=RESERVATIONS), 1),
    "multinode": (lambda: build_multinode_cluster(2, NUM_CLIENTS,
                                                  RESERVATIONS), 2),
    # A replicated client holds one engine; it enrols with the primary
    # and *moves* to the replica on failover.
    "replicated": (lambda: build_replicated_cluster(NUM_CLIENTS,
                                                    RESERVATIONS), 1),
}

# Wiring literals, generated at the parent commit (8326d54).
WIRING = {
    "single": {
        "hosts": ["server", "C1", "C2"],
        "connections": ["C1->server", "C2->server"],
        "clients": [("C1", "TypeDispatcher", ["C1"]),
                    ("C2", "TypeDispatcher", ["C2"])],
    },
    "multinode": {
        "hosts": ["server1", "server2", "C1", "C2"],
        "connections": ["C1->server1", "C1->server2",
                        "C2->server1", "C2->server2"],
        "clients": [
            ("C1", "ConnectionDispatcher", ["C1->server1", "C1->server2"]),
            ("C2", "ConnectionDispatcher", ["C2->server1", "C2->server2"]),
        ],
    },
    "replicated": {
        "hosts": ["server", "replica", "C1", "C2"],
        "connections": ["server->replica", "C1->server", "C1->replica",
                        "C2->server", "C2->replica"],
        # Both connections carry the one *logical* client name (the
        # store's idempotency index is keyed on it).
        "clients": [("C1", "ConnectionDispatcher", ["C1", "C1"]),
                    ("C2", "ConnectionDispatcher", ["C2", "C2"])],
    },
}


@pytest.fixture(params=sorted(BUILDERS))
def built(request):
    build, qos_nodes = BUILDERS[request.param]
    return request.param, build(), qos_nodes


def kv_names(client):
    if hasattr(client, "kv_clients"):
        return [kv.name for kv in client.kv_clients]
    return [kv.name for kv in (client.kv, client.kv_replica)
            if kv is not None]


def test_every_builder_returns_a_deployment(built):
    _name, cluster, _qos_nodes = built
    assert isinstance(cluster, Deployment)
    for attr in ("sim", "fabric", "scale", "config", "nodes", "clients",
                 "metrics", "background_jobs", "fault_injector"):
        assert hasattr(cluster, attr), attr
    assert cluster.fault_injector is None
    assert cluster.background_jobs == []


def test_engines_hold_what_their_monitor_admitted(built):
    _name, cluster, qos_nodes = built
    engines = cluster.engines()
    assert len(engines) == NUM_CLIENTS * qos_nodes
    by_host = {node.host: node for node in cluster.nodes}
    reserved = {node.index: 0 for node in cluster.nodes}
    for engine in engines:
        node = by_host[engine.kv.qp.dst]
        tokens = engine.tokens.reservation
        assert node.monitor.admission.admitted[engine.client_id] == tokens
        reserved[node.index] += tokens
    for node in cluster.nodes:
        assert node.monitor.total_reserved == reserved[node.index]
    config = cluster.config
    for client, ops in zip(cluster.clients, RESERVATIONS):
        assert (sum(e.tokens.reservation for e in client.engines)
                == config.tokens_per_period(ops))


def test_bare_cluster_has_no_engines():
    cluster = build_cluster(NUM_CLIENTS, qos_mode=QoSMode.BARE)
    assert cluster.engines() == []
    assert cluster.monitor is None and cluster.admission is None
    cluster.flush_ledgers()  # nothing to flush, nothing to raise
    assert list(cluster.fabric.hosts) == WIRING["single"]["hosts"]


def test_inject_faults_returns_the_injector_it_stores(built):
    _name, cluster, _qos_nodes = built
    injector = cluster.inject_faults(FaultPlan(), seed=3)
    assert injector is cluster.fault_injector
    assert cluster.fabric.injector is injector


def test_second_start_is_a_config_error(built):
    _name, cluster, _qos_nodes = built
    cluster.start()
    with pytest.raises(ConfigError, match="already started"):
        cluster.start()


def test_background_job_joins_as_bg1_on_the_chosen_node(built):
    name, cluster, _qos_nodes = built
    schedule = [(0.0, 0.01)]
    if name == "multinode":
        job = cluster.add_background_job(1, schedule)
        target = cluster.nodes[1]
    else:
        job = cluster.add_background_job(schedule)
        target = cluster.nodes[0]
    assert cluster.background_jobs == [job]
    assert list(cluster.fabric.hosts)[-1] == "bg1"
    qp, _back = cluster.fabric.connections[-1]
    assert qp.cq.name == f"bg1->{target.host.name}"
    assert qp.src.name == "bg1" and qp.dst is target.host
    assert job.kv.name == "bg1" and job.kv.qp is qp
    assert job.kv.data_rkey == target.data_node.store.region.rkey


def test_wiring_order_equals_the_parent(built):
    """Host-add order, ``fabric.connect`` order and KV names are the
    behaviour the digest families pin; here they are where a reader
    can see them."""
    name, cluster, _qos_nodes = built
    expected = WIRING[name]
    assert list(cluster.fabric.hosts) == expected["hosts"]
    assert [qp.cq.name for qp, _back in cluster.fabric.connections] \
        == expected["connections"]
    assert [(c.name, type(c.host._rpc_handler).__name__, kv_names(c))
            for c in cluster.clients] == expected["clients"]
    # One NIC/CPU profile pair per build, shared by every host.
    hosts = list(cluster.fabric.hosts.values())
    assert len({id(h.nic.profile) for h in hosts}) == 1
    assert len({id(h.cpu.profile) for h in hosts}) == 1


def signature(fn):
    return [(p.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


REQUIRED = inspect.Parameter.empty


def test_builder_signatures_equal_the_parent():
    """The fold added no option to any builder."""
    assert signature(build_cluster) == [
        ("num_clients", REQUIRED), ("qos_mode", QoSMode.HAECHI),
        ("reservations_ops", None), ("limits_ops", None), ("scale", None),
        ("access", AccessMode.ONE_SIDED), ("profiled", None),
        ("calibration", CHAMELEON), ("num_slots", 4096),
        ("materialize", False), ("touch_memory", False),
        ("admission_enabled", True), ("config", None),
        ("master_seed", 0), ("fabric_model", None),
    ]
    assert signature(build_multinode_cluster) == [
        ("num_nodes", REQUIRED), ("num_clients", REQUIRED),
        ("reservations_ops", REQUIRED), ("scale", None),
        ("qos_mode", QoSMode.HAECHI), ("num_slots", 4096),
    ]
    assert signature(build_replicated_cluster) == [
        ("num_clients", REQUIRED), ("reservations_ops", REQUIRED),
        ("scale", None), ("config", None), ("recovery", None),
        ("num_slots", 4096), ("materialize", False),
        ("touch_memory", False), ("master_seed", 0),
    ]


def reinitializations_scheduled(cluster):
    return [when for when, _seq, fn, _args in cluster.sim._heap
            if fn == cluster.monitor.reinitialize]


def test_only_the_replicated_cluster_reinitializes_at_restart():
    """The one ``inject_faults`` override that survives: a finite
    primary crash on a replicated cluster schedules the monitor's
    control-word re-initialization at the restart edge."""
    replicated = BUILDERS["replicated"][0]()
    T = replicated.config.period
    plan = FaultPlan(crashes=(
        CrashWindow("server", 2 * T, 3 * T),
        CrashWindow("replica", 4 * T, 5 * T),    # not the primary
        CrashWindow("server", 6 * T, math.inf),  # never restarts
    ))
    replicated.inject_faults(plan)
    assert reinitializations_scheduled(replicated) == [3 * T]

    plain = BUILDERS["single"][0]()
    plain.inject_faults(
        FaultPlan(crashes=(CrashWindow("server", 2 * T, 3 * T),))
    )
    assert reinitializations_scheduled(plain) == []
