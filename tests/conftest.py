"""Shared fixtures: a fresh simulator and small wired deployments."""

from __future__ import annotations

import pytest

from repro.cluster.metrics import register_cluster_metrics
from repro.kvstore import DataNode, KVClient
from repro.rdma import Fabric, Host, NICProfile
from repro.rdma.cpu import CPUProfile
from repro.rdma.dispatch import TypeDispatcher
from repro.sim import Simulator
from repro.telemetry.registry import MetricsRegistry


def cluster_registry(cluster):
    """A fresh registry holding every gauge ``cluster`` registers — the
    one place tests read a cluster's counters by name."""
    registry = MetricsRegistry()
    register_cluster_metrics(cluster, registry)
    return registry


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


class MiniCluster:
    """One server + N bare clients on a fabric (no QoS), for RDMA/KV tests."""

    def __init__(self, sim: Simulator, num_clients: int = 1, num_slots: int = 64,
                 materialize: bool = True):
        self.sim = sim
        self.fabric = Fabric(sim)
        profile = NICProfile.chameleon()
        self.server = self.fabric.add_host(
            Host(sim, "server", profile, CPUProfile())
        )
        self.node = DataNode(self.server, num_slots=num_slots, materialize=materialize)
        self.clients = []
        self.client_hosts = []
        self.server_qps = []
        for i in range(num_clients):
            host = self.fabric.add_host(Host(sim, f"c{i}", profile, CPUProfile()))
            qp_cs, qp_sc = self.fabric.connect(host, self.server)
            dispatcher = TypeDispatcher()
            host.set_rpc_handler(dispatcher)
            kv = KVClient(
                f"c{i}",
                qp_cs,
                dispatcher,
                layout=self.node.store.layout,
                data_rkey=self.node.store.region.rkey,
            )
            self.clients.append(kv)
            self.client_hosts.append(host)
            self.server_qps.append(qp_sc)


@pytest.fixture
def mini(sim) -> MiniCluster:
    """A 1-client mini deployment with a materialized 64-slot store."""
    return MiniCluster(sim)


@pytest.fixture
def mini4(sim) -> MiniCluster:
    """A 4-client mini deployment."""
    return MiniCluster(sim, num_clients=4)


@pytest.fixture(scope="session")
def _chaos_runs():
    return {}


@pytest.fixture
def chaos_run(_chaos_runs, monkeypatch):
    """``chaos.run`` memoized per ``(scenario, seed)`` for the session.

    The clean-verdict test, the ``chaos_pin_*`` test, the CLI report
    test and the digest test all need the same default-length run of a
    registered scenario; each takes seconds.  The memo is also patched
    in as ``repro.cluster.chaos.run`` so code under test (the CLI, the
    digest families) shares it.  ``chaos_run.fresh`` is the real
    function, for tests that must see a second, independent run.

    A memoized run hands back the shared report (read, never mutate)
    and, in the cluster's place, only ``.sim.telemetry.period_rows`` and
    ``.sim.telemetry.ledger`` — what the digest families read.  Keeping
    whole clusters alive slows every later simulation by ~50% (the
    cyclic GC rescans them), which would cost more than the memo saves.
    """
    from types import SimpleNamespace

    from repro.cluster import chaos

    fresh = chaos.run

    def memoized(scenario, seed, periods=None, **kwargs):
        registered = chaos.scenarios().get(scenario.name) is scenario
        if kwargs or not registered or periods not in (None, scenario.periods):
            return fresh(scenario, seed, periods=periods, **kwargs)
        key = (scenario.name, seed)
        if key not in _chaos_runs:
            report, cluster = fresh(scenario, seed)
            hub = cluster.sim.telemetry
            streams = SimpleNamespace(period_rows=hub.period_rows,
                                      ledger=hub.ledger)
            _chaos_runs[key] = report, SimpleNamespace(
                sim=SimpleNamespace(telemetry=streams))
        return _chaos_runs[key]

    memoized.fresh = fresh
    monkeypatch.setattr(chaos, "run", memoized)
    return memoized
