"""Lazy empty polls against the timer form, one cell per builder.

``test_lazy_polls.py`` races chains on one data node.  Here each
cluster builder runs one oversubscribed cell with no telemetry hub and
no fault injector (so ``_lazy`` holds and empty polls are poll chains),
once as built and once under ``eager_poll_engines()``, and the two runs
must agree on every client's per-period completions and latency
summary, every engine's control counters, and every monitor's period
records.

The multi-node cell is a named case: two data nodes give every client
two engines, each polling its own node's pool, and chains on the two
pools whose steps tie must turn real in chain-start order, whichever
monitor's refill converts them.  Random multi-node cells rarely tie
there, so the one that did is kept as it was found.
"""

import pytest

from repro.cluster.experiment import attach_app
from repro.cluster.multinode import build_multinode_cluster
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import qos_cluster
from repro.core.engine import QoSEngine
from repro.recovery import build_replicated_cluster
from repro.workloads.patterns import RequestPattern

from tests.core.conftest import SCALE
from tests.core.reference_engine import eager_poll_engines

RESERVATIONS = [300_000, 200_000, 100_000, 50_000]
DEMAND = 450_000
PERIODS = 8


def single_node():
    return qos_cluster(RESERVATIONS, [DEMAND] * 4, scale=SCALE)


def two_nodes():
    """C4's FAA completions on server1 and server2 tie at ~12.56 ms; in
    the timer form server2's runs first."""
    cluster = build_multinode_cluster(
        2, 4, RESERVATIONS, scale=SimScale(factor=500, interval_divisor=100))
    for client in cluster.clients:
        cluster.attach_burst_app(client, demand_ops=DEMAND)
    return cluster


def replicated():
    cluster = build_replicated_cluster(4, RESERVATIONS, scale=SCALE)
    for client in cluster.clients:
        attach_app(cluster, client, RequestPattern.BURST, demand_ops=DEMAND,
                   window=None)
    return cluster


def observe(build, eager):
    """Run ``PERIODS`` periods and read what the two forms must share."""
    if eager:
        with eager_poll_engines():
            cluster = build()
    else:
        cluster = build()
    cluster.start()
    period = cluster.config.period
    cluster.sim.run(until=PERIODS * period + period * 1e-6)
    engines = cluster.engines()
    for engine in engines:
        engine.settle(horizon=True)
    clients = cluster.metrics.clients
    return {
        "counts": {name: list(m.period_counts) for name, m in clients.items()},
        "latency": {name: m.latency.summary() for name, m in clients.items()},
        "engines": [(e.faa_issued, e.faa_pool_empty, e.reports_written,
                     e.total_completed) for e in engines],
        "period_records": [node.monitor.period_records
                           for node in cluster.nodes],
    }


@pytest.mark.parametrize("build", [single_node, two_nodes, replicated],
                         ids=["single-node", "two-nodes", "replicated"])
def test_lazy_polls_match_the_timer_form_per_builder(build, monkeypatch):
    starts = []
    start = QoSEngine._start_polls

    def counted(self):
        starts.append(self.client_id)
        start(self)
    monkeypatch.setattr(QoSEngine, "_start_polls", counted)
    lazy = observe(build, eager=False)
    assert starts  # the cell polls an empty pool through chains
    monkeypatch.undo()
    assert lazy == observe(build, eager=True)
