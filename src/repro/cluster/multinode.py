"""Multi-data-node Haechi (the paper's future-work extension).

Scales the deployment to several data nodes: each node runs its own KV
store, QoS monitor and admission controller; each client connects to
every node and runs one QoS engine *per node*, with its reservation
split evenly across nodes.  Keys are striped across nodes (``node =
key % num_nodes``) so a client's aggregate throughput combines its
per-node guarantees — mirroring how single-server token schemes were
extended to clusters in the pTrans/pShift line of work the paper cites.

The client host keeps a single NIC, so the per-client local capacity
``C_L`` remains a *global* constraint across nodes, exactly as it would
on real hardware.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.errors import ConfigError
from repro.common.types import QoSMode
from repro.core.engine import QoSEngine
from repro.cluster.builder import Assembly, Deployment
from repro.globalqos.waterfill import even_split
from repro.cluster.scale import SimScale
from repro.kvstore.client import KVClient
from repro.rdma.dispatch import ConnectionDispatcher
from repro.rdma.node import Host
from repro.workloads.app import BurstApp, constant_demand


class StripedClient:
    """A client striped across all data nodes (one engine per node)."""

    def __init__(self, index: int, name: str, host: Host):
        self.index = index
        self.name = name
        self.host = host
        self.kv_clients: List[KVClient] = []
        self.engines: List[QoSEngine] = []
        self.app = None
        # Connection routing, kept for post-build wiring (the global
        # coordinator registers extra control handlers on these).
        self.router: Optional[ConnectionDispatcher] = None
        self.dispatchers: List = []
        # Aggregate reservation (tokens/period) and its per-node split,
        # kept current by the global coordinator's apply path; the
        # builder seeds them with the static even split.
        self.aggregate_reservation = 0
        self.splits: List[int] = []
        # Per-node submission counts — the demand signal the global
        # coordinator's client agent reports each epoch.
        self.node_submitted: List[int] = []

    def submit(self, key: int, on_complete: Callable) -> None:
        """Route one I/O to the node owning ``key`` (modulo striping)."""
        num_nodes = len(self.kv_clients)
        node = key % num_nodes
        node_key = key // num_nodes
        self.node_submitted[node] += 1
        if self.engines:
            self.engines[node].submit(node_key, on_complete)
        else:
            self.kv_clients[node].get_onesided(
                node_key, on_complete, touch_memory=False
            )

    def engine_labels(self, engine: QoSEngine) -> dict:
        """Gauge labels: one engine per (client, node)."""
        return {"client": self.name, "node": engine.kv.qp.dst.name}

    @property
    def total_completed(self) -> int:
        """Completions across all per-node engines."""
        return sum(engine.total_completed for engine in self.engines)


class MultiNodeCluster(Deployment):
    """N data nodes x M striped clients under Haechi."""

    def __init__(self, assembly: Assembly, scale: SimScale,
                 clients: List[StripedClient]):
        super().__init__(assembly, scale, clients)
        # Populated by repro.globalqos.attach_coordinator; ``standby``
        # by repro.globalqos.attach_standby (HA failover wiring).
        self.coordinator = None
        self.standby = None
        self.client_agents = []
        self.node_agents = []

    def add_background_job(self, node_index: int, schedule,
                           rate_ops: float = None, window: int = 64):
        """Attach an unmanaged congestion source against one data node."""
        return self._background_job(
            self.nodes[node_index], schedule, window, rate_ops
        )

    def attach_burst_app(self, client: StripedClient, demand_ops: float,
                         window: Optional[int] = None,
                         key_gen=None) -> BurstApp:
        """A burst app driving the striped submitter.

        ``key_gen`` is any object with a ``next() -> int`` method — the
        :mod:`repro.workloads.ycsb` generators (uniform / zipfian /
        scrambled-zipfian / hotspot) plug in directly, making skewed
        multi-node workloads expressible without a custom driver.  When
        omitted, the original sequential scan over the striped keyspace
        is used.
        """
        keyspace = len(self.nodes) * min(
            node.data_node.store.layout.num_slots for node in self.nodes
        )
        if key_gen is not None:
            gen_next = key_gen.next

            def key_fn() -> int:
                return gen_next() % keyspace
        else:
            state = {"next": client.index % keyspace}

            def key_fn() -> int:
                key = state["next"]
                state["next"] = (key + 1) % keyspace
                return key

        hook = self.metrics.hook(client.name)
        client.app = BurstApp(
            sim=self.sim,
            name=client.name,
            submit=client.submit,
            key_fn=key_fn,
            demand_fn=constant_demand(
                self.config.tokens_per_period(demand_ops)
            ),
            period=self.config.period,
            window=window,
            on_complete=hook,
        )
        return client.app


def build_multinode_cluster(
    num_nodes: int,
    num_clients: int,
    reservations_ops: List[float],
    scale: Optional[SimScale] = None,
    qos_mode: QoSMode = QoSMode.HAECHI,
    num_slots: int = 4096,
) -> MultiNodeCluster:
    """Build N data nodes with M clients striped across them.

    ``reservations_ops`` are *aggregate* per-client reservations; each
    node enforces an even ``1/num_nodes`` share of them.
    """
    if num_nodes < 1:
        raise ConfigError(f"num_nodes must be >= 1, got {num_nodes}")
    if len(reservations_ops) != num_clients:
        raise ConfigError("one reservation per client required")
    if qos_mode is QoSMode.BASIC_HAECHI:
        raise ConfigError("multi-node supports HAECHI or BARE")

    scale = scale or SimScale()
    config = scale.config()
    bed = Assembly(config, num_clients)
    for n in range(num_nodes):
        bed.deploy_node(
            f"server{n + 1}", qos_mode is QoSMode.HAECHI, num_slots
        )

    clients: List[StripedClient] = []
    for i in range(num_clients):
        name = f"C{i + 1}"
        host = bed.add_host(name)
        router = ConnectionDispatcher()
        host.set_rpc_handler(router)
        striped = StripedClient(i, name, host)
        striped.router = router
        # Split the *aggregate* token reservation, not the ops rate:
        # rounding tokens_per_period(rate / num_nodes) per node could
        # sum below the client's aggregate (up to num_nodes - 1 tokens
        # silently lost).  Largest-remainder over the node index keeps
        # the sum exact and deterministic.
        aggregate_tokens = config.tokens_per_period(reservations_ops[i])
        node_tokens = even_split(aggregate_tokens, num_nodes)
        striped.aggregate_reservation = aggregate_tokens
        striped.splits = list(node_tokens)
        striped.node_submitted = [0] * num_nodes
        for node in bed.nodes:
            kv, dispatcher, qp_back = bed.connect(
                host, node, f"{name}->{node.host.name}", router=router
            )
            striped.dispatchers.append(dispatcher)
            striped.kv_clients.append(kv)
            if node.monitor is not None:
                striped.engines.append(bed.enrol(
                    node, i, node_tokens[node.index], qp_back, kv, dispatcher
                ))
        clients.append(striped)

    return MultiNodeCluster(bed, scale, clients)
