"""A replicated deployment: primary + warm-standby data node.

Extends the paper's 1-node/N-client testbed with a second data node
that mirrors every two-sided PUT (semi-synchronous, see
``kvstore.server``) and runs its own QoS monitor, initially with no
clients.  Each client connects to *both* nodes through a
:class:`~repro.rdma.dispatch.ConnectionDispatcher`, binds its engine's
control handlers to both connections (tagged by source so only the
active monitor is honoured), and wires a
:class:`~repro.recovery.failover.FailoverManager` that fails it over to
the replica when the primary dies.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.core.config import HaechiConfig
from repro.cluster.builder import Assembly, ClientContext, Cluster
from repro.cluster.scale import SimScale
from repro.recovery.config import RecoveryConfig
from repro.recovery.failover import FailoverManager
from repro.rdma.dispatch import ConnectionDispatcher

# Control source 0 is the engine's own dispatcher: the primary.
REPLICA_SOURCE = 1


class ReplicatedCluster(Cluster):
    """A :class:`~repro.cluster.builder.Cluster` with a standby node:
    ``replica_host`` / ``replica_node`` / ``replica_monitor`` are views
    of ``nodes[1]``."""

    def __init__(self, assembly: Assembly, scale: SimScale,
                 clients: List[ClientContext], recovery: RecoveryConfig):
        super().__init__(assembly, scale, clients)
        replica = self.nodes[1]
        self.replica_host = replica.host
        self.replica_node = replica.data_node
        self.replica_monitor = replica.monitor
        self.recovery = recovery

    def inject_faults(self, plan, seed: int = 0):
        """Install the plan; a finite primary crash window additionally
        schedules the monitor's control-word re-initialization at the
        restart edge (the node's memory does not survive the crash)."""
        injector = super().inject_faults(plan, seed=seed)
        for crash in plan.crashes:
            if (crash.host == self.server_host.name
                    and math.isfinite(crash.end)):
                self.sim.schedule_at(crash.end, self.monitor.reinitialize)
        return injector

    @property
    def stores(self):
        """Both KV stores, primary first (for invariant checks)."""
        return (self.data_node.store, self.replica_node.store)


def build_replicated_cluster(
    num_clients: int,
    reservations_ops: List[float],
    scale: Optional[SimScale] = None,
    config: Optional[HaechiConfig] = None,
    recovery: Optional[RecoveryConfig] = None,
    num_slots: int = 4096,
    materialize: bool = False,
    touch_memory: bool = False,
    master_seed: int = 0,
) -> ReplicatedCluster:
    """Build the replicated testbed (Haechi QoS mode, one-sided I/O)."""
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    if len(reservations_ops) != num_clients:
        raise ConfigError("one reservation per client required")
    scale = scale or SimScale()
    config = config or scale.config()
    recovery = recovery or RecoveryConfig.from_config(config)

    bed = Assembly(config, num_clients, touch_memory=touch_memory,
                   master_seed=master_seed)
    primary = bed.deploy_node("server", True, num_slots, materialize)
    replica = bed.deploy_node("replica", True, num_slots, materialize)
    qp_pr, _qp_rp = bed.fabric.connect(primary.host, replica.host)
    primary.data_node.set_replica(
        qp_pr, ack_deadline=recovery.replication_deadline,
        attempts=recovery.replication_attempts,
    )
    # Rejoin handshakes ride the data nodes' RPC dispatchers (they are
    # two-sided control SENDs, like the handshake in Fig. 4's step T1).
    for node in bed.nodes:
        node.monitor.attach_rejoin_handler(node.data_node.dispatcher)

    clients: List[ClientContext] = []
    for i in range(num_clients):
        name = f"C{i + 1}"
        host = bed.add_host(name)
        router = ConnectionDispatcher()
        host.set_rpc_handler(router)
        # Both KV clients carry the same *logical* client name: the
        # store's idempotency index is keyed on it, so a PUT replayed
        # via the replica after failover dedups against the copy the
        # primary already forwarded.
        kv_primary, disp_primary, qp_back = bed.connect(
            host, primary, name, config.resolved_control_deadline, router
        )
        kv_replica, disp_replica, _qp_rc = bed.connect(
            host, replica, name, config.resolved_control_deadline, router
        )
        tokens = config.tokens_per_period(reservations_ops[i])
        engine = bed.enrol(primary, i, tokens, qp_back, kv_primary,
                           disp_primary)
        engine.bind_control_source(disp_replica, REPLICA_SOURCE)
        # After a failover the engine reports into the replica's words.
        replica.monitor.add_settler(engine)
        manager = FailoverManager(
            client_index=i,
            name=name,
            engine=engine,
            kv_primary=kv_primary,
            kv_replica=kv_replica,
            dispatcher_replica=disp_replica,
            reservation=tokens,
            recovery=recovery,
            replica_source=REPLICA_SOURCE,
        )
        clients.append(ClientContext(
            index=i, name=name, host=host, kv=kv_primary,
            dispatcher=disp_primary, engine=engine,
            kv_replica=kv_replica, failover=manager,
        ))

    return ReplicatedCluster(bed, scale, clients, recovery)
