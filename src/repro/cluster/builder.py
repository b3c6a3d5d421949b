"""Testbed assembly: one wiring for every deployment shape.

A client joins a data node exactly one way — a QP pair, a report slot
in the monitor's registered memory, an admission check, a reservation
(paper Sec. II, Fig. 4) — whatever the topology.  :class:`Assembly`
writes the three steps once (*deploy a data node*, *connect a client
host to it*, *enrol the client with its monitor*); ``build_cluster``
(the paper's 1-node / N-client testbed), ``build_multinode_cluster``
and ``build_replicated_cluster`` are loops over them, and every built
deployment is a :class:`Deployment`.  Apps and background jobs are
attached afterwards by the scenario code.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.types import AccessMode, QoSMode
from repro.core.admission import AdmissionController
from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.core.engine import QoSEngine
from repro.core.monitor import QoSMonitor
from repro.cluster.calibration import CHAMELEON, DEFAULT_PROFILE_RSD, TestbedCalibration
from repro.cluster.metrics import MetricsCollector
from repro.cluster.scale import SimScale
from repro.faults.injector import FaultInjector
from repro.kvstore.client import KVClient
from repro.kvstore.server import DataNode
from repro.rdma.cpu import CPUProfile
from repro.rdma.dispatch import TypeDispatcher
from repro.rdma.fabric import Fabric
from repro.rdma.nic import NICProfile
from repro.rdma.node import Host
from repro.sim.core import Simulator
from repro.workloads.background import BackgroundJob


@dataclasses.dataclass
class NodeDeployment:
    """One data node with its QoS machinery (no monitor in bare mode)."""

    index: int
    host: Host
    data_node: DataNode
    monitor: Optional[QoSMonitor]


@dataclasses.dataclass
class ClientContext:
    """Everything belonging to one client node."""

    index: int
    name: str
    host: Host
    kv: KVClient
    dispatcher: TypeDispatcher
    engine: Optional[QoSEngine] = None
    app: Optional[object] = None
    # Replicated deployments (repro.recovery): the standby connection
    # and the failover state machine driving it.
    kv_replica: Optional[KVClient] = None
    failover: Optional[object] = None
    # Hierarchical tenancy (repro.tenancy): set when a hierarchy is
    # bound; None for flat deployments.
    tenant: Optional[str] = None
    group: Optional[str] = None

    @property
    def engines(self) -> List[QoSEngine]:
        """This client's engines (none in bare mode)."""
        return [] if self.engine is None else [self.engine]

    def engine_labels(self, engine: QoSEngine) -> dict:
        """Gauge labels: the engine follows its client across nodes."""
        return {"client": self.name}

    def submitter(self, access: AccessMode = AccessMode.ONE_SIDED,
                  touch_memory: bool = False):
        """The submit(key, cb) callable apps should drive.

        Routes through the QoS engine when one is deployed, otherwise
        straight to the KV client in the requested access mode.
        """
        if self.engine is not None:
            return self.engine.submit
        if access is AccessMode.ONE_SIDED:
            return lambda key, cb: self.kv.get_onesided(
                key, cb, touch_memory=touch_memory
            )
        return self.kv.get_twosided


class Assembly:
    """One build's shared state and the three steps every builder
    repeats: :meth:`deploy_node`, :meth:`connect`, :meth:`enrol`.

    Host-add order, ``connect`` order and ``enrol`` order are behaviour
    (they fix QP numbering, slot indices and event tie-breaks, which
    the digest families pin); the builders choose them, the steps only
    do the wiring.
    """

    def __init__(self, config: HaechiConfig, num_clients: int,
                 touch_memory: bool = False, master_seed: int = 0,
                 fabric_model=None):
        self.config = config
        self.max_clients = max(64, num_clients)
        self.touch_memory = touch_memory
        self.master_seed = master_seed
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, model=fabric_model, seed=master_seed)
        # One profile pair per build, shared by every host.
        self.nic_profile = NICProfile.chameleon()
        self.cpu_profile = CPUProfile()
        self.nodes: List[NodeDeployment] = []

    def add_host(self, name: str) -> Host:
        """A host on the build's fabric with the shared profiles."""
        return self.fabric.add_host(
            Host(self.sim, name, self.nic_profile, self.cpu_profile)
        )

    def deploy_node(
        self,
        name: str,
        qos: bool,
        num_slots: int,
        materialize: bool = False,
        profiled: Optional[ProfiledCapacity] = None,
        calibration: TestbedCalibration = CHAMELEON,
        admission_enabled: bool = True,
    ) -> NodeDeployment:
        """Host + KV store and, with ``qos``, the capacity estimator,
        admission controller (C_G / C_L from ``calibration``) and
        monitor.  Haechi manages one-sided I/O only, so the one-sided
        capacities apply."""
        host = self.add_host(name)
        data_node = DataNode(host, num_slots=num_slots, materialize=materialize)
        monitor = None
        if qos:
            period = self.config.period
            capacity = calibration.one_sided_system * period
            if profiled is None:
                profiled = ProfiledCapacity(
                    mean=capacity, stddev=capacity * DEFAULT_PROFILE_RSD
                )
            admission = None
            if admission_enabled:
                admission = AdmissionController(
                    global_tokens_per_period=int(capacity),
                    local_tokens_per_period=int(
                        calibration.one_sided_client * period
                    ),
                )
            monitor = QoSMonitor(
                host, self.config,
                AdaptiveCapacityEstimator.from_config(profiled, self.config),
                admission=admission, max_clients=self.max_clients,
            )
        node = NodeDeployment(len(self.nodes), host, data_node, monitor)
        self.nodes.append(node)
        return node

    def connect(self, host: Host, node: NodeDeployment, name: str,
                rpc_deadline: Optional[float] = None, router=None):
        """QP pair to ``node`` + the connection's dispatcher + a KV
        client named ``name``: ``(kv, dispatcher, node-side qp)``.

        A host with one connection takes the dispatcher as its RPC
        handler; a host with several passes the ``router``
        (:class:`~repro.rdma.dispatch.ConnectionDispatcher`) it already
        installed.  Two-sided RPCs whose response never arrives fail at
        ``rpc_deadline`` instead of leaking the pending entry.
        """
        qp, qp_back = self.fabric.connect(host, node.host)
        if router is None:
            dispatcher = TypeDispatcher()
            host.set_rpc_handler(dispatcher)
        else:
            dispatcher = router.register_connection(qp)
        kv = KVClient(
            name, qp, dispatcher,
            layout=node.data_node.store.layout,
            data_rkey=node.data_node.store.region.rkey,
            rpc_deadline=rpc_deadline,
        )
        return kv, dispatcher, qp_back

    def enrol(self, node: NodeDeployment, client_id: int, tokens: int,
              qp_back, kv: KVClient, dispatcher,
              limit: Optional[int] = None) -> QoSEngine:
        """Admit ``client_id`` at the node's monitor (admission check,
        report slot, reservation) and build its engine over that slot,
        taking control messages from ``dispatcher``.  The monitor settles
        the engine's live reports and empty polls before it touches the
        report or pool words."""
        layout = node.monitor.add_client(client_id, tokens, qp_back)
        engine = QoSEngine(
            client_id=client_id, kv=kv, layout=layout, config=self.config,
            reservation=tokens, limit=limit, dispatcher=dispatcher,
            touch_memory=self.touch_memory, seed=self.master_seed,
        )
        node.monitor.add_settler(engine)
        return engine


class Deployment:
    """What every built deployment has, whatever its topology."""

    def __init__(self, assembly: Assembly, scale: SimScale, clients: list):
        self._assembly = assembly
        self.sim = assembly.sim
        self.fabric = assembly.fabric
        self.scale = scale
        self.config = assembly.config
        self.nodes = assembly.nodes
        self.clients = clients
        self.metrics = MetricsCollector(self.sim, self.config.period)
        self.background_jobs: List[BackgroundJob] = []
        self.fault_injector = None
        self._started = False

    def engines(self) -> List[QoSEngine]:
        """Every QoS engine, in client then node order."""
        return [e for client in self.clients for e in client.engines]

    def flush_ledgers(self) -> None:
        """Close every engine's open ledger account (before an audit)."""
        for engine in self.engines():
            engine.ledger_flush()

    def inject_faults(self, plan, seed: int = 0):
        """Install a :class:`~repro.faults.plan.FaultPlan` on the fabric.

        Call before :meth:`start`; returns the installed injector (also
        kept as ``self.fault_injector`` for metrics collection).
        """
        self.fault_injector = FaultInjector(plan, seed).install(self.fabric)
        return self.fault_injector

    def start(self) -> None:
        """Begin QoS periods on every node (no-op for bare clusters)."""
        if self._started:
            raise ConfigError("cluster already started")
        self._started = True
        for node in self.nodes:
            if node.monitor is not None:
                node.monitor.start()

    def _background_job(self, node: NodeDeployment, schedule, window: int,
                        rate_ops: Optional[float]) -> BackgroundJob:
        """An unmanaged congestion source against ``node`` (its own
        host + QP, outside admission and the token scheme)."""
        name = f"bg{len(self.background_jobs) + 1}"
        host = self._assembly.add_host(name)
        kv, _dispatcher, _qp = self._assembly.connect(host, node, name)
        job = BackgroundJob(
            self.sim, kv, schedule=schedule, window=window, rate_ops=rate_ops
        )
        self.background_jobs.append(job)
        return job


class Cluster(Deployment):
    """One data node, N clients: the paper's testbed, ready for apps
    and :func:`run_experiment`.  ``server_host`` / ``data_node`` /
    ``monitor`` / ``admission`` are views of ``nodes[0]``."""

    def __init__(self, assembly: Assembly, scale: SimScale, clients: list):
        super().__init__(assembly, scale, clients)
        primary = self.nodes[0]
        self.server_host = primary.host
        self.data_node = primary.data_node
        self.monitor = primary.monitor
        self.admission = (
            None if primary.monitor is None else primary.monitor.admission
        )
        self.touch_memory = assembly.touch_memory

    def add_background_job(
        self, schedule, window: int = 64, rate_ops: float = None
    ) -> BackgroundJob:
        """Attach an unmanaged congestion source (its own host + QP)."""
        return self._background_job(self.nodes[0], schedule, window, rate_ops)


def build_cluster(
    num_clients: int,
    qos_mode: QoSMode = QoSMode.HAECHI,
    reservations_ops: Optional[List[float]] = None,
    limits_ops: Optional[List[float]] = None,
    scale: Optional[SimScale] = None,
    access: AccessMode = AccessMode.ONE_SIDED,
    profiled: Optional[ProfiledCapacity] = None,
    calibration: TestbedCalibration = CHAMELEON,
    num_slots: int = 4096,
    materialize: bool = False,
    touch_memory: bool = False,
    admission_enabled: bool = True,
    config: Optional[HaechiConfig] = None,
    master_seed: int = 0,
    fabric_model=None,
) -> Cluster:
    """Build the testbed.

    ``reservations_ops`` are per-client reservations in *unscaled*
    ops/second (paper units); they are converted to tokens per dilated
    period internally.  ``profiled`` seeds the capacity estimator
    (tokens per dilated period); when omitted it defaults to the
    calibrated system capacity with a small assumed standard deviation.

    ``fabric_model`` (a :class:`repro.rdma.cc.FabricModel`) upgrades
    every connection to the congestion-controlled datapath — PCIe
    posting costs, per-verb buckets, bounded SQ, DCQCN, PFC (see
    docs/FABRIC.md).  ``None`` keeps the historical NIC-only contention
    model, byte-identical to previous builds.
    """
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    scale = scale or SimScale()
    config = config or scale.config(
        token_conversion=(qos_mode is not QoSMode.BASIC_HAECHI)
    )
    if qos_mode is QoSMode.BASIC_HAECHI and config.token_conversion:
        raise ConfigError("Basic Haechi requires token_conversion=False")

    qos = qos_mode in (QoSMode.HAECHI, QoSMode.BASIC_HAECHI)
    if qos:
        if access is not AccessMode.ONE_SIDED:
            raise ConfigError("Haechi manages one-sided I/O only")
        if reservations_ops is None or len(reservations_ops) != num_clients:
            raise ConfigError(
                "QoS modes need one reservation per client "
                f"(got {reservations_ops!r} for {num_clients} clients)"
            )
        if limits_ops is not None and len(limits_ops) != num_clients:
            raise ConfigError("limits_ops must match num_clients")

    bed = Assembly(config, num_clients, touch_memory=touch_memory,
                   master_seed=master_seed, fabric_model=fabric_model)
    node = bed.deploy_node(
        "server", qos, num_slots, materialize=materialize,
        profiled=profiled, calibration=calibration,
        admission_enabled=admission_enabled,
    )
    clients: List[ClientContext] = []
    for i in range(num_clients):
        name = f"C{i + 1}"  # paper numbering
        host = bed.add_host(name)
        # RPC deadline: generous — a full period, far above any
        # healthy RTT.
        kv, dispatcher, qp_back = bed.connect(
            host, node, name, rpc_deadline=config.period
        )
        context = ClientContext(
            index=i, name=name, host=host, kv=kv, dispatcher=dispatcher
        )
        if qos:
            limit = None
            if limits_ops is not None and limits_ops[i] is not None:
                limit = config.tokens_per_period(limits_ops[i])
            context.engine = bed.enrol(
                node, i, config.tokens_per_period(reservations_ops[i]),
                qp_back, kv, dispatcher, limit=limit,
            )
        clients.append(context)
    return Cluster(bed, scale, clients)
