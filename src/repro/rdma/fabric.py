"""The fabric: wires hosts together with connected QP pairs."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdma.node import Host
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import CompletionQueue

# One-way propagation delay of the simulated InfiniBand fabric.  Chosen
# to match ConnectX-3-era small-message latency (~3 us round trip).
DEFAULT_PROP_DELAY = 1.5e-6


class Fabric:
    """A switched fabric with uniform propagation delay.

    By default contention is modelled at the NIC pipelines, not in the
    switch, which matches the paper's single-data-node bottleneck
    structure.  Passing a :class:`~repro.rdma.cc.FabricModel` upgrades
    every subsequently created connection to the verb-diverse,
    congestion-controlled datapath (PCIe posting costs, per-verb
    buckets, bounded SQ, ECN/CNP/DCQCN, PFC — see docs/FABRIC.md); with
    ``model=None`` the datapath is byte-identical to the historical one.
    """

    def __init__(self, sim: "Simulator", prop_delay: float = DEFAULT_PROP_DELAY,  # noqa: F821
                 model=None, seed: int = 0):
        if prop_delay < 0:
            raise ValueError(f"negative propagation delay: {prop_delay}")
        self.sim = sim
        self.prop_delay = prop_delay
        self.hosts: Dict[str, Host] = {}
        self.connections: List[Tuple[QueuePair, QueuePair]] = []
        # Optional FaultInjector (see repro.faults): consulted by every
        # QP of this fabric on post_send.  Installed post-hoc so a fully
        # wired cluster can be made faulty without rebuilding it.
        self.injector = None
        # Optional FabricModel (see repro.rdma.cc) + the seed its ECN
        # marking streams derive from.  One congestible ingress port is
        # created per destination host, lazily at connect time.
        self.model = model
        self.seed = seed
        self.ports: Dict[str, "FabricPort"] = {}  # noqa: F821

    def add_host(self, host: Host) -> Host:
        """Attach a host to the fabric."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        return host

    def port_for(self, host_name: str) -> "FabricPort":  # noqa: F821
        """The congestible ingress port in front of ``host_name``
        (created on first use; fabric model must be enabled)."""
        port = self.ports.get(host_name)
        if port is None:
            from repro.rdma.cc import FabricPort

            port = FabricPort(self.sim, host_name, self.model, self.seed,
                              self.prop_delay)
            self.ports[host_name] = port
        return port

    def connect(
        self,
        a: Host,
        b: Host,
        cq_a: Optional[CompletionQueue] = None,
        cq_b: Optional[CompletionQueue] = None,
        prepost_recvs: int = 1 << 20,
    ) -> Tuple[QueuePair, QueuePair]:
        """Create a connected QP pair between hosts ``a`` and ``b``.

        Returns ``(qp_ab, qp_ba)``.  Both sides are pre-posted with a
        deep receive queue by default (apps that want RNR fidelity can
        pass ``prepost_recvs=0`` and manage recv credits themselves).
        """
        for host in (a, b):
            if host.name not in self.hosts:
                raise ValueError(f"host {host.name!r} not attached to fabric")
        cq_a = cq_a or CompletionQueue(f"{a.name}->{b.name}")
        cq_b = cq_b or CompletionQueue(f"{b.name}->{a.name}")
        qp_ab = QueuePair(self.sim, a, b, cq_a, self.prop_delay)
        qp_ba = QueuePair(self.sim, b, a, cq_b, self.prop_delay)
        qp_ab.reverse = qp_ba
        qp_ba.reverse = qp_ab
        qp_ab.fabric = self
        qp_ba.fabric = self
        if self.model is not None:
            from repro.rdma.cc import QPFabricState

            qp_ab.fab = QPFabricState(self.sim, self.model,
                                      self.port_for(b.name))
            qp_ba.fab = QPFabricState(self.sim, self.model,
                                      self.port_for(a.name))
        if prepost_recvs:
            qp_ab.post_recv(prepost_recvs)
            qp_ba.post_recv(prepost_recvs)
        self.connections.append((qp_ab, qp_ba))
        return qp_ab, qp_ba

    # ------------------------------------------------------------------
    def cc_summary(self) -> dict:
        """Aggregate congestion-control counters (cold path; empty when
        the fabric model is off)."""
        if self.model is None:
            return {}
        ports = {
            name: {
                "ops_admitted": p.ops_admitted,
                "bytes_admitted": p.bytes_admitted,
                "ecn_marks": p.ecn_marks,
                "pfc_pause_events": p.pfc_pause_events,
                "pfc_pause_seconds": p.pfc_pause_seconds,
                "pfc_delayed_ops": p.pfc_delayed_ops,
            }
            for name, p in sorted(self.ports.items())
        }
        qps = {"cnps_sent": 0, "rate_decreases": 0, "sq_stall_events": 0,
               "chain_posts": 0, "chain_wrs": 0, "single_posts": 0}
        min_rate = None
        for qp_ab, qp_ba in self.connections:
            for qp in (qp_ab, qp_ba):
                fab = qp.fab
                if fab is None:
                    continue
                qps["cnps_sent"] += fab.cnps_sent
                qps["sq_stall_events"] += fab.sq_stall_events
                qps["chain_posts"] += fab.chain_posts
                qps["chain_wrs"] += fab.chain_wrs
                qps["single_posts"] += fab.single_posts
                if fab.cc is not None:
                    qps["rate_decreases"] += fab.cc.rate_decreases
                    if fab.cc.cnps_received > 0 and (
                            min_rate is None or fab.cc.rate < min_rate):
                        min_rate = fab.cc.rate
        return {"ports": ports, "qps": qps,
                "min_congested_rate_bps": min_rate}
