"""A fabric port's FIFO fixes the target order at launch.

Under a fabric model every data op to a host passes that host's port
in admission order, so a fast op (a timing-only READ or WRITE with no
span and a registered rkey) takes its target-pipeline slot at launch
and schedules only its completion; every other op keeps its arrival
event, and the fast ops launched behind it are charged when it has
arrived.  The oracle is the retired two-event datapath
(``reference_qp.EventArrivalQueuePair``): over random mixes of verbs,
posts and chains from several QPs into one port, both must produce the
same completions, deliveries, memory, target pipeline and port
counters, and the new path must schedule exactly one event fewer per
fast op.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.types import OpType
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.rdma import Fabric, Host, NICProfile
from repro.rdma.cc import FabricModel
from repro.rdma.cpu import CPUProfile
from repro.rdma.memory import Permissions
from repro.rdma.verbs import WorkRequest
from repro.sim import Simulator

from tests.rdma.reference_qp import event_arrival_qps, launch_charge_qps

#: Op kinds a post draws from; ``FAST`` ones take the ordered shortcut.
KINDS = ("read", "write", "read_touch", "write_touch", "faa", "cas",
         "send", "bad_rkey", "span_read", "control_faa")
FAST = {"read", "write"}
REGION_WORDS = 64


class StubSpan:
    """Records the stage marks and the finish the datapath makes."""

    def __init__(self):
        self.marks = []

    def mark(self, stage, time):
        self.marks.append((stage, time))

    def finish(self, time, ok=True, error=None):
        self.marks.append(("finish", time, ok, error))


def _wr(kind, wr_id, region, sizes, spans, on_wc):
    slot = wr_id % REGION_WORDS
    addr = region.addr + 8 * slot
    size = sizes[wr_id % len(sizes)]
    common = dict(wr_id=wr_id, on_completion=on_wc)
    if kind in ("read", "read_touch", "span_read", "bad_rkey"):
        span = None
        if kind == "span_read":
            span = spans.setdefault(wr_id, StubSpan())
        return WorkRequest(
            OpType.READ, size=8 if kind == "read_touch" else size,
            remote_addr=addr,
            rkey=region.rkey + (999 if kind == "bad_rkey" else 0),
            touch_memory=kind == "read_touch", span=span, **common)
    if kind in ("write", "write_touch"):
        touch = kind == "write_touch"
        return WorkRequest(
            OpType.WRITE, size=8 if touch else size, remote_addr=addr,
            rkey=region.rkey, touch_memory=touch,
            payload=wr_id.to_bytes(8, "little") if touch else None,
            **common)
    if kind in ("faa", "control_faa"):
        return WorkRequest(OpType.FETCH_ADD, size=8, remote_addr=addr,
                           rkey=region.rkey, add_value=wr_id,
                           control=kind == "control_faa", **common)
    if kind == "cas":
        return WorkRequest(OpType.COMPARE_SWAP, size=8, remote_addr=addr,
                           rkey=region.rkey, compare=0, swap=wr_id,
                           **common)
    return WorkRequest(OpType.SEND, size=64, payload=("msg", wr_id),
                       **common)


def run_plan(plan, qps=None):
    """Run ``plan`` on a fresh fabric; return what it observably did.

    ``qps`` is a context manager choosing the QP class the fabric
    builds (the new datapath when None).
    """
    sim = Simulator()
    model = FabricModel(link_gbps=plan["link_gbps"],
                        sq_depth=plan["sq_depth"])
    with qps or contextlib.nullcontext():
        fabric = Fabric(sim, model=model, seed=5)
        profile = NICProfile.chameleon()
        server = fabric.add_host(Host(sim, "server", profile, CPUProfile()))
        delivered = []
        server.set_rpc_handler(
            lambda payload, _qp: delivered.append((sim.now, payload)))
        region = server.memory.allocate_and_register(
            8 * REGION_WORDS, Permissions.all())
        links = []
        for i in range(plan["qps"]):
            host = fabric.add_host(Host(sim, f"c{i}", profile, CPUProfile()))
            qp, back = fabric.connect(host, server, prepost_recvs=0)
            if plan["recvs"][i]:
                back.post_recv(plan["recvs"][i])
            links.append(qp)
    wcs = {}
    spans = {}

    def on_wc(wc):
        wcs[wc.wr_id] = (wc.status.name, wc.value, wc.posted_at,
                         wc.completed_at)

    next_id = iter(range(1, 1 << 20))
    fast = 0
    for qp_index, at_ns, kinds in plan["posts"]:
        qp = links[qp_index % len(links)]
        if len(kinds) > 1:
            # Chains carry data-plane WRs only.
            kinds = [k for k in kinds if k != "control_faa"] or ["read"]
        wrs = [_wr(kind, next(next_id), region, plan["sizes"], spans, on_wc)
               for kind in kinds]
        fast += sum(kind in FAST for kind in kinds)
        if len(wrs) == 1:
            sim.schedule_at(at_ns * 1e-9, qp.post_send, wrs[0])
        else:
            sim.schedule_at(at_ns * 1e-9, qp.post_chain, wrs)
    sim.run()
    port = fabric.ports["server"]
    target = server.nic.target
    observed = {
        "wcs": wcs,
        "delivered": delivered,
        "memory": server.memory.remote_read(region.rkey, region.addr,
                                            region.length),
        "target": (target._free_at, target._busy),
        "handled": server.nic.handled_ops,
        "control_target": server.nic.control_target_cost_total,
        "port": (port.ops_admitted, port.bytes_admitted, port.ecn_marks,
                 port.pfc_pause_events, port.pfc_pause_seconds,
                 port.pfc_delayed_ops, port.pipe._free_at),
        "qps": [(qp.outstanding, qp.fab.cnps_sent, qp.fab.sq.in_use,
                 qp.fab.sq_stall_events, qp.fab.cc.rate)
                for qp in links],
        "spans": {wr_id: span.marks for wr_id, span in spans.items()},
        "now": sim.now,
        "pending": len(port.pending),
    }
    return observed, sim._seq, fast


post = st.tuples(
    st.integers(0, 5),
    st.integers(0, 40_000),  # posting instant, ns
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
)
plans = st.fixed_dictionaries({
    "qps": st.integers(2, 6),
    "link_gbps": st.sampled_from([0.5, 50.0]),
    "sq_depth": st.sampled_from([2, 128]),
    "recvs": st.lists(st.integers(0, 3), min_size=6, max_size=6),
    "sizes": st.lists(st.sampled_from([64, 512, 4096, 16384]),
                      min_size=1, max_size=3),
    "posts": st.lists(post, min_size=1, max_size=30),
})


@settings(max_examples=150, deadline=None)
@given(plans)
def test_port_order_equals_the_two_event_datapath(plan):
    observed, events, fast = run_plan(plan)
    reference, reference_events, _fast = run_plan(plan, event_arrival_qps())
    assert observed == reference
    assert observed["pending"] == 0
    assert reference_events - events == fast


def _send_then_reads():
    """SENDs and an atomic launched ahead of fast reads and a write
    from other QPs, close enough that they queue at the target."""
    return {
        "qps": 3, "link_gbps": 50.0, "sq_depth": 128,
        "recvs": [1, 0, 0, 0, 0, 0],
        "sizes": [4096],
        "posts": [(0, 0, ["send"]), (1, 100, ["faa"]),
                  (2, 150, ["read", "read", "write"]),
                  (1, 200, ["read"]), (0, 250, ["send"])],
    }


def test_fast_ops_behind_a_pending_op_wait_for_its_arrival():
    plan = _send_then_reads()
    observed, events, fast = run_plan(plan)
    reference, reference_events, _fast = run_plan(plan, event_arrival_qps())
    assert observed == reference
    assert reference_events - events == fast == 4


def test_charging_every_fast_op_at_launch_is_caught():
    """The wrong variant charges the reads ahead of the SEND and the
    atomic still in flight before them: the comparison must see it."""
    plan = _send_then_reads()
    wrong, _events, _fast = run_plan(plan, launch_charge_qps())
    reference, _reference_events, _fast = run_plan(plan,
                                                   event_arrival_qps())
    assert wrong["wcs"] != reference["wcs"]


def _bare_port(sim, delay=None):
    fabric = Fabric(sim, model=FabricModel.chameleon(), seed=1)
    profile = NICProfile.chameleon()
    server = fabric.add_host(Host(sim, "server", profile, CPUProfile()))
    client = fabric.add_host(Host(sim, "c0", profile, CPUProfile()))
    region = server.memory.allocate_and_register(4096, Permissions.all())
    qp, _back = fabric.connect(client, server)
    if delay is not None:
        qp.prop_delay = delay
    return fabric, qp, region


def _timing_read(region):
    return WorkRequest(OpType.READ, size=4096, remote_addr=region.addr,
                       rkey=region.rkey, touch_memory=False)


def test_injector_install_refuses_ops_charged_ahead_of_arrival():
    """A brownout starting before an op charged at launch arrives would
    have slowed it on the two-event path: installing an injector while
    such an op is in flight is refused, and allowed once it arrived."""
    sim = Simulator()
    fabric, qp, region = _bare_port(sim)
    qp.post_send(_timing_read(region))
    assert fabric.ports["server"].in_flight()
    with pytest.raises(ConfigError, match="in flight"):
        FaultInjector(FaultPlan(), seed=1).install(fabric)
    assert fabric.injector is None
    sim.run()
    FaultInjector(FaultPlan(), seed=1).install(fabric)
    assert fabric.injector is not None


def test_a_qp_with_another_delay_takes_the_event_path():
    """A QP whose delay is not the port's cannot keep arrivals in launch
    order, so its op schedules an arrival and the port stops ordering;
    meeting ops the port already ordered in flight, it is refused."""
    sim = Simulator()
    fabric, qp, region = _bare_port(sim, delay=3e-6)
    qp.post_send(_timing_read(region))
    port = fabric.ports["server"]
    assert port.prop_delay is None
    assert sim._seq == 1 and not port.in_flight()  # the arrival event

    fabric, qp, region = _bare_port(Simulator())
    qp.post_send(_timing_read(region))  # charged ahead of its arrival
    qp.prop_delay = 3e-6
    with pytest.raises(ConfigError, match="another propagation delay"):
        qp.post_send(_timing_read(region))
