"""Queue-pair datapath: one-sided ops, sends, errors, ordering."""

import pytest

from repro.common.errors import QPError
from repro.common.types import OpType
from repro.rdma.verbs import WCStatus, WorkRequest


def post_and_run(mini, wr):
    """Post on the client QP, run to completion, return the WC."""
    qp = mini.clients[0].qp
    got = []
    qp.cq.set_handler(got.append)
    qp.post_send(wr)
    mini.sim.run(until=0.01)
    assert got, "no completion delivered"
    return got[0]


def control_region(mini):
    """A small writable/atomic region on the server for control tests."""
    from repro.rdma.memory import Permissions

    mm = mini.server.memory
    return mm.allocate_and_register(64, Permissions.all())


class TestOneSided:
    def test_read_returns_data(self, mini):
        region = control_region(mini)
        mini.server.memory.backing.write(region.addr, b"payload!")
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                        rkey=region.rkey),
        )
        assert wc.ok and wc.value == b"payload!"

    def test_write_lands_in_server_memory(self, mini):
        region = control_region(mini)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.WRITE, size=4, remote_addr=region.addr,
                        rkey=region.rkey, payload=b"abcd"),
        )
        assert wc.ok
        assert mini.server.memory.backing.read(region.addr, 4) == b"abcd"

    def test_timing_only_read_moves_no_bytes(self, mini):
        region = control_region(mini)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                        rkey=region.rkey, touch_memory=False),
        )
        assert wc.ok and wc.value is None

    def test_write_with_touch_memory_requires_payload(self, mini):
        region = control_region(mini)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.WRITE, size=8, remote_addr=region.addr,
                        rkey=region.rkey),
        )
        # surfaced as a failed completion, not a crash
        assert not wc.ok

    def test_fetch_add_returns_prior_value(self, mini):
        region = control_region(mini)
        mini.server.memory.backing.write_u64(region.addr, 100)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.FETCH_ADD, remote_addr=region.addr,
                        rkey=region.rkey, add_value=-30),
        )
        assert wc.ok and wc.value == 100
        assert mini.server.memory.backing.read_u64(region.addr) == 70

    def test_compare_swap(self, mini):
        region = control_region(mini)
        mini.server.memory.backing.write_u64(region.addr, 5)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.COMPARE_SWAP, remote_addr=region.addr,
                        rkey=region.rkey, compare=5, swap=42),
        )
        assert wc.ok and wc.value == 5
        assert mini.server.memory.backing.read_u64(region.addr) == 42

    def test_bad_rkey_fails_completion(self, mini):
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.READ, size=8, remote_addr=4096, rkey=0xBAD),
        )
        assert wc.status is WCStatus.REMOTE_ACCESS_ERROR
        assert "rkey" in wc.error

    def test_out_of_bounds_fails_completion(self, mini):
        region = control_region(mini)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.READ, size=128, remote_addr=region.addr,
                        rkey=region.rkey),
        )
        assert wc.status is WCStatus.REMOTE_ACCESS_ERROR

    def test_latency_includes_both_propagations(self, mini):
        region = control_region(mini)
        wc = post_and_run(
            mini,
            WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                        rkey=region.rkey),
        )
        assert wc.latency >= 2 * mini.fabric.prop_delay


class TestSend:
    def test_send_delivers_payload_to_host(self, mini):
        got = []
        mini.server.set_rpc_handler(lambda payload, qp: got.append(payload))
        wc = post_and_run(
            mini, WorkRequest(opcode=OpType.SEND, size=64, payload={"op": "ping"})
        )
        assert wc.ok
        assert got == [{"op": "ping"}]

    def test_send_without_recv_is_rnr(self, mini):
        qp = mini.clients[0].qp
        qp.reverse.recv_posted = 0
        wc = post_and_run(
            mini, WorkRequest(opcode=OpType.SEND, size=64, payload="x")
        )
        assert wc.status is WCStatus.RNR_RETRY_EXC_ERROR
        assert "RNR" in wc.error

    def test_unposted_connection_hits_rnr(self, mini):
        # A connection built with prepost_recvs=0 has no recv credits at
        # all: the very first SEND must complete as RNR-retries-exceeded,
        # not as a generic flush.
        from repro.rdma import Fabric, Host, NICProfile
        from repro.rdma.cpu import CPUProfile
        from repro.sim import Simulator

        sim = Simulator()
        fabric = Fabric(sim)
        a = fabric.add_host(Host(sim, "a", NICProfile.chameleon(), CPUProfile()))
        b = fabric.add_host(Host(sim, "b", NICProfile.chameleon(), CPUProfile()))
        qp_ab, _qp_ba = fabric.connect(a, b, prepost_recvs=0)
        got = []
        qp_ab.cq.set_handler(got.append)
        qp_ab.post_send(WorkRequest(opcode=OpType.SEND, size=64, payload="x"))
        sim.run(until=0.01)
        assert got and got[0].status is WCStatus.RNR_RETRY_EXC_ERROR

    def test_send_consumes_one_recv(self, mini):
        qp = mini.clients[0].qp
        qp.reverse.recv_posted = 2
        mini.server.set_rpc_handler(lambda payload, q: None)
        post_and_run(mini, WorkRequest(opcode=OpType.SEND, size=8, payload="a"))
        assert qp.reverse.recv_posted == 1


class TestQPBehaviour:
    def test_wr_ids_are_unique(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        ids = {
            qp.post_send(
                WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                            rkey=region.rkey, touch_memory=False)
            )
            for _ in range(10)
        }
        assert len(ids) == 10

    def test_outstanding_limit_enforced(self, mini):
        qp = mini.clients[0].qp
        qp.max_outstanding = 2
        region = control_region(mini)
        wr = lambda: WorkRequest(opcode=OpType.READ, size=8,
                                 remote_addr=region.addr, rkey=region.rkey,
                                 touch_memory=False)
        qp.post_send(wr())
        qp.post_send(wr())
        with pytest.raises(QPError):
            qp.post_send(wr())

    def test_outstanding_released_on_completion(self, mini):
        qp = mini.clients[0].qp
        region = control_region(mini)
        qp.post_send(
            WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                        rkey=region.rkey, touch_memory=False)
        )
        assert qp.outstanding == 1
        mini.sim.run(until=0.01)
        assert qp.outstanding == 0

    def test_post_recv_validates_count(self, mini):
        with pytest.raises(ValueError):
            mini.clients[0].qp.post_recv(0)

    def test_fifo_completion_order_per_qp(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(lambda wc: done.append(wc.wr_id))
        posted = [
            qp.post_send(
                WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                            rkey=region.rkey, touch_memory=False)
            )
            for _ in range(5)
        ]
        mini.sim.run(until=0.01)
        assert done == posted


class TestQPClose:
    def test_post_after_close_rejected(self, mini):
        qp = mini.clients[0].qp
        qp.close()
        with pytest.raises(QPError):
            qp.post_send(WorkRequest(opcode=OpType.SEND, size=8, payload="x"))

    def test_inflight_wrs_flush_on_close(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(done.append)
        qp.post_send(
            WorkRequest(opcode=OpType.READ, size=8, remote_addr=region.addr,
                        rkey=region.rkey, touch_memory=False)
        )
        qp.close()
        mini.sim.run(until=0.01)
        assert len(done) == 1
        assert done[0].status is WCStatus.FLUSH_ERROR
        assert qp.outstanding == 0

    def test_double_close_is_noop(self, mini):
        qp = mini.clients[0].qp
        qp.close()
        qp.close()


class TestUnsignaled:
    """``WorkRequest.signaled=False`` (no ``IBV_SEND_SIGNALED``): a
    successful one-sided WR retires at the target — no CQE and no
    completion event — while anything that goes wrong still completes."""

    @staticmethod
    def silent_write(region, **overrides):
        fields = dict(opcode=OpType.WRITE, size=8, remote_addr=region.addr,
                      rkey=region.rkey, payload=(7).to_bytes(8, "little"),
                      control=True, signaled=False)
        fields.update(overrides)
        return WorkRequest(**fields)

    def test_signaled_is_the_default(self):
        assert WorkRequest(opcode=OpType.WRITE).signaled is True

    def test_success_applies_the_write_and_delivers_no_completion(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(done.append)
        before = mini.sim._seq
        qp.post_send(self.silent_write(region))
        assert qp.outstanding == 1
        mini.sim.run(until=0.01)
        assert mini.server.memory.backing.read_u64(region.addr) == 7
        assert done == [] and len(qp.cq) == 0
        assert qp.outstanding == 0
        assert mini.sim._seq - before == 1  # the arrival; no completion event

    def test_signaled_twin_takes_two_events_and_completes(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(done.append)
        before = mini.sim._seq
        qp.post_send(self.silent_write(region, signaled=True))
        mini.sim.run(until=0.01)
        assert len(done) == 1 and done[0].ok
        assert mini.sim._seq - before == 2

    def test_bad_rkey_still_completes_with_an_error(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(done.append)
        qp.post_send(self.silent_write(region, rkey=region.rkey + 12345))
        mini.sim.run(until=0.01)
        assert [wc.status for wc in done] == [WCStatus.REMOTE_ACCESS_ERROR]
        assert qp.outstanding == 0

    def test_injector_drop_still_completes_with_an_error(self, mini):
        from repro.faults import FaultPlan
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import DropRule

        FaultInjector(FaultPlan(drops=(DropRule(rate=1.0),))).install(
            mini.fabric)
        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(done.append)
        qp.post_send(self.silent_write(region))
        mini.sim.run(until=0.01)
        assert [wc.status for wc in done] == [WCStatus.RETRY_EXC_ERROR]
        assert qp.outstanding == 0
        assert mini.server.memory.backing.read_u64(region.addr) == 0

    def test_span_carrying_wr_completes_and_closes_its_span(self, mini):
        from repro.telemetry.spans import Span

        region = control_region(mini)
        qp = mini.clients[0].qp
        done = []
        qp.cq.set_handler(done.append)
        span = Span(1, "control_report", "c0", mini.sim.now, control=True)
        qp.post_send(self.silent_write(region, span=span))
        mini.sim.run(until=0.01)
        assert len(done) == 1 and done[0].ok
        assert span.finished and span.ok
        assert span.marks[-1] == ("fabric_return", span.end)
        assert qp.outstanding == 0

    def test_closed_qp_leaves_nothing_outstanding(self, mini):
        region = control_region(mini)
        qp = mini.clients[0].qp
        qp.post_send(self.silent_write(region))
        qp.close()
        mini.sim.run(until=0.01)
        assert qp.outstanding == 0


class TestUnsignaledSend:
    """An unsignaled SEND that succeeds delivers its payload and retires
    at its ack, as a signaled one does, but leaves no CQE — the data
    node's SENDs land in CQs nobody polls, where a CQE is kept for the
    life of the connection.  A failed one still completes."""

    @staticmethod
    def pair():
        from repro.rdma import Fabric, Host, NICProfile
        from repro.rdma.cpu import CPUProfile
        from repro.sim import Simulator

        sim = Simulator()
        fabric = Fabric(sim)
        a = fabric.add_host(Host(sim, "a", NICProfile.chameleon(), CPUProfile()))
        b = fabric.add_host(Host(sim, "b", NICProfile.chameleon(), CPUProfile()))
        delivered = []
        b.set_rpc_handler(lambda payload, _qp: delivered.append(
            (sim.now, payload)))
        qp_ab, _qp_ba = fabric.connect(a, b)
        return sim, qp_ab, delivered

    def test_success_delivers_and_retires_at_the_ack_with_no_cqe(self):
        sim, qp, delivered = self.pair()
        qp.post_send(WorkRequest(opcode=OpType.SEND, size=64, payload="m"))
        sim.run()
        (wc,) = qp.cq.poll()
        ack_at, events = wc.completed_at, sim._seq

        sim, qp, silent_delivered = self.pair()
        qp.post_send(WorkRequest(opcode=OpType.SEND, size=64, payload="m",
                                 signaled=False))
        sim.run(until=ack_at - 1e-12)
        assert silent_delivered == delivered  # payload in, same instant
        assert qp.outstanding == 1  # still awaiting its ack
        sim.run(until=ack_at)
        assert qp.outstanding == 0
        assert len(qp.cq) == 0 and qp.cq._queue is None
        sim.run()
        assert sim._seq == events  # the ack is still an event

    def test_closed_qp_still_flushes_with_an_error(self):
        sim, qp, _delivered = self.pair()
        qp.post_send(WorkRequest(opcode=OpType.SEND, size=64, payload="m",
                                 signaled=False))
        qp.close()
        sim.run()
        assert [wc.status for wc in qp.cq.poll()] == [WCStatus.FLUSH_ERROR]
        assert qp.outstanding == 0
