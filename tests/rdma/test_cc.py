"""Fabric model: posting costs, verb buckets, SQ, DCQCN, ECN/PFC.

Covers the congestion-controlled datapath of :mod:`repro.rdma.cc` and
the modeled branches of :class:`repro.rdma.qp.QueuePair`: the pinned
doorbell-batching cost advantage, SQ backpressure and slot accounting
on faulted paths, DCQCN reaction-point dynamics, and the port's
ECN-marking / PFC-pause arithmetic.
"""

import dataclasses
import math

import pytest

from repro.common.types import OpType
from repro.kvstore import DataNode, KVClient
from repro.rdma import Fabric, Host, NICProfile
from repro.rdma.cc import DCQCNState, FabricModel, FabricPort
from repro.rdma.cpu import CPUProfile
from repro.rdma.dispatch import TypeDispatcher
from repro.rdma.verbs import WCStatus, WorkRequest


def fabric_mini(sim, num_clients=1, model=None, seed=7):
    """A MiniCluster-alike whose fabric carries a FabricModel."""
    model = model or FabricModel.chameleon()

    class _Deployment:
        pass

    d = _Deployment()
    d.sim = sim
    d.model = model
    d.fabric = Fabric(sim, model=model, seed=seed)
    profile = NICProfile.chameleon()
    d.server = d.fabric.add_host(Host(sim, "server", profile, CPUProfile()))
    d.node = DataNode(d.server, num_slots=64)
    d.clients = []
    for i in range(num_clients):
        host = d.fabric.add_host(Host(sim, f"c{i}", profile, CPUProfile()))
        qp_cs, _qp_sc = d.fabric.connect(host, d.server)
        dispatcher = TypeDispatcher()
        host.set_rpc_handler(dispatcher)
        d.clients.append(KVClient(
            f"c{i}", qp_cs, dispatcher,
            layout=d.node.store.layout,
            data_rkey=d.node.store.region.rkey,
        ))
    return d


def read_wr(mini_like, on_completion=None, size=4096):
    """A timing-only READ against the data region."""
    kv = mini_like.clients[0]
    return WorkRequest(
        opcode=OpType.READ, size=size,
        remote_addr=kv.layout.slot_addr(0), rkey=kv.data_rkey,
        touch_memory=False, on_completion=on_completion,
    )


# ---------------------------------------------------------------------------
# FabricModel configuration and cost helpers
# ---------------------------------------------------------------------------

class TestFabricModel:
    def test_chameleon_posting_costs_pinned(self):
        model = FabricModel.chameleon()
        # 1.0 us per un-chained post: strictly under the 2.5 us issue
        # pipeline, so the C_L knee is untouched with the model on.
        assert model.single_post_cost() == pytest.approx(1.0e-6)
        assert model.chained_post_cost(16) == pytest.approx(
            16 * 0.15e-6 + 0.85e-6
        )

    def test_chained_cost_pays_one_doorbell_per_batch(self):
        model = FabricModel.chameleon()
        for n in (1, 15, 16, 17, 48, 100):
            batches = math.ceil(n / model.doorbell_batch_limit)
            assert model.chained_post_cost(n) == pytest.approx(
                n * model.pcie_desc_cost + batches * model.pcie_doorbell_cost
            )

    def test_burst_advantage_pinned(self):
        model = FabricModel.chameleon()
        assert model.burst_advantage(1) == pytest.approx(1.0)
        # Full doorbell batch: 16 us single vs 16*0.15 + 0.85 = 3.25 us.
        assert model.burst_advantage(16) == pytest.approx(16.0 / 3.25)

    def test_link_rate_is_50_gbps(self):
        assert FabricModel.chameleon().link_bytes_per_sec == pytest.approx(
            6.25e9
        )

    @pytest.mark.parametrize("bad", [
        {"doorbell_batch_limit": 0},
        {"sq_depth": 0},
        {"link_gbps": 0.0},
        {"ecn_kmin_bytes": 500_000.0},   # >= kmax
        {"pfc_resume_bytes": 700_000.0},  # >= pause
    ])
    def test_validation_rejects_bad_config(self, bad):
        with pytest.raises(ValueError):
            dataclasses.replace(FabricModel.chameleon(), **bad)


# ---------------------------------------------------------------------------
# DCQCN reaction point
# ---------------------------------------------------------------------------

class TestDCQCN:
    def test_first_cnp_halves_the_rate(self):
        cc = DCQCNState(FabricModel.chameleon())
        line = cc.line_rate
        cc.on_cnp(0.0)
        # alpha starts (and stays, on the first CNP) at 1.0, so the cut
        # is the full multiplicative decrease: rate *= 1 - alpha/2.
        assert cc.alpha == pytest.approx(1.0)
        assert cc.rate == pytest.approx(0.5 * line)
        assert cc.target == pytest.approx(line)  # pre-cut rate
        assert cc.stage == 0
        assert cc.cnps_received == 1 and cc.rate_decreases == 1

    def test_rate_never_cut_below_floor(self):
        model = FabricModel.chameleon()
        cc = DCQCNState(model)
        for i in range(200):
            cc.on_cnp(i * 1e-6)  # faster than the timer: no recovery
        assert cc.rate >= model.min_rate_bps
        assert cc.rate == pytest.approx(model.min_rate_bps)

    def test_fast_recovery_climbs_back_toward_target(self):
        model = FabricModel.chameleon()
        cc = DCQCNState(model)
        cc.on_cnp(0.0)
        cut = cc.rate
        cc.pace(0.0, 3 * model.dcqcn_timer)  # three quiet timer rounds
        assert cut < cc.rate < cc.line_rate
        # Each round moves halfway to the (pre-cut) target.
        assert cc.rate == pytest.approx(
            cc.line_rate - (cc.line_rate - cut) * 0.5 ** 3
        )

    def test_long_idle_fully_recovers_with_capped_rounds(self):
        model = FabricModel.chameleon()
        cc = DCQCNState(model)
        cc.on_cnp(0.0)
        cc.pace(0.0, 1.0)  # ~18000 timer rounds elapsed; capped at 64
        assert cc.rate == pytest.approx(cc.line_rate)
        assert cc.last_timer == pytest.approx(1.0)

    def test_alpha_decays_every_quiet_round(self):
        model = FabricModel.chameleon()
        cc = DCQCNState(model)
        cc.on_cnp(0.0)
        cc.pace(0.0, 4 * model.dcqcn_timer)
        assert cc.alpha == pytest.approx((1.0 - model.dcqcn_g) ** 4)

    def test_pace_serializes_at_current_rate(self):
        cc = DCQCNState(FabricModel.chameleon())
        nbytes = 4160.0
        assert cc.pace(nbytes, 0.0) == pytest.approx(0.0)
        # Second frame waits for the first to drain at the paced rate.
        assert cc.pace(nbytes, 0.0) == pytest.approx(nbytes / cc.line_rate)
        assert cc.bytes_paced == pytest.approx(2 * nbytes)


# ---------------------------------------------------------------------------
# FabricPort: ECN marking and PFC pause/resume arithmetic
# ---------------------------------------------------------------------------

class TestFabricPort:
    def make_port(self, sim, **over):
        model = FabricModel.chameleon()
        if over:
            model = dataclasses.replace(model, **over)
        return FabricPort(sim, "p", model, seed=7), model

    def test_uncongested_frame_unmarked(self, sim):
        port, model = self.make_port(sim)
        exit_time, marked = port.admit(4160.0, 0.0)
        assert not marked and port.ecn_marks == 0
        assert exit_time == pytest.approx(4160.0 / model.link_bytes_per_sec)

    def test_queue_above_kmax_always_marks(self, sim):
        port, model = self.make_port(sim)
        port.admit(model.ecn_kmax_bytes + 10_000.0, 0.0)
        _, marked = port.admit(100.0, 0.0)
        assert marked and port.ecn_marks == 1

    def test_marks_between_knees_are_seed_deterministic(self, sim):
        def run(seed):
            port = FabricPort(sim, "p", FabricModel.chameleon(), seed=seed)
            port.admit(250_000.0, 0.0)  # queue squarely between the knees
            return [port.admit(100.0, 0.0)[1] for _ in range(64)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # the stream really is seed-derived

    def test_pfc_pause_asserts_and_resumes_at_threshold(self, sim):
        port, model = self.make_port(sim)
        rate = model.link_bytes_per_sec
        burst = 700_000.0  # past the 600 KB pause threshold
        port.admit(burst, 0.0)
        assert port.pfc_pause_events == 1
        # The port drains at line rate, so resume is exact arithmetic:
        # paused until the queue is back down to the resume threshold.
        expected_resume = (burst - model.pfc_resume_bytes) / rate
        assert port.paused_until == pytest.approx(expected_resume)
        assert port.pfc_pause_seconds == pytest.approx(expected_resume)
        # A frame arriving during the pause window waits at the sender.
        exit_time, _ = port.admit(100.0, 0.0)
        assert port.pfc_delayed_ops == 1
        assert exit_time >= expected_resume

    def test_pause_not_reasserted_while_already_paused(self, sim):
        port, model = self.make_port(sim)
        port.admit(700_000.0, 0.0)
        port.admit(100.0, 0.0)  # delayed to the resume instant
        assert port.pfc_pause_events == 1


# ---------------------------------------------------------------------------
# Modeled QueuePair datapath
# ---------------------------------------------------------------------------

class TestModeledDatapath:
    def test_single_post_completes_and_frees_sq_slot(self, sim):
        d = fabric_mini(sim)
        qp = d.clients[0].qp
        got = []
        qp.post_send(read_wr(d, on_completion=got.append))
        sim.run(until=0.01)
        assert got and got[0].ok
        assert qp.fab.single_posts == 1
        assert qp.fab.sq.in_use == 0 and qp.outstanding == 0

    def test_post_chain_matches_calibrated_burst_advantage(self, sim):
        """The satellite-1 pin: the actual posting timeline of an n-WR
        chain vs n single posts reproduces ``burst_advantage(n)``."""
        n = 48
        chained = fabric_mini(sim)
        qp = chained.clients[0].qp
        qp.post_chain([read_wr(chained) for _ in range(n)])
        chain_span = qp.fab.post_ready_at - 0.0

        from repro.sim import Simulator
        sim2 = Simulator()
        single = fabric_mini(sim2)
        qp2 = single.clients[0].qp
        for _ in range(n):
            qp2.post_send(read_wr(single))
        single_span = qp2.fab.post_ready_at - 0.0

        model = chained.model
        assert chain_span == pytest.approx(model.chained_post_cost(n))
        assert single_span == pytest.approx(n * model.single_post_cost())
        assert single_span / chain_span == pytest.approx(
            model.burst_advantage(n)
        )
        assert qp.fab.chain_posts == 1 and qp.fab.chain_wrs == n
        # Both variants drain completely.
        sim.run(until=0.05)
        sim2.run(until=0.05)
        assert qp.fab.sq.in_use == 0 and qp2.fab.sq.in_use == 0

    def test_post_chain_without_model_degrades_to_post_send(self, mini):
        qp = mini.clients[0].qp
        got = []
        kv = mini.clients[0]
        wrs = [WorkRequest(opcode=OpType.READ, size=64,
                           remote_addr=kv.layout.slot_addr(0),
                           rkey=kv.data_rkey, touch_memory=False,
                           on_completion=got.append)
               for _ in range(4)]
        ids = qp.post_chain(wrs)
        assert len(ids) == 4 and qp.fab is None
        mini.sim.run(until=0.01)
        assert len(got) == 4 and all(wc.ok for wc in got)

    def test_control_ops_bypass_the_model(self, sim):
        d = fabric_mini(sim)
        qp = d.clients[0].qp
        from repro.rdma.memory import Permissions
        region = d.server.memory.allocate_and_register(64, Permissions.all())
        got = []
        qp.post_send(WorkRequest(
            opcode=OpType.FETCH_ADD, size=8, remote_addr=region.addr,
            rkey=region.rkey, add_value=1, control=True,
            on_completion=got.append,
        ))
        sim.run(until=0.01)
        assert got and got[0].ok
        # The control lane never touched posting costs or the SQ.
        assert qp.fab.single_posts == 0 and qp.fab.sq.in_use == 0

    def test_sq_backpressure_stalls_then_drains(self, sim):
        model = dataclasses.replace(FabricModel.chameleon(), sq_depth=4)
        d = fabric_mini(sim, model=model)
        qp = d.clients[0].qp
        got = []
        for _ in range(32):
            qp.post_send(read_wr(d, on_completion=got.append))
        assert qp.fab.sq_stall_events == 28  # everything beyond the SQ
        sim.run(until=0.05)
        assert len(got) == 32 and all(wc.ok for wc in got)
        assert qp.fab.sq.in_use == 0 and qp.outstanding == 0

    def test_atomic_bucket_throttles_vs_reads(self, sim):
        """Per-verb diversity: the same chain of ops takes longer on the
        atomic bucket (500 K ops/s) than on the READ bucket (2 M)."""
        from repro.rdma.memory import Permissions
        from repro.sim import Simulator

        def makespan(opcode):
            s = Simulator()
            d = fabric_mini(s)
            qp = d.clients[0].qp
            region = d.server.memory.allocate_and_register(
                64, Permissions.all()
            )
            done = []
            if opcode is OpType.READ:
                wrs = [read_wr(d, on_completion=done.append, size=8)
                       for _ in range(200)]
            else:
                wrs = [WorkRequest(
                    opcode=opcode, size=8, remote_addr=region.addr,
                    rkey=region.rkey, add_value=1,
                    on_completion=done.append,
                ) for _ in range(200)]
            qp.post_chain(wrs)
            s.run(until=0.05)
            assert len(done) == 200 and all(wc.ok for wc in done)
            return max(wc.completed_at for wc in done)

        assert makespan(OpType.FETCH_ADD) > makespan(OpType.READ)


# ---------------------------------------------------------------------------
# Faulted paths must return their SQ slots (the accounting fix)
# ---------------------------------------------------------------------------

class TestFaultedSlotAccounting:
    def test_qp_close_flushes_waiters_and_releases_all_slots(self, sim):
        model = dataclasses.replace(FabricModel.chameleon(), sq_depth=2)
        d = fabric_mini(sim, model=model)
        qp = d.clients[0].qp
        got = []
        for _ in range(6):
            qp.post_send(read_wr(d, on_completion=got.append))
        assert qp.fab.sq.in_use == 2 and qp.fab.sq_stall_events == 4
        qp.close()
        sim.run(until=0.05)
        # Every WR — in flight and SQ-queued alike — flushes, and every
        # slot comes back (no semaphore leak, no RuntimeError).
        assert len(got) == 6
        assert all(wc.status is WCStatus.FLUSH_ERROR for wc in got)
        assert qp.fab.sq.in_use == 0 and qp.outstanding == 0

    def test_deep_sq_backlog_flushes_iteratively_in_fifo_order(self, sim):
        """Regression: flushing a backlogged SQ used to recurse once per
        queued WR (_fail -> sq.release -> next waiter's callback), so a
        few hundred queued WRs at close time blew the Python stack."""
        model = dataclasses.replace(FabricModel.chameleon(), sq_depth=2)
        d = fabric_mini(sim, model=model)
        qp = d.clients[0].qp
        order = []
        wrs = [read_wr(d, on_completion=lambda wc: order.append(wc.wr_id))
               for _ in range(2000)]
        qp.post_chain(wrs)
        qp.close()
        sim.run(until=1.0)
        assert len(order) == 2000
        assert qp.fab.sq.in_use == 0 and qp.outstanding == 0
        # Queued WRs flush in posting order (RC FIFO flush), not the
        # reversed order the recursive unwind used to produce.  (The
        # backlog drains from inside the first in-flight WR's _fail —
        # its slot release starts the chain — so the queued flushes
        # land before the in-flight WRs' own completions.)
        queued = [wr.wr_id for wr in wrs[2:]]
        assert order[:len(queued)] == queued

    def test_dropped_wrs_release_their_slots(self, sim):
        from repro.faults.injector import FaultVerdict

        model = dataclasses.replace(FabricModel.chameleon(), sq_depth=4)
        d = fabric_mini(sim, model=model)
        qp = d.clients[0].qp

        class DropFirstK:
            """Duck-typed injector: drop the first k posts, pass the rest."""

            def __init__(self, k):
                self.k = k

            def on_post(self, _qp, _wr):
                if self.k > 0:
                    self.k -= 1
                    return FaultVerdict(drop=True, fail_after=1e-6,
                                        reason="test drop")
                return FaultVerdict()

        d.fabric.injector = DropFirstK(6)
        got = []
        for _ in range(16):
            qp.post_send(read_wr(d, on_completion=got.append))
        sim.run(until=0.05)
        failed = [wc for wc in got if not wc.ok]
        assert len(got) == 16 and len(failed) == 6
        assert all(wc.status is WCStatus.RETRY_EXC_ERROR for wc in failed)
        # A dropped WR that kept its slot would leave in_use > 0 here
        # and would have starved the 12 successes of SQ slots.
        assert qp.fab.sq.in_use == 0 and qp.outstanding == 0

    def test_seeded_qp_close_plan_on_qos_cluster(self):
        """Regression: the qp-close fault plan on the modeled datapath
        leaks no SQ slots on the victim and leaves survivors running."""
        from repro.cluster.experiment import run_experiment
        from repro.cluster.scenarios import (
            TEST_SCALE, fault_plan, qos_cluster,
        )

        cluster = qos_cluster(
            reservations=[60_000] * 4, demands=[120_000.0] * 4,
            scale=TEST_SCALE, master_seed=11,
            fabric_model=FabricModel.chameleon(),
        )
        plan = fault_plan("qp-close", cluster.config, client=0,
                          start_period=2)
        cluster.inject_faults(plan, seed=11)
        result = run_experiment(cluster, warmup_periods=1, measure_periods=4)
        assert cluster.fault_injector.qps_closed == 1
        victim = cluster.clients[0].kv.qp
        assert victim.closed
        # The flush path returned every slot the victim ever held.
        assert victim.fab.sq.in_use == 0
        # Survivors keep making progress on the modeled datapath.
        for ctx in cluster.clients[1:]:
            assert sum(result.client_period_counts[ctx.name]) > 0


# ---------------------------------------------------------------------------
# End-to-end congestion control
# ---------------------------------------------------------------------------

class TestCongestionControl:
    def test_incast_generates_cnps_only_with_cc_enabled(self):
        from repro.cluster.fabric_scenarios import run_mixed_verb

        on = run_mixed_verb(11, "read-only", cc_enabled=True,
                            num_clients=4, ops_per_client=300)
        off = run_mixed_verb(11, "read-only", cc_enabled=False,
                             num_clients=4, ops_per_client=300)
        assert on["all_finished"] and off["all_finished"]
        assert on["cc"]["qps"]["cnps_sent"] > 0
        assert off["cc"]["qps"]["cnps_sent"] == 0
        # ECN marking at the port happens either way; only the reaction
        # point (DCQCN) is gated by cc_enabled.
        assert on["cc"]["ports"]["server"]["ecn_marks"] > 0
        assert off["cc"]["ports"]["server"]["ecn_marks"] > 0

    def test_incast_rates_converge_below_line(self):
        from repro.cluster.fabric_scenarios import run_mixed_verb

        on = run_mixed_verb(11, "read-only", cc_enabled=True,
                            num_clients=4, ops_per_client=300)
        line = FabricModel.chameleon().link_bytes_per_sec
        congested = [q for q in on["qps"] if q["cnps_received"] > 0]
        assert congested, "incast produced no congested QPs"
        for q in congested:
            assert q["rate_bps"] < line
        assert on["cc"]["min_congested_rate_bps"] < line


class TestMixedVerbAtomics:
    """The verb-mix scenarios aim atomics at a region that grants them
    (the store's own rkey is read/write only)."""

    @pytest.mark.parametrize("kind", ["write-heavy", "cas-heavy"])
    def test_canonical_mixes_finish_without_failures(self, kind):
        from repro.cluster.fabric_scenarios import run_mixed_verb

        result = run_mixed_verb(11, kind)
        assert result["all_finished"]
        assert "failed_ops" not in result
        for summary in result["drivers"].values():
            assert summary["failed"] == 0
            assert summary["ops_by_verb"]["atomic"] > 0
            assert summary["completed"] == summary["posted"]

    def test_atomic_bucket_throttles(self, monkeypatch):
        # In the canonical mixes a QP's atomics stay under 300 K ops/s
        # (the issue pipeline binds first), so the 500 K ops/s bucket
        # is driven with atomics alone.
        from repro.cluster import fabric_scenarios as fs

        monkeypatch.setitem(
            fs.VERB_MIXES, "atomic-only", ((1.0, OpType.COMPARE_SWAP),)
        )
        ops = 1200
        result = fs.run_mixed_verb(11, "atomic-only", num_clients=1,
                                   ops_per_client=ops)
        model = FabricModel.chameleon()
        floor = (ops - model.bucket_burst_ops) / model.atomic_bucket_ops
        assert "failed_ops" not in result
        assert floor <= result["makespan"] < 1.05 * floor

    def test_failures_are_visible_in_the_result(self, monkeypatch):
        from repro.cluster import fabric_scenarios as fs
        from repro.rdma.memory import Permissions

        # The old bug, on purpose: a region without remote_atomic.
        monkeypatch.setattr(
            Permissions, "all",
            classmethod(lambda cls: cls(remote_read=True,
                                        remote_write=True)),
        )
        result = fs.run_mixed_verb(11, "cas-heavy", num_clients=2,
                                   ops_per_client=200)
        atomics = sum(d["ops_by_verb"]["atomic"]
                      for d in result["drivers"].values())
        assert result["failed_ops"] == atomics > 0
