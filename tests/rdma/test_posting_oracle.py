"""The fabric model's host posting against an independent oracle.

``posting_oracle.PostingOracle`` re-derives Snippet 1's ``post`` /
``post_chain`` arithmetic (descriptor plus doorbell per post, one
doorbell per batch of a chain, the ``post_ready_at`` timeline, the
SQ-depth frontier, the per-verb buckets).  Driven with the same random
posts, chains and completions as real QPs, it must predict the instant
every WR reaches the issue pipeline (the bucket-delayed ``ready`` that
``QueuePair._launch`` hands to ``RNIC.submit_issue``) and each QP's
posting counters.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import OpType
from repro.rdma import Fabric, Host, NICProfile
from repro.rdma.cc import FabricModel
from repro.rdma.cpu import CPUProfile
from repro.rdma.memory import Permissions
from repro.rdma.nic import RNIC
from repro.rdma.verbs import WorkRequest
from repro.sim import Simulator

from tests.rdma.posting_oracle import PostingOracle

VERBS = (OpType.READ, OpType.WRITE, OpType.FETCH_ADD)


def _fabric(model, senders):
    sim = Simulator()
    fabric = Fabric(sim, model=model, seed=3)
    profile = NICProfile.chameleon()
    server = fabric.add_host(Host(sim, "server", profile, CPUProfile()))
    region = server.memory.allocate_and_register(4096, Permissions.all())
    qps = []
    for i in range(senders):
        host = fabric.add_host(Host(sim, f"c{i}", profile, CPUProfile()))
        qps.append(fabric.connect(host, server)[0])
    return sim, region, qps


def _wr(wr_id, opcode, size, region, on_wc):
    return WorkRequest(opcode, wr_id=wr_id,
                       size=8 if opcode.atomic else size,
                       remote_addr=region.addr, rkey=region.rkey,
                       add_value=1, touch_memory=False, on_completion=on_wc)


post = st.tuples(
    st.integers(0, 1),  # sender
    st.integers(0, 60_000),  # posting instant, ns
    st.lists(st.tuples(st.sampled_from(VERBS),
                       st.sampled_from([64, 4096, 16384])),
             min_size=1, max_size=40),
    st.booleans(),  # chained (else one post_send per WR)
)
models = st.builds(
    FabricModel,
    doorbell_batch_limit=st.integers(1, 16),
    sq_depth=st.integers(1, 12),
    read_bucket_ops=st.sampled_from([2e5, 2e6]),
    write_bucket_ops=st.sampled_from([1e5, 1e6]),
    atomic_bucket_ops=st.sampled_from([5e4, 5e5]),
    bucket_burst_ops=st.sampled_from([1.0, 4.0, 64.0]),
)


@settings(max_examples=120, deadline=None)
@given(models, st.lists(post, min_size=1, max_size=12))
def test_posting_matches_the_oracle(model, posts):
    sim, region, qps = _fabric(model, senders=2)
    oracles = [PostingOracle(model) for _ in qps]
    seen = {}
    submit_issue = RNIC.submit_issue

    def recording(nic, wr, at):
        if not wr.control:
            seen[wr.wr_id] = at
        return submit_issue(nic, wr, at)

    def on_wc_of(sender):
        def on_wc(wc):
            # QueuePair._complete has already freed the slot (granting
            # a waiting WR) when the completion reaches its callback.
            oracles[sender].complete(sim.now)
        return on_wc

    ids = iter(range(1, 1 << 20))
    for sender, at_ns, ops, chained in posts:
        wrs = [_wr(next(ids), op, size, region, on_wc_of(sender))
               for op, size in ops]
        qp, oracle = qps[sender], oracles[sender]
        if chained:
            def action(qp=qp, oracle=oracle, wrs=wrs):
                oracle.post_chain(sim.now, wrs)
                qp.post_chain(wrs)
        else:
            def action(qp=qp, oracle=oracle, wrs=wrs):
                for wr in wrs:
                    oracle.post(sim.now, wr)
                    qp.post_send(wr)
        sim.schedule_at(at_ns * 1e-9, action)
    with mock.patch.object(RNIC, "submit_issue", recording):
        sim.run()

    expected = {}
    for oracle in oracles:
        expected.update(oracle.nic_sees)
    assert seen.keys() == expected.keys()
    for wr_id, at in seen.items():
        assert at == pytest.approx(expected[wr_id], rel=1e-12, abs=1e-18)
    for qp, oracle in zip(qps, oracles):
        fab = qp.fab
        assert fab.post_ready_at == pytest.approx(oracle.post_ready_at,
                                                  rel=1e-12, abs=1e-18)
        assert (fab.single_posts, fab.chain_posts, fab.chain_wrs,
                fab.sq_stall_events) == (oracle.single_posts,
                                         oracle.chain_posts,
                                         oracle.chain_wrs, oracle.stalls)
        assert fab.sq.in_use == oracle.held == 0
        assert qp.outstanding == 0


@pytest.mark.parametrize("limit", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 15, 16, 17, 40])
def test_an_idle_chain_pays_its_descriptors_and_one_doorbell_a_batch(limit,
                                                                     n):
    model = FabricModel(doorbell_batch_limit=limit, sq_depth=64)
    sim, region, qps = _fabric(model, senders=1)
    qps[0].post_chain([_wr(i + 1, OpType.READ, 4096, region, None)
                       for i in range(n)])
    cost = (n * model.pcie_desc_cost
            + math.ceil(n / limit) * model.pcie_doorbell_cost)
    assert qps[0].fab.post_ready_at == pytest.approx(cost, rel=1e-12)
    assert model.chained_post_cost(n) == pytest.approx(cost, rel=1e-12)
