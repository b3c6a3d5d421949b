"""An independent model of host posting under the fabric model.

This re-derives the arithmetic of rdma-dm-sim's ``NIC::post`` and
``NIC::post_chain`` (SNIPPETS.md, Snippet 1) for one queue pair, written
from that source rather than from :mod:`repro.rdma.cc`:

- a single post pays a descriptor and a doorbell, starting no earlier
  than the QP's previous post finished (the ``post_ready_at`` timeline);
- a chain of ``n`` WRs pays ``n`` descriptors and ``ceil(n / limit)``
  doorbells, one per batch of ``limit`` WRs, and a batch becomes
  visible to the NIC when its doorbell rings;
- each WR then draws one token from its verb's bucket (READ, WRITE or
  atomic), which refills at the bucket's rate up to its burst and, when
  short, serializes the WR at the rate from its own timeline;
- the send queue holds ``sq_depth`` WRs; a WR posted into a full SQ
  waits (FIFO) for a completion to free a slot and then pays a single
  post.  This is the model's SQ-depth frontier: Snippet 1 pushes the
  posting timeline to the completion frontier instead, and the
  repository's SQ makes the wait explicit.

:class:`PostingOracle` is driven with the same posts and completions as
a real QP and records, per WR, the instant the NIC sees it.
"""

from __future__ import annotations

from collections import deque

from repro.common.types import OpType


class _Bucket:
    """A token bucket as Snippet 1's ``TokenBucket`` (one op per take)."""

    def __init__(self, ops_per_s: float, burst_ops: float):
        self.ops_per_s = ops_per_s
        self.burst_ops = burst_ops
        self.level = burst_ops
        self.last = 0.0

    def take(self, at: float) -> float:
        if at > self.last:
            self.level = min(self.burst_ops,
                             self.level + (at - self.last) * self.ops_per_s)
            self.last = at
        if self.level >= 1.0:
            self.level -= 1.0
            return at
        # Short: the missing fraction accrues from the bucket's own clock.
        self.last += (1.0 - self.level) / self.ops_per_s
        self.level = 0.0
        return self.last


class PostingOracle:
    """Host posting, SQ and verb buckets of one QP (module docstring)."""

    def __init__(self, model):
        self.desc_s = model.pcie_desc_cost
        self.doorbell_s = model.pcie_doorbell_cost
        self.limit = model.doorbell_batch_limit
        self.depth = model.sq_depth
        burst = model.bucket_burst_ops
        self.buckets = {
            "read": _Bucket(model.read_bucket_ops, burst),
            "write": _Bucket(model.write_bucket_ops, burst),
            "atomic": _Bucket(model.atomic_bucket_ops, burst),
        }
        self.post_ready_at = 0.0
        self.held = 0
        self.waiting = deque()
        self.nic_sees = {}  # wr_id -> instant the issue pipeline gets it
        self.single_posts = 0
        self.chain_posts = 0
        self.chain_wrs = 0
        self.stalls = 0

    @staticmethod
    def _verb(opcode) -> str:
        if opcode is OpType.READ:
            return "read"
        if opcode.atomic:
            return "atomic"
        return "write"

    def _ring(self, now: float, descriptors: int) -> float:
        t = max(now, self.post_ready_at)
        self.post_ready_at = t + descriptors * self.desc_s + self.doorbell_s
        return self.post_ready_at

    def _issue(self, wr, visible_at: float) -> None:
        self.nic_sees[wr.wr_id] = self.buckets[self._verb(wr.opcode)].take(
            visible_at)

    def _slot(self, wr) -> bool:
        if self.held < self.depth:
            self.held += 1
            return True
        self.stalls += 1
        self.waiting.append(wr)
        return False

    def post(self, now: float, wr) -> None:
        """``ibv_post_send`` of one WR."""
        if self._slot(wr):
            self.single_posts += 1
            self._issue(wr, self._ring(now, 1))

    def post_chain(self, now: float, wrs) -> None:
        """``ibv_post_send`` of a linked list of WRs."""
        for first in range(0, len(wrs), self.limit):
            batch = wrs[first:first + self.limit]
            visible_at = self._ring(now, len(batch))
            for wr in batch:
                if self._slot(wr):
                    self._issue(wr, visible_at)
        self.chain_posts += 1
        self.chain_wrs += len(wrs)

    def complete(self, now: float) -> None:
        """A completion frees a slot: the oldest waiting WR takes it and
        is posted singly, now."""
        if self.waiting:
            self.single_posts += 1
            self._issue(self.waiting.popleft(), self._ring(now, 1))
        else:
            self.held -= 1
