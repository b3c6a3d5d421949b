"""The incast sender for ``fabric_incast_mixed``.

A window-gated closed loop posting a READ/WRITE/FETCH_ADD mix of mixed
sizes straight on a queue pair, either one WR per doorbell
(``post_send``) or in doorbell-batched chains (``post_chain``).

It deliberately does not reuse ``cluster.fabric_scenarios.
MixedVerbDriver``: that driver aims its atomics at the store's rkey,
which is registered read/write only, so every atomic it posts completes
``REMOTE_ACCESS_ERROR``.  This sender aims atomics at a region the
workload registers itself with ``Permissions.all()``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.rng import make_rng
from repro.common.types import OpType
from repro.rdma.verbs import WCStatus, WorkRequest

#: (weight, opcode): writes beside reads, with a share of atomics.
VERB_MIX: Tuple[Tuple[float, OpType], ...] = (
    (0.2, OpType.READ), (0.7, OpType.WRITE), (0.1, OpType.FETCH_ADD),
)
#: (weight, bytes) for READ/WRITE payloads.
SIZE_MIX: Tuple[Tuple[float, int], ...] = (
    (0.5, 512), (0.3, 4096), (0.2, 16384),
)


def _draw(rng, table: Sequence[Tuple[float, object]]):
    r = rng.random()
    acc = 0.0
    for weight, value in table:
        acc += weight
        if r < acc:
            return value
    return table[-1][1]


class IncastSender:
    """One closed-loop sender: ``window`` WRs in flight until
    ``total_ops`` have been posted.

    ``chain`` = 1 posts every WR singly; ``chain`` > 1 collects freed
    window slots and posts them ``chain`` at a time through
    ``post_chain`` (the tail is flushed short).  Verbs and sizes come
    from a private ``make_rng(seed, "bench-fabric", name)`` stream, so
    the run is deterministic in (seed, name).
    """

    def __init__(self, sim, kv, name: str, total_ops: int, window: int,
                 chain: int, atomic_region, seed: int):
        self.sim = sim
        self.kv = kv
        self.qp = kv.qp
        self.name = name
        self.total = total_ops
        self.window = window
        self.chain = chain
        self.atomic_region = atomic_region
        self._atomic_words = atomic_region.length // 8
        self._rng = make_rng(seed, "bench-fabric", name)
        layout = kv.layout
        span_slots = -(-max(size for _, size in SIZE_MIX) // layout.slot_size)
        self._key_limit = max(1, layout.num_slots - span_slots)
        self._credits = 0
        self.posted = 0
        self.completed = 0
        self.failed = 0
        self.finished_at: Optional[float] = None
        self.latencies: List[float] = []
        self.ops_by_verb = {"read": 0, "write": 0, "atomic": 0}

    def start(self) -> None:
        """Fill the window; completions keep it full."""
        self._grant(min(self.window, self.total))

    def _make(self) -> WorkRequest:
        op = _draw(self._rng, VERB_MIX)
        key = self.posted % self._key_limit
        self.posted += 1
        if op is OpType.FETCH_ADD:
            self.ops_by_verb["atomic"] += 1
            region = self.atomic_region
            return WorkRequest(
                opcode=op, size=8,
                remote_addr=region.addr + 8 * (key % self._atomic_words),
                rkey=region.rkey, add_value=1, on_completion=self._on_wc,
            )
        self.ops_by_verb["read" if op is OpType.READ else "write"] += 1
        return WorkRequest(
            opcode=op, size=_draw(self._rng, SIZE_MIX),
            remote_addr=self.kv.layout.slot_addr(key),
            rkey=self.kv.data_rkey, touch_memory=False,
            on_completion=self._on_wc,
        )

    def _grant(self, slots: int) -> None:
        """``slots`` window slots came free: post into them."""
        if self.chain <= 1:
            for _ in range(slots):
                self.qp.post_send(self._make())
            return
        self._credits += slots
        while True:
            remaining = self.total - self.posted
            batch = min(self.chain, self._credits, remaining)
            # Wait for a full chain unless this is the tail.
            if batch <= 0 or (batch < self.chain and batch < remaining):
                return
            self._credits -= batch
            self.qp.post_chain([self._make() for _ in range(batch)])

    def _on_wc(self, wc) -> None:
        if wc.status is WCStatus.SUCCESS:
            self.completed += 1
        else:
            self.failed += 1
        self.latencies.append(wc.completed_at - wc.posted_at)
        if self.posted < self.total:
            self._grant(1)
        elif self.completed + self.failed == self.total:
            self.finished_at = self.sim.now

    def summary(self) -> dict:
        """The deterministic per-sender result payload."""
        return {
            "posted": self.posted,
            "completed": self.completed,
            "failed": self.failed,
            "finished_at": self.finished_at,
            "ops_by_verb": dict(self.ops_by_verb),
        }
