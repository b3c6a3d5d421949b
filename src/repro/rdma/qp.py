"""Reliable-connection queue pairs.

A :class:`QueuePair` is one direction of a connection between two
hosts.  Posting a work request drives the full simulated datapath:

1. serialize on the initiator NIC's issue pipeline,
2. propagate across the fabric,
3. serialize on the target NIC's target pipeline, applying the memory
   effect (one-sided) or consuming a posted RECV and delivering the
   message to the target host (SEND),
4. propagate the response/ack back and deliver a work completion.

The datapath is callback-based (no process switches) so the hot path
costs two heap events per one-sided operation: its arrival at the
target and its completion.

Under a fabric model a plain one-sided op costs one: every data WR to a
host passes that host's :class:`~repro.rdma.cc.FabricPort` in admission
order, the port's exit times strictly increase, and every QP of the
fabric adds the same propagation delay, so arrivals at the target NIC
come in launch order.  A READ or WRITE that moves no bytes, carries no
span and names a registered rkey (a *fast* op) has nothing to do at its
arrival but take its slot on the target pipeline; when no earlier op
through the port is still to arrive, it takes that slot at launch, at
its own arrival instant, and only its completion is scheduled.  Any
other op (atomics, SENDs, memory-touching or span-carrying ops, ops
with a bad rkey) keeps its arrival event and waits in the port's FIFO,
and the fast ops launched behind it are charged, in order, when it has
arrived.  The ordered path needs no fault injector on the fabric (no
drop or delay verdict, no capacity change in flight) and the QP's delay
equal to the port's; otherwise every op takes the arrival event.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappush
from typing import Optional

from repro.common.errors import MemoryAccessError, QPError
from repro.common.types import OpType
from repro.rdma.verbs import (
    VERB_CLASS_OF_OPCODE, CompletionQueue, WCStatus, WorkCompletion,
    WorkRequest,
)

_wr_ids = itertools.count(1)


class QueuePair:
    """One direction of an RC connection (see module docstring).

    ``reverse`` points at the opposite-direction QP of the same
    connection and is used to route RPC replies.
    """

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        src: "Host",  # noqa: F821
        dst: "Host",  # noqa: F821
        cq: CompletionQueue,
        prop_delay: float,
        max_outstanding: int = 1 << 16,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.cq = cq
        self.prop_delay = prop_delay
        self.max_outstanding = max_outstanding
        self.outstanding = 0
        self.recv_posted = 0
        self.closed = False
        self.reverse: Optional["QueuePair"] = None
        # Back-reference set by Fabric.connect; a fault injector installed
        # on the fabric gets a drop/delay decision point on every post.
        self.fabric = None
        # Per-QP fabric-model state (repro.rdma.cc.QPFabricState), set by
        # Fabric.connect when the fabric carries a FabricModel.  None =
        # the datapath skips its model-only stages (see _launch).
        self.fab = None
        # Closed-QP flush trampoline (see _sq_granted): failing a queued
        # WR releases its SQ slot, which grants the next waiter
        # synchronously — the backlog turns that chain into a loop.  It
        # exists only while a flush runs (None otherwise).
        self._flush_backlog: Optional[deque] = None

    def close(self) -> None:
        """Tear the QP down (client departure, error recovery).

        Subsequent posts are rejected; work requests already in flight
        complete with FLUSH_ERROR, matching RC flush semantics.  Closing
        twice is a no-op.
        """
        self.closed = True

    def reopen(self) -> None:
        """Re-establish a closed connection (failover recovery path).

        Models tearing down the errored QP and bringing up a fresh one
        over the same path: posts are accepted again, while WRs that
        were in flight at close time still flush with FLUSH_ERROR (they
        belonged to the old QP).  Reopening an open QP is a no-op.
        """
        self.closed = False

    # ------------------------------------------------------------------
    def post_recv(self, count: int = 1) -> None:
        """Post ``count`` receive buffers for inbound SENDs."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.recv_posted += count

    def post_send(self, wr: WorkRequest) -> int:
        """Post ``wr``; returns the (possibly auto-assigned) wr_id.

        The matching :class:`WorkCompletion` is delivered to this QP's
        CQ when the operation completes or fails.
        """
        if self.closed:
            raise QPError(f"QP {self.src.name}->{self.dst.name} is closed")
        if self.outstanding >= self.max_outstanding:
            raise QPError(
                f"QP {self.src.name}->{self.dst.name} exceeded "
                f"{self.max_outstanding} outstanding WRs"
            )
        if wr.wr_id == 0:
            wr.wr_id = next(_wr_ids)
        self.outstanding += 1
        posted_at = self.sim.now
        fab = self.fab
        if fab is None or wr.control:
            # No host-posting stage: the NIC sees the WR now (control
            # ops keep this lane under the fabric model too).
            self._launch(wr, posted_at, posted_at)
        elif self._sq_slot(fab, wr, posted_at):
            self._sq_granted(wr, posted_at)
        return wr.wr_id

    def post_chain(self, wrs) -> list:
        """Post a linked chain of WRs with doorbell batching.

        The chained equivalent of ``ibv_post_send`` with a WR list: the
        host writes one PCIe descriptor per WR but rings one doorbell
        per ``doorbell_batch_limit`` WRs, so the per-WR posting cost is
        ``desc + doorbell/limit`` instead of ``desc + doorbell`` — the
        calibrated amortization that gives ``submit_burst`` its
        principled bulk advantage (see FabricModel.burst_advantage).
        All WRs of a doorbell batch become visible to the NIC when that
        batch's doorbell rings.  Data-plane WRs only (the engine never
        chains control ops).  Without a fabric model this degrades to
        per-WR ``post_send`` — same completions, no posting costs.

        All-or-nothing: a chain that does not fit under
        ``max_outstanding`` (or meets a closed QP) raises before any WR
        is admitted, so the caller can safely fail every WR it passed.
        """
        n = len(wrs)
        if self.closed:
            raise QPError(f"QP {self.src.name}->{self.dst.name} is closed")
        if self.outstanding + n > self.max_outstanding:
            raise QPError(
                f"QP {self.src.name}->{self.dst.name}: chain of {n} WRs "
                f"exceeds {self.max_outstanding} outstanding WRs"
            )
        fab = self.fab
        if fab is None:
            return [self.post_send(wr) for wr in wrs]
        self.outstanding += n
        posted_at = self.sim.now
        limit = fab.model.doorbell_batch_limit
        for start in range(0, n, limit):
            batch = wrs[start:start + limit]
            ready = fab.post(posted_at, len(batch))
            for wr in batch:
                if wr.wr_id == 0:
                    wr.wr_id = next(_wr_ids)
                # An SQ-stalled WR is re-posted when its slot frees
                # (paying a full single post — its doorbell coalescing
                # opportunity is gone).
                if self._sq_slot(fab, wr, posted_at):
                    self._launch(wr, posted_at, ready)
        fab.chain_posts += 1
        fab.chain_wrs += n
        return [wr.wr_id for wr in wrs]

    # ------------------------------------------------------------------
    def _sq_slot(self, fab, wr: WorkRequest, posted_at: float) -> bool:
        """Take a send-queue slot for ``wr``; False when the bounded SQ
        is full, in which case :meth:`_sq_granted` runs once a
        completion frees one."""
        sq = fab.sq
        if sq._available > 0:
            # Semaphore.acquire's free-slot branch, without the shared
            # granted event's round trip (a free slot means no waiter).
            sq._available -= 1
            return True
        ev = sq.acquire()
        fab.sq_stall_events += 1
        ev.add_callback(lambda _ev: self._sq_granted(wr, posted_at))
        return False

    def _sq_granted(self, wr: WorkRequest, posted_at: float) -> None:
        """``wr`` holds its SQ slot: pay the un-amortized single-post
        PCIe cost and launch.  A WR that had to wait gets here
        synchronously from the completion that released the slot."""
        if self.closed:
            # The connection died while the WR sat in the send queue:
            # flush it.  _fail releases the slot just granted, which
            # grants the next waiter synchronously and re-enters this
            # method — so drain through a FIFO backlog instead of
            # recursing, or a backlogged SQ at close time blows the
            # stack (one frame per queued WR).
            backlog = self._flush_backlog
            if backlog is not None:
                backlog.append((wr, posted_at))
                return
            self._flush_backlog = backlog = deque(((wr, posted_at),))
            try:
                while backlog:
                    w, p = backlog.popleft()
                    self._fail(w, p, WCStatus.FLUSH_ERROR, "QP closed")
            finally:
                self._flush_backlog = None
            return
        fab = self.fab
        fab.single_posts += 1
        self._launch(wr, posted_at, fab.post(self.sim.now, 1))

    def _launch(self, wr: WorkRequest, posted_at: float,
                ready: float) -> None:
        """Drive an admitted WR down the datapath.

        ``ready`` is when host posting made the WR visible to the NIC.
        Stages: [per-verb token bucket] -> issue pipeline (virtual time)
        -> injector verdict -> [DCQCN pacing -> congestible port
        (ECN/PFC) -> CNP -> port FIFO] -> propagation.  The bracketed
        stages exist only under a fabric model, and never for control
        ops; the port FIFO only with no injector on the fabric.
        """
        fab = self.fab
        if fab is not None and wr.control:
            fab = None
        if fab is not None:
            verb = VERB_CLASS_OF_OPCODE[wr.opcode.index]
            if verb is not None:
                ready = fab.buckets[verb].acquire(1.0, ready)
        wire = self.src.nic.submit_issue(wr, ready)
        span = wr.span
        if span is not None:
            span.mark("resp_nic_issue" if wr.is_response else "nic_issue",
                      wire)
        sim = self.sim
        extra_delay = 0.0
        fabric = self.fabric
        injector = None if fabric is None else fabric.injector
        if injector is not None:
            verdict = injector.on_post(self, wr)
            if verdict.drop:
                # The op vanishes on the wire (before reaching any
                # congested port); the initiator NIC burns its transport
                # retries and surfaces a retry-exhausted WC.
                sim.schedule_at(
                    wire + verdict.fail_after, self._fail, wr, posted_at,
                    WCStatus.RETRY_EXC_ERROR, verdict.reason,
                )
                return
            extra_delay = verdict.delay
        if fab is not None:
            model = fab.model
            nbytes = wr.size + model.header_bytes
            cc = fab.cc
            if cc is not None:
                wire = cc.pace(nbytes, wire)
            port = fab.port
            wire, marked = port.admit(nbytes, wire)
            if marked and cc is not None:
                # The destination reflects the ECN mark as a CNP one RTT
                # later, rate-limited per QP (DCQCN's notification point).
                cnp_at = wire + 2.0 * self.prop_delay
                if cnp_at - fab.last_cnp_at >= model.cnp_interval:
                    fab.last_cnp_at = cnp_at
                    fab.cnps_sent += 1
                    sim.schedule_at(cnp_at, cc.on_cnp, cnp_at)
            if injector is None:
                if port.prop_delay == self.prop_delay:
                    self._port_ordered(port, wr, posted_at,
                                       wire + self.prop_delay)
                    return
                port.unorder()
        # Inlined sim.schedule_at: the datapath schedules an event or
        # two per op, so the call overhead is measurable.  The target
        # time is now + non-negative costs, so the past-check can't
        # fire; the seq increment matches Simulator.schedule_at exactly
        # (event ordering is pinned by the determinism guard).
        sim._seq += 1
        heappush(sim._heap, (wire + self.prop_delay + extra_delay,
                             sim._seq, self._arrive, (wr, posted_at)))

    def _port_ordered(self, port, wr: WorkRequest, posted_at: float,
                      arrive_at: float) -> None:
        """Schedule ``wr``'s arrival through ``port``, whose FIFO fixes
        the order in which ops reach the target (module docstring).

        A fast op with no earlier op still due takes its target slot
        now, at ``arrive_at``, and schedules only its completion; every
        other op joins ``port.pending``, and only a non-fast one
        schedules an arrival (:meth:`_arrive_ordered`).
        """
        pending = port.pending
        op = wr.opcode
        # Fast: nothing to do at the target but serialize.  The rkey
        # test is memory.region's, without the exception it raises.
        fast = ((op is OpType.READ or op is OpType.WRITE)
                and not wr.touch_memory and wr.span is None
                and wr.rkey in self.dst.memory._regions)
        sim = self.sim
        if fast and not pending:
            port.charged_until = arrive_at
            done = self.dst.nic.submit_target(wr, arrive_at)
            sim._seq += 1
            heappush(sim._heap, (done + self.prop_delay, sim._seq,
                                 self._complete, (wr, posted_at, None)))
            return
        pending.append((self, wr, posted_at, arrive_at, fast))
        if not fast:
            sim._seq += 1
            heappush(sim._heap, (arrive_at, sim._seq, self._arrive_ordered,
                                 (wr, posted_at)))

    def _arrive_ordered(self, wr: WorkRequest, posted_at: float) -> None:
        """The arrival of a non-fast op at the head of its port's FIFO:
        arrive as :meth:`_arrive` does, then charge the fast ops queued
        behind it, each at its own arrival instant, up to the next
        non-fast op (whose own arrival is still scheduled)."""
        port = self.fab.port
        pending = port.pending
        head = pending.popleft()
        assert head[1] is wr, "port arrivals out of launch order"
        self._arrive(wr, posted_at)
        sim = self.sim
        heap = sim._heap
        while pending and pending[0][4]:
            qp, queued, queued_at, arrive_at, _fast = pending.popleft()
            port.charged_until = arrive_at
            done = qp.dst.nic.submit_target(queued, arrive_at)
            sim._seq += 1
            heappush(heap, (done + qp.prop_delay, sim._seq, qp._complete,
                            (queued, queued_at, None)))

    # ------------------------------------------------------------------
    def _arrive(self, wr: WorkRequest, posted_at: float) -> None:
        op = wr.opcode
        if op is OpType.SEND:
            self._arrive_send(wr, posted_at)
            return
        span = wr.span
        if span is not None:
            # Fabric propagation ends now; this segment also absorbs any
            # injected delay fault, which physically happens on the wire.
            span.mark("fabric", self.sim.now)
        # One-sided: apply the memory effect in target-pipeline order.
        value = None
        try:
            memory = self.dst.memory
            if op is OpType.READ:
                if wr.touch_memory:
                    value = memory.remote_read(wr.rkey, wr.remote_addr, wr.size)
                else:
                    memory.region(wr.rkey)  # rkey must still be valid
            elif op is OpType.WRITE:
                if wr.touch_memory:
                    if wr.payload is None:
                        raise QPError("WRITE with touch_memory requires a payload")
                    memory.remote_write(wr.rkey, wr.remote_addr, wr.payload)
                else:
                    memory.region(wr.rkey)
            elif op is OpType.FETCH_ADD:
                value = memory.remote_fetch_add(wr.rkey, wr.remote_addr, wr.add_value)
            elif op is OpType.COMPARE_SWAP:
                value = memory.remote_compare_swap(
                    wr.rkey, wr.remote_addr, wr.compare, wr.swap
                )
            else:
                raise QPError(f"cannot post opcode {op}")
        except (MemoryAccessError, QPError) as err:
            self._fail(wr, posted_at, WCStatus.REMOTE_ACCESS_ERROR, str(err))
            return
        done = self.dst.nic.submit_target(wr)
        if span is not None:
            span.mark("nic_target", done)
        elif not wr.signaled and (wr.control or self.fab is None):
            # Unsignaled and successful: no CQE, so no completion event —
            # the WR retires here.  (A WR holding an SQ slot, or carrying
            # a span that closes at the completion, takes the normal
            # path; failures returned above.)
            self.outstanding -= 1
            return
        # Inlined sim.schedule_at (see post_send).
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (done + self.prop_delay, sim._seq,
                             self._complete, (wr, posted_at, value)))

    def _arrive_send(self, wr: WorkRequest, posted_at: float) -> None:
        peer = self.reverse
        if peer is None or peer.recv_posted <= 0:
            self._fail(
                wr, posted_at, WCStatus.RNR_RETRY_EXC_ERROR,
                "receiver not ready (RNR)",
            )
            return
        peer.recv_posted -= 1
        span = wr.span
        if span is not None:
            span.mark("resp_fabric" if wr.is_response else "fabric",
                      self.sim.now)
        done = self.dst.nic.submit_target(wr)
        if span is not None:
            span.mark("resp_nic_target" if wr.is_response else "nic_target",
                      done)
        # Deliver to the target host once the NIC finished processing;
        # the sender's ack comes back one propagation later.
        self.sim.schedule_at(done, self.dst.deliver, wr.payload, peer)
        self.sim.schedule_at(
            done + self.prop_delay, self._complete, wr, posted_at, None
        )

    def _complete(self, wr: WorkRequest, posted_at: float, value) -> None:
        if self.closed:
            self._fail(wr, posted_at, WCStatus.FLUSH_ERROR, "QP closed")
            return
        self.outstanding -= 1
        fab = self.fab
        if fab is not None and not wr.control:
            # Return the SQ slot before delivering the WC: a waiting WR
            # gets it first (FIFO), else the completion handler's next
            # post finds it free.
            fab.sq.release()
        now = self.sim.now
        span = wr.span
        if span is not None and wr.opcode is not OpType.SEND:
            # One-sided ops end here.  SEND spans are RPC spans: the
            # client's response handler (or deadline sweep) closes them,
            # so the transport ack does not.
            span.mark("fabric_return", now)
            span.finish(now, ok=True)
        elif not wr.signaled and wr.opcode is OpType.SEND:
            # An unsignaled SEND that succeeded retires here, at its
            # ack, with no CQE: nothing is queued on a CQ that may have
            # no reader.
            return
        # Positional construction: this allocation happens once per
        # simulated op, and keyword binding is measurable at that rate.
        wc = WorkCompletion(
            wr.wr_id, wr.opcode, WCStatus.SUCCESS, value, posted_at, now
        )
        # A WR-carried callback is invoked at exactly the point the CQ
        # handler would have been (cq.push calls its handler
        # synchronously), so routing direct is observationally identical
        # to CompletionRouter minus the dict round-trip.
        cb = wr.on_completion
        if cb is not None:
            cb(wc)
        else:
            self.cq.push(wc)

    def _fail(
        self, wr: WorkRequest, posted_at: float, status: WCStatus, error: str
    ) -> None:
        self.outstanding -= 1
        fab = self.fab
        if fab is not None and not wr.control:
            # Faulted paths must return the SQ slot too: a dropped or
            # qp-close-flushed WR that kept its slot would permanently
            # shrink the QP's inflight capacity (semaphore leak).
            fab.sq.release()
        span = wr.span
        if span is not None:
            span.mark("failed", self.sim.now)
            span.finish(self.sim.now, ok=False, error=error)
        wc = WorkCompletion(
            wr_id=wr.wr_id,
            opcode=wr.opcode,
            status=status,
            posted_at=posted_at,
            completed_at=self.sim.now,
            error=error,
        )
        cb = wr.on_completion
        if cb is not None:
            cb(wc)
        else:
            self.cq.push(wc)
