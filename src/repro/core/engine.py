"""The client-side QoS engine (paper Sec. II-D, Figs. 3 and 4).

The engine sits between the application and the KV client and owns the
three client-side duties:

- **data access** — every submitted I/O must be backed by a token;
  requests without one queue inside the engine (this is the isolation
  mechanism: a runaway client blocks here, not at the server).  Global
  tokens are claimed with a batched remote fetch-and-add; while the
  pool is empty the re-tries are virtual steps, turned real with every
  other poll chain in the simulation when any pool is refilled.
- **token management** — the entitlement bound X decays at rate
  ``r_i`` in ``mgmt_interval`` steps and unbacked reservation tokens
  are yielded.  The steps are replayed whenever token state is
  observed.
- **reporting** — once signalled by the monitor, the packed (residual,
  completed) word is written every report interval with a silent
  (unsignaled) one-sided WRITE; the ticks and the landings are virtual
  steps.  A final statistics word is always written just before period
  end so the monitor can run capacity estimation.

None of the periodic duties is a simulator event.  Each engine keeps one
queue of virtual steps (report ticks, report landings, poll retries and
the polls' FAA arrivals and completions) and one due field that also
covers the next decay step; ``settle`` replays what is due at every
point that can observe it, under the one tie rule in the settling notes
below.  One predicate (``_lazy``) keeps reports and polls as heap events
where something watches the posts themselves.

Every remote interaction here is one-sided; the engine never causes
work on the data-node CPU.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Callable, Deque, Optional

from repro.common.errors import MemoryAccessError, QoSError, QPError, StoreError
from repro.common.rng import make_rng
from repro.common.types import OpType
from repro.core.config import HaechiConfig
from repro.core.protocol import ControlLayout, PeriodStart, ReportRequest, ReservationAlert
from repro.core.tokens import ClientTokenState
from repro.kvstore.client import KVClient
from repro.rdma.atomics import pack_report, to_signed64
from repro.rdma.qp import _wr_ids
from repro.rdma.verbs import WCStatus, WorkCompletion, WorkRequest
from repro.telemetry.records import record

_NEVER = float("inf")

# What the NIC cost model reads of a live report's WRITE (opcode, size,
# control lane): a lazily materialized report is accounted against it,
# so no WorkRequest is built per report.
_REPORT_WR = WorkRequest(opcode=OpType.WRITE, size=8, control=True,
                         signaled=False)
# The same for a replayed empty poll's pool FETCH_ADD.
_FAA_WR = WorkRequest(opcode=OpType.FETCH_ADD, control=True)

IOCallback = Callable[[bool, object, float], None]

# Served keys a run keeps before it compacts its column (see _KeyRun).
_RELEASE_FLOOR = 4096

# One slot to try a single submitted key against the column type.
_KEY_PROBE = array("q", (0,))


def _bad_key(err: Exception) -> StoreError:
    return StoreError(f"key cannot be queued as a signed 64-bit int: {err}")


class _KeyRun:
    """Consecutive queued reads that share a completion callback.

    The backlog of a token-paced burst client grows by most of a
    period's demand every period (paper Fig. 12: each client asks for
    ``R_i + pool``), so it is stored by column — one of these per run of
    submissions, not one container per op: the cyclic collector walks
    every tracked object that outlives a young generation, and a
    per-op record made it walk the whole backlog.

    ``keys`` is one packed signed-64-bit column and ``head`` the index
    of the next key to issue, so a queued read costs 8 bytes, not a
    Python int (keys are still drawn at submit, in submit order).  The
    served prefix is released by :meth:`release` at the end of every
    drain: all of it once the run is exhausted (it stays in place, as
    it may be the open run), otherwise once ``head`` passes half the
    column and ``_RELEASE_FLOOR`` — so the column holds at most twice
    its queued keys plus the floor, and each key is moved O(1) times
    amortised.
    """

    __slots__ = ("keys", "head", "on_complete", "spans")

    def __init__(self, on_complete: IOCallback, traced: bool):
        self.keys = array("q")  # submit order; [head:] still queued
        self.head = 0
        self.on_complete = on_complete
        # One entry per queued key (None = unsampled), kept only while
        # a telemetry hub is attached.
        self.spans: Optional[Deque] = deque() if traced else None

    def release(self) -> None:
        """Drop the served prefix (see the class notes for when)."""
        head = self.head
        size = len(self.keys)
        if head == size or (head > _RELEASE_FLOOR and 2 * head > size):
            del self.keys[:head]  # no array.clear() before Python 3.13
            self.head = 0


class QoSEngine:
    """QoS enforcement at one client.

    Wire-up: the cluster builder passes the KV client (whose QP carries
    both data and control traffic), the control-memory layout obtained
    at connection time, and registers the engine's message handlers on
    the client host's RPC dispatcher.
    """

    def __init__(
        self,
        client_id: int,
        kv: KVClient,
        layout: ControlLayout,
        config: HaechiConfig,
        reservation: int,
        limit: Optional[int] = None,
        dispatcher=None,
        touch_memory: bool = False,
        seed: int = 0,
    ):
        if limit is not None and limit < reservation:
            raise QoSError(
                f"limit {limit} below reservation {reservation} for "
                f"client {client_id}"
            )
        self.client_id = client_id
        self.kv = kv
        self.sim = kv.sim
        self.layout = layout
        self.config = config
        self._limit = limit
        self.touch_memory = touch_memory
        self._tokens = ClientTokenState(reservation, config.period)
        # Time of the next token-management step (see _decay_to); the
        # first PeriodStart or rebind starts the clock.
        self._next_tick_at = _NEVER

        # The backlog: runs in submit order, ops in order within a run.
        # Every run but the last has queued keys; the last stays, even
        # exhausted, as the run the next submit joins.  ``_backlog`` is
        # the number of queued ops over all runs.  Invariant the submit
        # fast path relies on: ``_backlog > 0`` means the last drain
        # ended throttled, suspended or token-starved.
        self._queue: Deque[_KeyRun] = deque()
        self._backlog = 0
        self.period_id = 0
        self._period_end = 0.0
        self.completed_this_period = 0  # N_i
        self.issued_this_period = 0
        self.inflight_tokened = 0  # token-backed I/Os posted, not completed
        self._faa_inflight = False
        self._faa_wr_id = 0  # wr_id of the control FAA in flight
        self._retry_scheduled = False
        self._reporting_active = False
        # The virtual steps (see the settling notes): a heap of
        # (at, wire, n, step, arg) entries, ``n`` counting this engine's
        # pushes; and the earliest instant anything needs settling, the
        # next decay step included.
        self._timers: list = []
        self._n = 0
        self._due = _NEVER
        # The empty-poll chain: its queued entry (None = no chain), and
        # its chain-start ordinal, the heap seq its first retry reserved
        # (0 = no chain).
        self._poll: Optional[tuple] = None
        self.poll_order = 0
        # When the pool this engine fetches from was last written with
        # a positive value (see pool_refilled); never = no monitor
        # reports refills, so empty polls stay timer events.
        self._refilled_at = _NEVER
        self._throttled_this_period = False
        # Completion-closure cache for _token_backed_wr: in practice
        # every op of a client carries the same app callback, so the
        # wrapper is built once and reused instead of allocated per op.
        self._last_on_complete = None
        self._last_finish = None

        # Control-plane fault tolerance (see docs/FAULTS.md): retries
        # after transport failures back off exponentially with
        # deterministic jitter; an FAA that never completes is failed at
        # the control-op deadline (one lazily re-armed timer per engine;
        # a completion whose wr_id is not the in-flight FAA's is late);
        # K consecutive periods without a usable pool flip the engine
        # into degraded local-only mode, probed once per period.
        self._seed = seed  # for the back-off RNG, built on first use
        self._retry_attempt = 0
        self._deadline_at = 0.0  # deadline of the newest control FAA
        self._deadline_armed = False  # a _control_deadline timer is pending
        self._faa_failed_streak = 0
        self._period_faa_failed = False
        self._period_faa_ok = False
        self.degraded = False

        # Telemetry ledger account for the current grant episode (see
        # repro.telemetry.ledger): opened at each period start / rebind,
        # closed at the next boundary with the episode's aggregate
        # spend/yield/residual.  None when telemetry is not attached.
        self._ledger_account = None

        # Failover support (see docs/RECOVERY.md): control messages are
        # accepted only from the active source (the monitor the engine
        # is currently registered with); suspend() freezes the data path
        # while a failover manager negotiates a rejoin, and rebind()
        # points the engine at the adopting node.  The generation stamp
        # detects a monitor that re-initialized its token words.
        self._active_source: Optional[int] = 0
        self.suspended = False
        self._generation: Optional[int] = None
        # Completion observer for a failover manager: called with
        # ok=True/False for every data-path completion AND every
        # control-op outcome (FAA/probe success or transport failure).
        # Control outcomes matter because an idle client's only signal
        # that its node died is its token fetches failing.
        self.failure_listener: Optional[Callable[[bool], None]] = None

        # telemetry
        self.total_completed = 0
        self.total_submitted = 0
        self.limit_throttle_events = 0  # periods in which the limit bound
        self.faa_issued = 0
        self.faa_failures = 0  # transport errors (drops, QP loss, timeouts)
        self.faa_pool_empty = 0  # successful FAAs that granted nothing
        self.faa_timeouts = 0  # subset of faa_failures hit at the deadline
        self.faa_granted_tokens = 0
        self.probes_issued = 0
        self.reports_written = 0
        self.reports_failed = 0
        self.alerts_received = 0
        self.degraded_entries = 0
        self.degraded_recoveries = 0
        self.degraded_periods = 0
        self.re_registrations = 0
        self.stale_control_messages = 0
        self.generation_resyncs = 0

        if dispatcher is not None:
            self.bind_control_source(dispatcher, 0)

    # ------------------------------------------------------------------
    # Control-source binding (failover support)
    # ------------------------------------------------------------------
    def bind_control_source(self, dispatcher, source: int) -> None:
        """Register the control handlers on ``dispatcher``, tagged with
        ``source``.

        A replicated client binds one source per data node; only
        messages from the currently active source are honoured, so a
        dead (or restarting) primary cannot steer an engine that has
        already failed over — this is the client side of "deregister
        from the dead node's monitor epoch".
        """
        dispatcher.register(
            PeriodStart, self._from_source(source, self._on_period_start)
        )
        dispatcher.register(
            ReportRequest, self._from_source(source, self._on_report_request)
        )
        dispatcher.register(
            ReservationAlert, self._from_source(source, self._on_alert)
        )

    def _from_source(self, source: int, handler):
        def wrapped(msg, reply_qp):
            if self._active_source != source:
                self.stale_control_messages += 1
                return
            handler(msg, reply_qp)
        return wrapped

    def suspend(self) -> None:
        """Freeze the engine while a failover is negotiated.

        No I/O is issued (submissions queue), in-flight control ops are
        epoch-discarded, and *all* control sources are ignored until
        :meth:`rebind` installs the new one.
        """
        self.settle()
        self._orphan_polls()
        self.suspended = True
        self._active_source = None
        self._faa_inflight = False

    def rebind(
        self,
        kv: KVClient,
        layout: ControlLayout,
        reservation: int,
        tokens_now: int,
        period_id: int,
        period_end_time: float,
        generation: int,
        source: int,
    ) -> None:
        """Re-register with the adopting node's monitor and resume.

        Installs the new KV client and control-memory layout, adopts the
        adopting monitor's period coordinates and generation stamp,
        starts a fresh token state from the pro-rated grant, and drains
        the I/O queued up during the outage.
        """
        # The pre-failover grant episode ends here: close its ledger
        # account against the outgoing token state (decayed to now)
        # before replacing it.
        self._ledger_roll("rebind")
        self._orphan_polls()
        self.kv = kv
        self.layout = layout
        self._active_source = source
        self._generation = generation
        self._tokens = ClientTokenState(reservation, self.config.period)
        self._tokens.start_period(tokens_now)
        self.period_id = period_id
        self._ledger_open(tokens_now)
        self._period_end = period_end_time
        self.completed_this_period = 0
        self.issued_this_period = 0
        self._throttled_this_period = False
        self._reporting_active = False
        self._faa_inflight = False
        self._retry_attempt = 0
        self._faa_failed_streak = 0
        self._period_faa_failed = False
        self._period_faa_ok = True
        self.degraded = False
        self.suspended = False
        self.re_registrations += 1
        self._mgmt_start()
        record(self.sim, "engine", "rebound", client=self.client_id,
               period=period_id, reservation=reservation,
               tokens_now=tokens_now, generation=generation)
        final_at = period_end_time - self.config.final_report_margin
        if final_at > self.sim.now:
            self.sim.schedule_at(final_at, self._write_final_report, period_id)
        self._drain()

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------
    def submit(self, key: int, on_complete: IOCallback) -> None:
        """Request one read I/O for ``key``; runs when a token backs it.

        A key the backlog column cannot hold (not an int, or outside
        the signed 64-bit range) raises :class:`StoreError` before
        anything is queued or counted.
        """
        if not self._backlog:
            self.settle()  # a due poll retry saw the backlog empty
        try:
            _KEY_PROBE[0] = key
        except (TypeError, OverflowError) as err:
            raise _bad_key(err) from None
        self.total_submitted += 1
        telemetry = self.sim.telemetry
        run = self._tail_run(on_complete, telemetry is not None)
        run.keys.append(key)
        if telemetry is not None:
            # The span starts at submit so the engine's token-queueing
            # stage is part of the op's latency decomposition.
            run.spans.append(
                telemetry.data_span("onesided_read", self.kv.name, key))
        self._backlog += 1
        if self._backlog > 1:
            # Fast path: ops were already waiting, so the last drain
            # ended throttled or token-starved (with the FAA machinery
            # already armed if it could be), and no tokens can have
            # arrived since — token grants come via simulator events,
            # and every one of those handlers drains.  Draining again
            # would be a no-op, so skip it; the new key waits its turn.
            return
        self._drain()

    def submit_burst(self, count: int, key_fn, on_complete: IOCallback) -> None:
        """Queue ``count`` reads (keys drawn from ``key_fn``), then drain.

        Equivalent to ``count`` consecutive :meth:`submit` calls — the
        per-op order of key draws and telemetry span creation is
        preserved, and since no simulator event can run between
        synchronous submits, draining once at the end issues exactly
        the ops the one-drain-per-submit form would have.  Exists so
        burst-pattern apps can hand a period's demand over without a
        Python call pair per op; the burst joins the backlog as one
        run (its keys extend the open run's column when the callback
        matches).

        The burst's keys are drawn into a column of their own first, so
        a key the column cannot hold (see :meth:`submit`) raises
        :class:`StoreError` with nothing queued or counted.
        """
        if count <= 0:
            return
        if not self._backlog:
            self.settle()  # a due poll retry saw the backlog empty
        try:
            column = array("q", [key_fn() for _ in range(count)])
        except (TypeError, OverflowError) as err:
            raise _bad_key(err) from None
        self.total_submitted += count
        telemetry = self.sim.telemetry
        run = self._tail_run(on_complete, telemetry is not None)
        run.keys.extend(column)
        if telemetry is not None:
            name = self.kv.name
            data_span = telemetry.data_span
            run.spans.extend([data_span("onesided_read", name, key)
                              for key in column])
        self._backlog += count
        self._drain()

    def _tail_run(self, on_complete: IOCallback, traced: bool) -> _KeyRun:
        """The run a new submission joins: the last one when it shares
        the callback and span-presence, else a fresh one behind it.

        Callbacks are matched with ``==``, not ``is``: ``app.method``
        is a new bound-method object at every evaluation, equal to the
        previous one, and a per-op submitter must not open a run per op.
        (A caller that builds a fresh closure per op does get a run per
        op: correct, but it pays the per-op record runs exist to avoid.)
        """
        queue = self._queue
        if queue:
            run = queue[-1]
            if (run.on_complete == on_complete
                    and (run.spans is not None) is traced):
                return run
            if not self._backlog:
                queue.clear()  # the kept run is exhausted: replace it
        run = _KeyRun(on_complete, traced)
        queue.append(run)
        return run

    @property
    def queue_depth(self) -> int:
        """Requests waiting inside the engine for a token."""
        return self._backlog

    @property
    def limit(self) -> Optional[int]:
        """``L_i``: the most token-backed reads issued per period."""
        return self._limit

    @limit.setter
    def limit(self, limit: Optional[int]) -> None:
        self.settle()  # a due poll retry read the old limit
        self._limit = limit

    # ------------------------------------------------------------------
    # Control-plane message handlers
    # ------------------------------------------------------------------
    def _on_period_start(self, msg: PeriodStart, _reply_qp) -> None:
        self.settle()  # the due ticks read the outgoing period
        if self._generation is not None and msg.generation != self._generation:
            # The monitor re-initialized its token words (crash-window
            # restart): any pool tokens fetched before the stamp are
            # claims against dead memory.  start_period below discards
            # them; count the resync for the harnesses.
            self.generation_resyncs += 1
            record(self.sim, "engine", "generation_resync",
                   client=self.client_id, period=msg.period_id,
                   generation=msg.generation)
        self._generation = msg.generation
        if msg.period_id != self.period_id:
            # A genuine boundary (not an out-of-band mid-period resync)
            # folds the finished period into the failure streak.
            self._roll_failure_window()
        self.period_id = msg.period_id
        self._period_end = msg.period_end_time
        record(self.sim, "engine", "period_start", client=self.client_id,
               period=msg.period_id, tokens=msg.tokens)
        # Close the previous grant episode's ledger account (decayed to
        # now) BEFORE start_period replaces the token state, then open
        # the new one.
        self._ledger_roll("period_start")
        self._tokens.start_period(msg.tokens)
        self._ledger_open(msg.tokens)
        self.completed_this_period = 0
        self.issued_this_period = 0
        self._throttled_this_period = False
        self._reporting_active = False
        self._mgmt_start()
        # Final statistics are written shortly before the period ends so
        # the monitor can run Algorithm 1 at the boundary.
        final_at = self._period_end - self.config.final_report_margin
        if final_at > self.sim.now:
            self.sim.schedule_at(final_at, self._write_final_report, msg.period_id)
        if self.degraded:
            self._probe_pool()
        self._drain()

    def _roll_failure_window(self) -> None:
        """Fold the finished period into the failure streak (at period start)."""
        if self._period_faa_failed and not self._period_faa_ok:
            self._faa_failed_streak += 1
        elif self._period_faa_ok:
            self._faa_failed_streak = 0
        self._period_faa_failed = False
        self._period_faa_ok = False
        k = self.config.degraded_after
        if self.degraded:
            self.degraded_periods += 1
        elif k and self._faa_failed_streak >= k:
            self.degraded = True
            self.degraded_entries += 1
            self.degraded_periods += 1
            record(self.sim, "engine", "degraded_enter",
                   client=self.client_id, streak=self._faa_failed_streak)

    def _on_report_request(self, msg: ReportRequest, _reply_qp) -> None:
        if msg.period_id != self.period_id or self._reporting_active:
            return
        # A chain due by now must still see reporting inactive.
        self.settle()
        self._reporting_active = True
        if self._lazy():
            self._after(self.sim.now, 0, self._report_tick, msg.period_id)
        else:
            self.sim.schedule(0.0, self._reporting_tick, msg.period_id)

    def _on_alert(self, msg: ReservationAlert, _reply_qp) -> None:
        self.alerts_received += 1

    # ------------------------------------------------------------------
    # Data access (Fig. 3 flowchart)
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        if self.suspended:
            return  # failover in progress: submissions queue here
        if self._due <= self.sim.now:
            self._settle()  # (inlined no-op test)
        # Locals for the loop: neither the queue/token objects nor the
        # limit are replaced while draining (only at period boundaries),
        # so hoisting the attribute reads is safe.
        queue = self._queue
        tokens = self._tokens
        limit = self._limit
        qp = self.kv.qp
        # Under the fabric model the token-backed WRs of one drain are
        # collected and posted as one chain after the loop, so a burst
        # shares doorbells per ``FabricModel.doorbell_batch_limit`` (a
        # pool FAA armed by the loop is therefore posted before them).
        # Without a model each WR is posted as it is dequeued — there is
        # no posting cost to amortize, and every data post precedes the
        # FAA post.  Both orders are pinned by the determinism digests.
        chain = None if qp.fab is None else []
        while self._backlog:
            if limit is not None and self.issued_this_period >= limit:
                if not self._throttled_this_period:
                    self._throttled_this_period = True
                    self.limit_throttle_events += 1
                break  # throttled until the next period
            if tokens.try_consume():
                # Take the next key off the head run.
                run = queue[0]
                head = run.head
                key = run.keys[head]
                run.head = head = head + 1
                spans = run.spans
                span = None if spans is None else spans.popleft()
                self._backlog -= 1
                if head == len(run.keys) and len(queue) > 1:
                    queue.popleft()  # exhausted, and not the open run
                wr = self._token_backed_wr(key, run.on_complete, span)
                if chain is not None:
                    chain.append(wr)
                    continue
                try:
                    qp.post_send(wr)
                except QPError as err:
                    self._fail_unposted((wr,), err)
                continue
            # No token in hand: claim a batch from the global pool —
            # unless degraded, in which case only the reservation is
            # spent and recovery rides on the per-period probe.
            if (not self._faa_inflight and not self._retry_scheduled
                    and not self.degraded):
                self._fetch_global_batch()
            break
        if queue:
            queue[0].release()  # only the head run has served keys
        if chain:
            try:
                qp.post_chain(chain)
            except QPError as err:
                self._fail_unposted(chain, err)

    def _token_backed_wr(self, key: int, on_complete: IOCallback,
                         span=None) -> WorkRequest:
        """Account one token-backed read as issued and build its WR."""
        self.issued_this_period += 1
        self.inflight_tokened += 1
        if span is not None:
            # Token wait ends here: everything before this boundary was
            # spent queueing inside the engine.
            span.mark("engine_queue", self.sim.now)

        if on_complete is self._last_on_complete:
            finish = self._last_finish
        else:
            def finish(ok: bool, value: object, latency: float) -> None:
                if self._due <= self.sim.now:
                    self._settle()
                self.inflight_tokened -= 1
                self.completed_this_period += 1
                self.total_completed += 1
                telemetry = self.sim.telemetry
                if telemetry is not None:
                    telemetry.observe_latency("onesided_read", latency)
                self._notify_listener(ok)
                on_complete(ok, value, latency)

            self._last_on_complete = on_complete
            self._last_finish = finish

        return self.kv.get_onesided_wr(key, finish, self.touch_memory, span)

    def _fail_unposted(self, wrs, err: QPError) -> None:
        """Dead QP: the post admitted none of ``wrs``.  Fail each one
        through its own completion path (as an event, matching the
        asynchronous non-fault path) with a flush WC."""
        now = self.sim.now
        error = str(err)
        for wr in wrs:
            if wr.span is not None:
                wr.span.finish(now, ok=False, error=error)
            wc = WorkCompletion(
                wr.wr_id, wr.opcode, WCStatus.FLUSH_ERROR,
                None, now, now, error,
            )
            self.sim.schedule(0.0, wr.on_completion, wc)

    def _notify_listener(self, ok: bool) -> None:
        listener = self.failure_listener
        if listener is not None:
            listener(ok)

    # ------------------------------------------------------------------
    # Telemetry plumbing (no-ops when no hub is attached to the sim)
    # ------------------------------------------------------------------
    def _control_span(self, kind: str):
        telemetry = self.sim.telemetry
        if telemetry is None:
            return None
        return telemetry.control_span(kind, self.kv.name)

    def _ledger_roll(self, reason: str) -> None:
        """Close the current grant episode's ledger account, if any.

        Must run *before* the token state is replaced: the closing
        balance reads the outgoing episode's spend/yield/residual.
        Runs unconditionally ahead of both replacement sites, so it is
        also where the steps due on the outgoing state are consumed.
        """
        self.settle()
        account, self._ledger_account = self._ledger_account, None
        if account is None:
            return
        ledger = getattr(self.sim.telemetry, "ledger", None)
        if ledger is None:
            return
        ledger.close(
            account,
            spent=self.issued_this_period,
            yielded=self._tokens.yielded_tokens,
            residual=self._tokens.xi_res + self._tokens.local_global,
            reason=reason,
            time=self.sim.now,
        )

    def _ledger_open(self, granted: int) -> None:
        telemetry = self.sim.telemetry
        if telemetry is None or telemetry.ledger is None:
            return
        self._ledger_account = telemetry.ledger.open(
            self.kv.name, self.period_id, granted, self.sim.now,
        )

    def ledger_flush(self, reason: str = "run_end") -> None:
        """Close the open ledger account at end of run (conservation check)."""
        self._ledger_roll(reason)

    @property
    def token_obligations(self) -> int:
        """Tokens this client holds or has spent without a completion.

        This is what the engine reports as its "residual reservation":
        unspent reservation tokens (after the management clamp) plus
        unspent batched global tokens plus token-backed I/Os still in
        flight.  The monitor subtracts the sum of these from the
        remaining capacity during token conversion; counting in-flight
        work prevents the pool from double-booking capacity already
        owed to queued I/Os.  For the paper's completion-gated clients
        the in-flight term is negligible and this reduces exactly to
        the paper's residual-reservation report.
        """
        tokens = self.tokens
        return tokens.residual + tokens.local_global + self.inflight_tokened

    def _post_control_faa(self, add_value: int, span_kind: str,
                          on_complete) -> bool:
        """Post a control FETCH_ADD on the pool word and set its
        deadline; False when the QP rejected the post.  At most one is
        in flight, so ``on_complete(wc)`` is a handler bound once, not a
        closure per FAA: it must discard a completion that is not the
        in-flight FAA's (deadline fired, suspend, rebind) — see
        :meth:`_current_faa`."""
        wr = WorkRequest(
            opcode=OpType.FETCH_ADD,
            remote_addr=self.layout.pool_addr,
            rkey=self.layout.rkey,
            add_value=add_value,
            control=True,
            span=self._control_span(span_kind),
            on_completion=on_complete,
        )
        self._faa_inflight = True
        try:
            self._faa_wr_id = self.kv.qp.post_send(wr)
        except QPError as err:
            self._faa_inflight = False
            if wr.span is not None:
                wr.span.finish(self.sim.now, ok=False, error=str(err))
            return False
        # At most one FAA is in flight, and deadlines only move forward,
        # so one timer per engine is enough: a pending one (armed for an
        # FAA that has since completed) re-arms itself for this FAA when
        # it fires; only an idle engine schedules a new one.
        self._deadline_at = self.sim.now + self.config.resolved_control_deadline
        if not self._deadline_armed:
            self._deadline_armed = True
            self.sim.schedule_at(self._deadline_at, self._control_deadline)
        return True

    def _fetch_global_batch(self) -> None:
        self.faa_issued += 1
        if not self._post_control_faa(-self.config.batch_size, "control_faa",
                                      self._faa_handler):
            self._note_faa_failure()

    @cached_property
    def _faa_handler(self):
        """:meth:`_on_faa_complete`, bound once for every FAA's WR."""
        return self._on_faa_complete

    @cached_property
    def _probe_handler(self):
        """:meth:`_on_probe_complete`, bound once for every probe's WR."""
        return self._on_probe_complete

    def _current_faa(self, wc: WorkCompletion) -> bool:
        """Claim ``wc`` if it completes the FAA in flight (clearing the
        flag); False for one that was already superseded."""
        if not self._faa_inflight or wc.wr_id != self._faa_wr_id:
            return False
        self._faa_inflight = False
        return True

    def _on_faa_complete(self, wc: WorkCompletion) -> None:
        if not self._current_faa(wc):
            # Completed after its deadline already failed it.  Any
            # tokens the FAA did claim are abandoned; the monitor's
            # conversion overwrite re-absorbs them into the pool.
            return
        if not wc.ok:
            # A transient fabric/NIC failure must not wedge the data
            # path: count it and retry with capped exponential backoff.
            self._note_faa_failure()
            return
        self.settle()  # the due ticks precede the grant
        self._period_faa_ok = True
        self._retry_attempt = 0
        self._notify_listener(True)
        prior = to_signed64(wc.value)
        granted = self._tokens.grant_from_pool(prior, self.config.batch_size)
        self.faa_granted_tokens += granted
        telemetry = self.sim.telemetry
        if (telemetry is not None and telemetry.ledger is not None
                and self._ledger_account is not None):
            telemetry.ledger.pool_claim(
                self._ledger_account, self.config.batch_size, granted,
                prior, self.sim.now,
            )
        if granted > 0:
            self._drain()
            return
        # Pool exhausted: wait for conversion or the next period (step
        # T4).  Not a failure — the transport worked — so the paper's
        # fixed retry interval applies, not backoff.
        self.faa_pool_empty += 1
        self._retry_scheduled = True
        if wc.posted_at > self._refilled_at and self._lazy():
            self._start_polls()
        else:
            self.sim.schedule(self.config.faa_retry_interval,
                              self._retry_fetch)

    def _control_deadline(self) -> None:
        self._deadline_armed = False
        if not self._faa_inflight:
            return  # completed (or was superseded) in time: go idle
        if self._deadline_at > self.sim.now:
            # This timer was armed for an earlier FAA; the one in flight
            # is due later — re-arm at exactly its deadline.
            self._deadline_armed = True
            self.sim.schedule_at(self._deadline_at, self._control_deadline)
            return
        self._faa_inflight = False
        self.faa_timeouts += 1
        self._note_faa_failure()

    def _note_control_failure(self) -> None:
        self.faa_failures += 1
        self._period_faa_failed = True
        self._notify_listener(False)

    def _note_faa_failure(self) -> None:
        self._note_control_failure()
        self._schedule_backoff_retry()

    def _schedule_backoff_retry(self) -> None:
        if self._retry_scheduled:
            return
        cfg = self.config
        delay = min(
            cfg.resolved_backoff_cap,
            cfg.faa_retry_interval * cfg.faa_backoff_factor ** self._retry_attempt,
        )
        delay *= 0.5 + 0.5 * self._backoff_rng.random()
        self._retry_attempt += 1
        self._retry_scheduled = True
        self.sim.schedule(delay, self._retry_fetch)

    @cached_property
    def _backoff_rng(self):
        """Jitter stream for retry back-off.  Only a transport failure
        reads it, so the Mersenne state (2.5 KB and a SHA-256 to seed)
        is built on first use; same ``(seed, path)``, same stream."""
        return make_rng(self._seed, "engine-backoff", self.client_id)

    def _retry_fetch(self) -> None:
        self._retry_scheduled = False
        self._drain()

    # ------------------------------------------------------------------
    # Degraded local-only mode
    # ------------------------------------------------------------------
    def _probe_pool(self) -> None:
        """Zero-add FETCH_ADD: tests pool reachability without taking tokens."""
        if self._faa_inflight:
            return
        self.probes_issued += 1
        if not self._post_control_faa(0, "control_probe",
                                      self._probe_handler):
            # No backoff retry: the next period's probe is the retry.
            self._note_control_failure()

    def _on_probe_complete(self, wc: WorkCompletion) -> None:
        if not self._current_faa(wc):
            return
        if not wc.ok:
            self._note_control_failure()
            return
        self.settle()
        # Fabric is back: leave degraded mode and resume pool fetches.
        self._notify_listener(True)
        self._period_faa_ok = True
        self._retry_attempt = 0
        self._faa_failed_streak = 0
        self.degraded = False
        self.degraded_recoveries += 1
        record(self.sim, "engine", "degraded_recover", client=self.client_id,
               period=self.period_id)
        self._drain()

    # ------------------------------------------------------------------
    # Token management
    # ------------------------------------------------------------------
    # The decay steps fall at ``start + k * mgmt_interval`` (accumulated
    # by repeated addition, as a self-rescheduling timer would), but
    # nothing can see a step until token state is next read, so no timer
    # exists: ``_next_tick_at`` is the next step's instant, folded into
    # the one due field, and every settle replays the due steps — one
    # ``decay(mgmt_interval)`` each, the same float arithmetic in the
    # same order — after the virtual steps due by then, each of which
    # reads the state decayed to its own instant (see the settling
    # notes).
    def _mgmt_start(self) -> None:
        if self._next_tick_at == _NEVER:
            at = self._next_tick_at = self.sim.now + self.config.mgmt_interval
            if at < self._due:
                self._due = at

    def _decay_to(self, t: float) -> None:
        """Replay the token-management steps due by ``t``."""
        due = self._next_tick_at
        if due > t:
            return
        interval = self.config.mgmt_interval
        decay = self._tokens.decay
        while due <= t:
            decay(interval)
            due += interval
        self._next_tick_at = due

    @property
    def tokens(self) -> ClientTokenState:
        """The client's token state, decayed to ``sim.now``."""
        self.settle()
        return self._tokens

    # ------------------------------------------------------------------
    # Settling: one queue of virtual steps
    # ------------------------------------------------------------------
    # The timer form of the engine's periodic duties is a heap event per
    # report tick, per report WRITE landing, and per empty poll's retry,
    # FAA arrival and FAA completion.  None of them can be seen until
    # something reads what it changes, so each is a virtual step: an
    # entry ``(at, wire, n, step, arg)`` on the engine's own heap, run
    # as ``step(at, arg)`` — the timer form's event, in its float
    # arithmetic — at the first settle point that may observe it.  ``n``
    # counts the engine's pushes, so steps due at one instant run in the
    # order they were queued, as the simulator's (time, seq) does.
    #
    # Reports.  A ReportRequest queues a tick at ``now``.  A tick queues
    # the next one ``report_interval`` on, packs the word from the state
    # decayed to its own instant, accounts its WRITE as posted then
    # (client NIC issue count and control cost, ``qp.outstanding``,
    # ``reports_written``) and queues the landing: the write to the slot
    # through the same access check, counted by the server NIC.  A tick
    # ends its chain where the timer form's does (reporting inactive,
    # or the period over); a request that re-arms reporting within one
    # period simply runs a second chain, as the timer form does.
    #
    # Empty polls.  Only the monitor writes the pool word and every FAA
    # subtracts from it, so once an FAA posted after the pool's last
    # positive write returns <= 0, every FAA before the next positive
    # write grants nothing.  Its re-tries (step T4) then change nothing
    # the engine acts on; what they leave is the -B in the pool word and
    # counters (``faa_issued``, ``faa_pool_empty``, both NICs' op counts
    # and control costs, ``qp.outstanding``).  So they are a chain of
    # virtual steps: retry (the post) -> arrival at the pool word ->
    # completion -> the next retry one ``faa_retry_interval`` on.  A
    # retry ends the chain where the timer form's retry posts nothing:
    # the engine suspended or degraded, the backlog empty, or the limit
    # reached.  One registry per simulation holds the live chains
    # (``sim.poll_chains``, in chain-start order).  A positive write to
    # any node's pool word (pool_refilled), a suspend and a rebind each
    # turn every chain real at once, in that order: its queued step
    # becomes the timer form's heap event with a fresh seq, so one
    # pool's chains turned real alone would run behind other chains
    # that the timer form ran after them.  A chain reserves a heap seq
    # at its start, so one that turns real before its first retry takes
    # the timer form's exact (time, seq) slot.  A later step's fresh seq
    # can still tie with a same-instant event from outside the chains.
    #
    # Settle points are everything that changes or reads what a step
    # changes.  Engine side: _drain, a completion's finish, an FAA or
    # probe completion, period start, the report request itself, rebind,
    # suspend, a submit to an empty backlog, a limit change, and every
    # token-state read (``tokens``, so the final report and
    # ``token_obligations``).  Monitor side: every read or write of a
    # report word or the pool word (the monitor calls ``settle`` of each
    # engine enrolled with it).  And the end of run_experiment, whose
    # caller reads the counters.  (The benchmark's 1000-client run, seed
    # 11, replays 304 710 steps in 87 702 settles while its heap runs
    # 148 376 events: docs/OBSERVABILITY.md section 7.)
    #
    # The one tie rule, for a step due exactly at a settle instant.  A
    # timer step (a tick, a retry or a decay step; ``wire`` 0) runs
    # before the observation: the timer form scheduled it one interval
    # ahead, the observer's event less than that.  A wire step (a
    # landing, an FAA arrival or an FAA completion; ``wire`` 1) runs
    # after it, at a later settle: the observer's event was scheduled
    # before the post was — except at a run's horizon, where every event
    # due by ``until`` has run.  Issue cost and propagation delay are
    # constant while steps are virtual: only a fault injector closes QPs
    # or changes NIC capacity, and it takes the timer form.  Bit-identity
    # with the timer form is refereed by repro.cluster.determinism.
    def _lazy(self) -> bool:
        """Whether report ticks and empty polls may be virtual steps —
        the one place that picks their heap-event form instead.  They
        stay events only where something observes the posts themselves:

        - a fault injector draws a per-link verdict at post time (and is
          the only thing that closes QPs or changes NIC capacity);
        - a telemetry hub gauges the server NIC's control target cost, a
          float sum in arrival order across clients, and the pool word
          in its metric streams, and records every report at its
          ``sim.now``;
        - the hub's ledger logs every pool claim, empty polls included,
          in heap order across engines, each with the ``prior_pool`` it
          read.  Replaying polls engine by engine would reorder those
          ``claim`` events and change their ``prior_pool`` values, so
          under a ledger polls stay heap events.
        """
        if self.sim.telemetry is not None:
            return False
        fabric = self.kv.qp.fabric
        return fabric is None or fabric.injector is None

    def settle(self, horizon: bool = False) -> None:
        """Replay the virtual steps and decay steps due by ``sim.now``.
        With ``horizon`` the run stops at ``now``, so a wire step due
        exactly then has run too."""
        if self._due <= self.sim.now:
            self._settle(horizon)

    def _settle(self, horizon: bool = False) -> None:
        now = self.sim.now
        timers = self._timers
        while timers:
            at, wire, _n, step, arg = timers[0]
            if at > now or (wire and at == now and not horizon):
                break
            heappop(timers)
            step(at, arg)
        self._decay_to(now)
        due = self._next_tick_at
        if timers and timers[0][0] < due:
            due = timers[0][0]
        self._due = due

    def _after(self, at: float, wire: int, step, arg) -> tuple:
        """Queue the virtual step ``step(at, arg)``; returns its entry."""
        self._n += 1
        entry = (at, wire, self._n, step, arg)
        heappush(self._timers, entry)
        if at < self._due:
            self._due = at
        return entry

    def _start_polls(self) -> None:
        """Start a poll chain at an empty FAA's completion: the first
        retry is due one interval on, in the heap slot reserved here."""
        sim = self.sim
        sim._seq += 1  # the timer form's retry slot, kept for conversion
        self.poll_order = sim._seq
        sim.poll_chains[self] = None
        self._poll = self._after(sim.now + self.config.faa_retry_interval,
                                 0, self._poll_retry, sim._seq)

    def _poll_retry(self, at: float, seq: int) -> None:
        """The timer form's _retry_fetch: post the next pool FAA."""
        if self.suspended or self.degraded or not self.queue_depth:
            self._end_polls()
            return
        limit = self._limit
        if limit is not None and self.issued_this_period >= limit:
            if not self._throttled_this_period:
                self._throttled_this_period = True
                self.limit_throttle_events += 1
            self._end_polls()
            return
        qp = self.kv.qp
        if qp.closed or qp.outstanding >= qp.max_outstanding:
            self._polls_real(claim=True)  # the post fails (see there)
            return
        self.faa_issued += 1
        qp.outstanding += 1
        self._deadline_at = at + self.config.resolved_control_deadline
        self._poll = self._after(
            qp.src.nic.submit_issue(_FAA_WR, at) + qp.prop_delay, 1,
            self._poll_arrive, at)

    def _poll_arrive(self, at: float, posted_at: float) -> None:
        """The timer form's FAA arrival: fetch-and-add at the pool word."""
        qp = self.kv.qp
        layout = self.layout
        value = qp.dst.memory.remote_fetch_add(
            layout.rkey, layout.pool_addr, -self.config.batch_size)
        nic = qp.dst.nic
        nic.submit_target(_FAA_WR)
        self._poll = self._after(
            at + nic.profile.target_cost(_FAA_WR) + qp.prop_delay, 1,
            self._poll_complete, (posted_at, value))

    def _poll_complete(self, at: float, _posted) -> None:
        """The timer form's FAA completion: an empty grant."""
        qp = self.kv.qp
        if qp.closed:
            self._polls_real(claim=True)  # the completion flushes
            return
        qp.outstanding -= 1
        self.faa_pool_empty += 1
        self._period_faa_ok = True
        self._retry_attempt = 0
        self._notify_listener(True)
        self._poll = self._after(at + self.config.faa_retry_interval, 0,
                                 self._poll_retry, 0)

    def _end_polls(self) -> None:
        del self.sim.poll_chains[self]
        self._poll = None
        self.poll_order = 0
        self._retry_scheduled = False

    def _polls_real(self, claim: bool) -> None:
        """End the poll chain by pushing its pending step as the heap
        event the timer form has at that point.  With ``claim`` an FAA in
        flight stays the engine's; without it is orphaned (suspend,
        rebind): it still lands and completes, into a completion
        :meth:`_current_faa` discards.  A step that found the QP closed
        or full by hand comes here itself, already popped: the failure
        paths are the heap events'."""
        entry = self._poll
        timers = self._timers
        if entry in timers:
            timers.remove(entry)
            heapify(timers)
        at, _wire, _n, step, arg = entry
        sim = self.sim
        if at < sim.now:
            at = sim.now  # (a hand-closed QP, replayed late)
        retry = step == self._poll_retry
        seq = arg if retry else 0  # reserved for the first retry only
        if not seq:
            sim._seq += 1
            seq = sim._seq
        if retry:
            heappush(sim._heap, (at, seq, self._retry_fetch, ()))
            # _retry_scheduled stays set: the retry is still pending.
        else:
            layout = self.layout
            wr = WorkRequest(
                opcode=OpType.FETCH_ADD,
                wr_id=next(_wr_ids),
                remote_addr=layout.pool_addr,
                rkey=layout.rkey,
                add_value=-self.config.batch_size,
                control=True,
                on_completion=self._faa_handler,
            )
            qp = self.kv.qp
            if step == self._poll_arrive:
                heappush(sim._heap, (at, seq, qp._arrive, (wr, arg)))
            else:
                heappush(sim._heap, (at, seq, qp._complete, (wr, *arg)))
            self._retry_scheduled = False
            if claim:
                self._faa_inflight = True
                self._faa_wr_id = wr.wr_id
                if not self._deadline_armed:
                    self._deadline_armed = True
                    sim.schedule_at(self._deadline_at, self._control_deadline)
        del sim.poll_chains[self]
        self._poll = None
        self.poll_order = 0

    def _all_polls_real(self, orphan=None) -> None:
        """Turn every poll chain in the simulation real, in chain-start
        order; the ``orphan``'s FAA in flight is dropped (see
        _polls_real), every other chain keeps its own."""
        for engine in list(self.sim.poll_chains):
            engine.settle()  # its pending step is due after now
            if engine.poll_order:  # (unless the settle ended it)
                engine._polls_real(claim=engine is not orphan)

    def _orphan_polls(self) -> None:
        """Suspend/rebind: the timer form drops its FAA in flight (see
        _polls_real) and keeps a pending retry.

        A chain that turns real takes a fresh heap seq and, at its next
        empty FAA, a new start, so every chain turns real here, as at a
        refill: one left virtual would take a later seq than this
        chain's step, and its next start would count as earlier."""
        if self.poll_order:
            self._all_polls_real(orphan=self)

    def pool_refilled(self, host) -> None:
        """The monitor on ``host`` wrote its pool word with a positive
        value (or enrolled this engine: the first such notice).  An FAA
        posted from now on to that pool may be granted tokens, so every
        poll chain in the simulation, on any pool, turns real at its
        pending step.  (A standby node's writes count for an engine's
        own pool only once it fails over there.)"""
        if host is self.kv.qp.dst:
            self._refilled_at = self.sim.now
        if self.sim.poll_chains:
            self._all_polls_real()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report_tick(self, t: float, period_id: int) -> None:
        """The timer form's _reporting_tick at ``t``: the live report,
        posted at ``t``."""
        if not self._reporting_active or self.period_id != period_id:
            return  # where the timer form's chain ends
        self._after(t + self.config.report_interval, 0, self._report_tick,
                    period_id)
        self._decay_to(t)
        tokens = self._tokens
        word = pack_report(
            tokens.residual + tokens.local_global + self.inflight_tokened,
            self.completed_this_period,
        )
        qp = self.kv.qp
        if qp.closed or qp.outstanding >= qp.max_outstanding:
            self.reports_failed += 1  # post_send would have raised
            return
        qp.outstanding += 1
        self.reports_written += 1
        layout = self.layout
        self._after(qp.src.nic.submit_issue(_REPORT_WR, t) + qp.prop_delay, 1,
                    self._land_report,
                    (word, qp, layout.rkey, layout.report_live_addr, t))

    def _land_report(self, _at: float, posted: tuple) -> None:
        """The target side of a live report's WRITE (QueuePair._arrive
        for an unsignaled control WRITE)."""
        word, qp, rkey, addr, posted_at = posted
        dst = qp.dst
        try:
            dst.memory.remote_write_u64(rkey, addr, word)
        except MemoryAccessError as err:
            wr = WorkRequest(opcode=OpType.WRITE, size=8, remote_addr=addr,
                             rkey=rkey, control=True, signaled=False)
            qp._fail(wr, posted_at, WCStatus.REMOTE_ACCESS_ERROR, str(err))
            return
        dst.nic.submit_target(_REPORT_WR)
        qp.outstanding -= 1

    def _reporting_tick(self, period_id: int) -> None:
        """The timer form of a live-report tick (see _lazy)."""
        if not self._reporting_active or self.period_id != period_id:
            return
        self._write_report(self.layout.report_live_addr)
        self.sim.schedule(self.config.report_interval,
                          self._reporting_tick, period_id)

    def _write_report(self, addr: int) -> None:
        obligations = self.token_obligations
        word = pack_report(obligations, self.completed_this_period)
        wr = WorkRequest(
            opcode=OpType.WRITE,
            size=8,
            remote_addr=addr,
            rkey=self.layout.rkey,
            payload=word.to_bytes(8, "little"),
            control=True,
            signaled=False,  # silent: nobody consumes the completion
        )
        try:
            self.kv.qp.post_send(wr)
        except QPError:
            self.reports_failed += 1
            return
        self.reports_written += 1
        record(self.sim, "engine", "report", client=self.client_id,
               residual=obligations, completed=self.completed_this_period)

    def _write_final_report(self, period_id: int) -> None:
        if self.period_id != period_id:
            return
        self._write_report(self.layout.report_final_addr)

    # ------------------------------------------------------------------
    # Metrics registry integration
    # ------------------------------------------------------------------
    # Control-plane fault counters, registered first and in this order
    # (registration order is part of the metrics JSONL the digests hash).
    SUMMARY_FIELDS = (
        "faa_failures",
        "faa_timeouts",
        "faa_pool_empty",
        "probes_issued",
        "reports_failed",
        "degraded",
        "degraded_entries",
        "degraded_periods",
        "degraded_recoveries",
        "re_registrations",
        "stale_control_messages",
        "generation_resyncs",
    )

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            (f"engine_{field}", lambda f=field: getattr(self, f))
            for field in self.SUMMARY_FIELDS
        ]
        items.extend([
            ("engine_total_submitted", lambda: self.total_submitted),
            ("engine_total_completed", lambda: self.total_completed),
            ("engine_queue_depth", lambda: self.queue_depth),
            ("engine_inflight_tokened", lambda: self.inflight_tokened),
            ("engine_faa_issued", lambda: self.faa_issued),
            ("engine_faa_granted_tokens", lambda: self.faa_granted_tokens),
            ("engine_reports_written", lambda: self.reports_written),
            ("engine_alerts_received", lambda: self.alerts_received),
            ("engine_limit_throttle_events",
             lambda: self.limit_throttle_events),
        ])
        return items
