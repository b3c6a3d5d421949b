"""Retired engine mechanisms, kept as oracles for what replaced them.

``EagerReportEngine`` is ``QoSEngine``'s live reporting as it was
before the report ticks came off the simulator heap: a self-rescheduling
``_reporting_tick`` event per report interval, each posting a real
unsignaled WRITE whose arrival is another event.  It is the engine's own
timer form, selected by the one predicate that picks it (so its empty
polls take the timer form too).  ``test_lazy_reports.py`` requires the
two to agree: the same words at every monitor sweep, the same counters.

``EagerPollEngine`` is ``QoSEngine``'s empty-pool re-tries as they were
before they came off the simulator heap: after an FAA that granted
nothing, a ``_retry_fetch`` timer per retry interval, each posting a
real FETCH_ADD whose arrival and completion are two more events.  The
poll chain is switched off by scheduling the timer where the chain
would start; reports stay lazy.  ``test_lazy_polls.py`` requires the
two to agree: the same pool word at every monitor sweep, the same
grants, the same counters.

``EagerDecayEngine`` is ``QoSEngine``'s token management as it was
before the decay steps came off the simulator heap: a self-rescheduling
timer
(``start -> arm -> tick``) that calls ``ClientTokenState.decay`` once
per ``mgmt_interval``.  The lazy replay is switched off by leaving
``_next_tick_at`` at "never", so the timer is the only thing that
decays — and reports take the timer form too, since a lazily
materialized report replays decay to its own instant.
``test_lazy_decay.py`` requires the two to agree exactly — the same
token fields at every observation, the same reported words.

``PerOpBacklogEngine`` is the backlog as it was before it became key
runs: one ``(key, on_complete, span)`` tuple per queued op in a deque.
``test_backlog_runs.py`` requires the two to issue the same ops at the
same simulated times.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

from repro.common.errors import QPError
from repro.core.engine import QoSEngine


class EagerReportEngine(QoSEngine):
    """``QoSEngine`` with one heap event per live-report tick."""

    def _lazy(self) -> bool:
        return False


class EagerPollEngine(QoSEngine):
    """``QoSEngine`` with heap events for every empty-pool re-try."""

    def _start_polls(self) -> None:
        self.sim.schedule(self.config.faa_retry_interval, self._retry_fetch)


class EagerDecayEngine(EagerReportEngine):
    """``QoSEngine`` with one heap event per management tick."""

    _eager_started = False

    def _mgmt_start(self) -> None:
        if not self._eager_started:
            self._eager_started = True
            self.sim.schedule(0.0, self._eager_arm)

    def _eager_arm(self) -> None:
        self.sim.schedule(self.config.mgmt_interval, self._eager_tick)

    def _eager_tick(self) -> None:
        interval = self.config.mgmt_interval
        self._tokens.decay(interval)
        self.sim.schedule(interval, self._eager_tick)


class PerOpBacklogEngine(QoSEngine):
    """``QoSEngine`` with one tuple per queued op (``_queue`` holds the
    tuples, in a deque of its own; the inherited ``_backlog`` counter is
    left at zero, so the engine reads the backlog through
    ``queue_depth``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = deque()

    def submit(self, key, on_complete) -> None:
        if not self._queue:
            self.settle()
        self.total_submitted += 1
        span = None
        telemetry = self.sim.telemetry
        if telemetry is not None:
            span = telemetry.data_span("onesided_read", self.kv.name, key)
        queue = self._queue
        if queue:
            queue.append((key, on_complete, span))
            return
        queue.append((key, on_complete, span))
        self._drain()

    def submit_burst(self, count, key_fn, on_complete) -> None:
        if count <= 0:
            return
        if not self._queue:
            self.settle()
        self.total_submitted += count
        queue = self._queue
        telemetry = self.sim.telemetry
        for _ in range(count):
            key = key_fn()
            span = None
            if telemetry is not None:
                span = telemetry.data_span("onesided_read", self.kv.name, key)
            queue.append((key, on_complete, span))
        self._drain()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _drain(self) -> None:
        if self.suspended:
            return
        self.settle()
        queue = self._queue
        tokens = self._tokens
        limit = self.limit
        qp = self.kv.qp
        chain = None if qp.fab is None else []
        while queue:
            if limit is not None and self.issued_this_period >= limit:
                if not self._throttled_this_period:
                    self._throttled_this_period = True
                    self.limit_throttle_events += 1
                break
            if tokens.try_consume():
                key, on_complete, span = queue.popleft()
                wr = self._token_backed_wr(key, on_complete, span)
                if chain is not None:
                    chain.append(wr)
                    continue
                try:
                    qp.post_send(wr)
                except QPError as err:
                    self._fail_unposted((wr,), err)
                continue
            if (not self._faa_inflight and not self._retry_scheduled
                    and not self.degraded):
                self._fetch_global_batch()
            break
        if chain:
            try:
                qp.post_chain(chain)
            except QPError as err:
                self._fail_unposted(chain, err)


def per_op_backlog_engines():
    """Context manager: clusters built inside get tuple-backlog engines."""
    return mock.patch("repro.cluster.builder.QoSEngine", PerOpBacklogEngine)


def eager_poll_engines():
    """Context manager: clusters built inside get timer-form polling."""
    return mock.patch("repro.cluster.builder.QoSEngine", EagerPollEngine)


def eager_report_engines():
    """Context manager: clusters built inside get timer-form reporting."""
    return mock.patch("repro.cluster.builder.QoSEngine", EagerReportEngine)


def eager_engines():
    """Context manager: clusters built inside get eager-decay engines."""
    return mock.patch("repro.cluster.builder.QoSEngine", EagerDecayEngine)
