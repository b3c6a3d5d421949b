"""The control-op deadline: one lazily re-armed timer per engine.

Each pool FAA has a deadline ``post_time + resolved_control_deadline``.
The engine keeps at most one ``_control_deadline`` event on the heap; a
timer armed for an FAA that has since completed re-arms itself for the
one now in flight.  What must not change is *when* a lost FAA is failed:
at exactly its own deadline, whichever timer gets there.
"""

from repro.common.types import OpType

from tests.core.conftest import make_qos_cluster


class Harness:
    """A started 2-client cluster whose client-0 FAAs can be swallowed
    (posted, never completed), with post and failure instants recorded."""

    def __init__(self):
        self.cluster = make_qos_cluster([100_000, 100_000])
        self.cluster.start()
        self.sim = self.cluster.sim
        self.sim.run(until=0.02 * self.cluster.config.period)
        self.engine = self.cluster.clients[0].engine
        self.deadline = self.cluster.config.resolved_control_deadline
        self.swallow = lambda nth: False
        self.posted = []      # post instant of every FAA
        self.swallowed = []   # post instants of the swallowed ones
        self.failed_at = []   # instants the engine saw a control failure
        self.max_pending = 0
        self.engine.failure_listener = self._listen
        self._wrap(self.engine.kv.qp)

    def _wrap(self, qp):
        real_post = qp.post_send

        def post(wr):
            if wr.opcode is not OpType.FETCH_ADD:
                return real_post(wr)
            self.posted.append(self.sim.now)
            self.max_pending = max(self.max_pending, self.pending_timers())
            if self.swallow(len(self.posted)):
                self.swallowed.append(self.sim.now)
                return 10**9 + len(self.posted)
            return real_post(wr)

        qp.post_send = post

    def _listen(self, ok):
        if not ok:
            self.failed_at.append(self.sim.now)

    def pending_timers(self):
        return sum(1 for entry in self.sim._heap
                   if entry[2] == self.engine._control_deadline)

    def submit(self, n):
        for key in range(n):
            self.engine.submit(key % 16, lambda ok, v, l: None)

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)


def test_first_faa_times_out_at_exactly_post_plus_deadline():
    h = Harness()
    h.swallow = lambda nth: True
    h.submit(150)  # reservation is 100: the 101st op needs the pool
    assert len(h.posted) == 1 and h.pending_timers() == 1
    h.run(h.deadline * 0.999)
    assert h.engine.faa_timeouts == 0
    h.run(h.deadline * 0.002)
    assert h.engine.faa_timeouts == 1
    assert h.failed_at == [h.posted[0] + h.deadline]


def test_faa_posted_under_a_pending_timer_times_out_at_its_own_deadline():
    """The re-arm path: FAA 1 completes, its timer stays pending; FAA 5
    is swallowed while that timer is still pending and must be failed at
    ``post_5 + deadline`` — not when the old timer fires, and not one
    full deadline after it."""
    h = Harness()
    h.swallow = lambda nth: nth == 5
    h.submit(150)
    h.run(h.deadline * 0.5)
    assert len(h.posted) == 5 and len(h.swallowed) == 1
    first_timer = h.posted[0] + h.deadline
    lost_deadline = h.swallowed[0] + h.deadline
    assert h.posted[0] < h.swallowed[0] < first_timer < lost_deadline
    assert h.pending_timers() == 1          # still FAA 1's timer
    h.sim.run(until=first_timer)
    assert h.engine.faa_timeouts == 0       # it fired and re-armed
    assert h.pending_timers() == 1
    h.sim.run(until=lost_deadline)
    assert h.engine.faa_timeouts == 1
    assert h.failed_at == [lost_deadline]
    h.run(5 * h.deadline)                   # backoff retry, normal service
    assert h.engine.faa_timeouts == 1 and len(h.posted) > 6
    assert h.max_pending <= 1


def test_one_timer_per_engine_however_many_faas():
    h = Harness()
    h.submit(400)
    h.run(0.5 * h.cluster.config.period)
    assert len(h.posted) > 50
    assert h.max_pending <= 1 and h.pending_timers() <= 1
    assert h.engine.faa_timeouts == 0
    h.run(3 * h.deadline)                   # the last timer finds no FAA
    assert h.pending_timers() == 0 or h.engine._faa_inflight


def test_deadline_after_suspend_and_rebind():
    h = Harness()
    h.swallow = lambda nth: True
    engine = h.engine
    h.submit(150)
    h.run(h.deadline * 0.25)
    engine.suspend()                        # FAA 1 is superseded ...
    h.run(h.deadline * 0.25)
    engine.rebind(engine.kv, engine.layout, engine.tokens.reservation, 10,
                  engine.period_id, engine._period_end, engine._generation, 0)
    # ... the 50 queued ops drain 10 tokens and post FAA 2, swallowed,
    # while FAA 1's timer is still pending.
    assert len(h.posted) == 2 and h.pending_timers() == 1
    h.sim.run(until=h.posted[0] + h.deadline)
    assert engine.faa_timeouts == 0         # FAA 1's deadline: not a timeout
    h.sim.run(until=h.posted[1] + h.deadline)
    assert engine.faa_timeouts == 1
    assert h.failed_at == [h.posted[1] + h.deadline]


def test_suspended_engine_timer_goes_idle():
    h = Harness()
    h.swallow = lambda nth: True
    h.submit(150)
    h.engine.suspend()
    h.run(2 * h.deadline)
    assert h.engine.faa_timeouts == 0 and h.failed_at == []
    assert h.pending_timers() == 0


# Captured from the one-timer-per-FAA implementation (commit 35935ef)
# with this exact script: every third FAA of client 0 is swallowed for
# four periods.  (faa_issued, faa_failures, faa_timeouts, ops completed,
# next draw of the backoff RNG — which pins how many backoff delays were
# drawn) and the first and last timeout instants.
PARENT_SWALLOW_EVERY_THIRD = (66, 21, 21, 449, 0.05603491481622924)
PARENT_TIMEOUT_INSTANTS = (21, 0.0001885, 0.0038586599303256056)


def test_timeout_and_backoff_sequence_equals_the_parents():
    h = Harness()
    h.swallow = lambda nth: nth % 3 == 0
    for _ in range(4):
        h.submit(400)
        h.run(h.cluster.config.period)
    engine = h.engine
    assert (engine.faa_issued, engine.faa_failures, engine.faa_timeouts,
            engine.total_completed,
            engine._backoff_rng.random()) == PARENT_SWALLOW_EVERY_THIRD
    assert (len(h.failed_at), h.failed_at[0],
            h.failed_at[-1]) == PARENT_TIMEOUT_INSTANTS
    # (the last swallowed FAA may still be inside its deadline)
    due = [t + h.deadline for t in h.swallowed]
    assert h.failed_at == due[:len(h.failed_at)]


# Same capture under the ``recovery`` chaos scenario, seed 11: per
# client (faa_issued, faa_failures, faa_timeouts, next backoff draw).
PARENT_RECOVERY_SEED_11 = {
    "C1": (71, 2, 0, 0.28185287273486903),
    "C2": (11, 0, 0, 0.7111058201851085),
    "C3": (72, 3, 0, 0.12238994331685693),
    "C4": (11, 0, 0, 0.9199529672531301),
}


def test_recovery_chaos_seed_11_control_failures_equal_the_parents():
    from repro.cluster import chaos
    from repro.recovery.chaos import RECOVERY

    _report, cluster = chaos.run(RECOVERY, 11)
    got = {
        c.name: (c.engine.faa_issued, c.engine.faa_failures,
                 c.engine.faa_timeouts, c.engine._backoff_rng.random())
        for c in cluster.clients
    }
    assert got == PARENT_RECOVERY_SEED_11


def test_reports_are_unsignaled_writes():
    """Report WRITEs reach the monitor's memory, leave no completion for
    anyone to claim, and hold no QP slot afterwards."""
    cluster = make_qos_cluster([100_000, 100_000])
    cluster.start()
    for client in cluster.clients:
        for key in range(150):
            client.engine.submit(key % 16, lambda ok, v, l: None)
    cluster.sim.run(until=3.5 * cluster.config.period)
    for client in cluster.clients:
        assert client.engine.reports_written > 3
        assert client.engine.reports_failed == 0
        assert client.kv.router.unclaimed == 0
        assert client.kv.qp.outstanding == 0
    # the final-report words arrived: the monitor counted the 300 ops
    first = cluster.monitor.period_records[0]
    assert first["completed"] == 300
