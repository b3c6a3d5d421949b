"""The key-run backlog against the per-op tuple backlog it replaced.

``QoSEngine`` stores queued reads as runs — one record per stretch of
submissions that share a callback and span-presence — where it used to
park one ``(key, on_complete, span)`` tuple per op.
``tests/core/reference_engine.py`` keeps the tuple form.  The two must
issue the same ``(key, callback, span)`` sequence at the same simulated
times, complete into the same callbacks, and show the same counters at
every observation.
"""

import gc
import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import qos_cluster
from repro.common.errors import StoreError
from repro.core.engine import _RELEASE_FLOOR, _KeyRun
from repro.telemetry import TelemetryConfig, attach_telemetry

from tests.core.conftest import SCALE, make_qos_cluster
from tests.core.reference_engine import per_op_backlog_engines


class _App:
    """A callback owner: ``app.done`` is a *new* bound-method object at
    every evaluation (equal to the last, not identical), which is what
    the apps in ``repro.workloads.app`` hand the engine."""

    def __init__(self, label, log, sim):
        self.label, self.log, self.sim = label, log, sim

    def done(self, ok, _value, _latency):
        self.log.append(("done", self.sim.now, self.label, ok))


def build(per_op, limit, telemetry):
    limits = [limit, None] if limit else None
    if per_op:
        with per_op_backlog_engines():
            cluster = make_qos_cluster([120_000, 100_000], limits_ops=limits)
    else:
        cluster = make_qos_cluster([120_000, 100_000], limits_ops=limits)
    hub = attach_telemetry(cluster, TelemetryConfig(sample_every=3))
    if not telemetry:
        cluster.sim.telemetry = None
    return cluster, hub


def drive(cluster, hub, script):
    """Run ``script`` against client 0; return everything observable."""
    sim = cluster.sim
    engine = cluster.clients[0].engine
    log = []

    def plain(label):
        def done(ok, _value, _latency):
            log.append(("done", sim.now, label, ok))
        return done

    functions = [plain("f0"), plain("f1")]
    apps = [_App("m0", log, sim), _App("m1", log, sim)]
    labels = {id(f): f"f{i}" for i, f in enumerate(functions)}

    def label_of(callback):
        owner = getattr(callback, "__self__", None)
        return owner.label if owner is not None else labels[id(callback)]

    def callback(which):
        return functions[which] if which < 2 else apps[which - 2].done

    issue = engine._token_backed_wr

    def spy(key, on_complete, span=None):
        log.append(("issue", sim.now, key, label_of(on_complete),
                    None if span is None else (span.span_id, span.key)))
        return issue(key, on_complete, span)

    engine._token_backed_wr = spy
    keys = iter(range(10**9))

    def observe(tag):
        log.append((tag, sim.now, engine.queue_depth,
                    engine.issued_this_period, engine.faa_issued,
                    engine.total_submitted, engine.limit_throttle_events))

    observe("built")  # submissions before the first PeriodStart queue
    started = False
    for kind, count, which, gap in script:
        if kind == "submit":
            for _ in range(count):
                engine.submit(next(keys) % 64, callback(which))
        elif kind == "burst":
            engine.submit_burst(count, lambda: next(keys) % 64,
                                callback(which))
        elif kind == "telemetry":
            sim.telemetry = hub if sim.telemetry is None else None
        elif kind == "rebind" and started and not engine.suspended:
            engine.suspend()
        elif kind == "rebind" and engine.suspended:
            engine.rebind(
                engine.kv, engine.layout, engine._tokens.reservation, count,
                engine.period_id, engine._period_end, engine._generation, 0,
            )
        observe(kind)
        if not started:
            cluster.start()
            started = True
        sim.run(until=sim.now + gap * cluster.config.period)
        observe("ran")
    sim.run(until=sim.now + 2 * cluster.config.period)
    observe("end")
    return log


actions = st.lists(
    st.tuples(
        st.sampled_from(["submit", "submit", "burst", "burst",
                         "telemetry", "rebind"]),
        st.sampled_from([0, 1, 2, 3, 40, 200]),  # ops / rebind tokens_now
        st.integers(0, 3),                       # which callback
        st.sampled_from([0.0, 0.02, 0.3, 1.1]),  # periods to run after
    ),
    min_size=1, max_size=14,
)


@given(script=actions, limit=st.sampled_from([None, 150_000]),
       telemetry=st.booleans())
@settings(max_examples=40, deadline=None)
def test_runs_issue_what_the_per_op_backlog_issued(script, limit, telemetry):
    runs = drive(*build(False, limit, telemetry), script)
    per_op = drive(*build(True, limit, telemetry), script)
    assert runs == per_op


def test_the_two_backlogs_really_differ_in_storage():
    """The differential test is only worth something if the mechanisms
    differ: one record per op vs one per run of equal callbacks."""
    records = []
    for per_op in (False, True):
        cluster, _hub = build(per_op, None, telemetry=False)
        engine = cluster.clients[0].engine
        app = _App("m", [], cluster.sim)
        for key in range(50):
            engine.submit(key, app.done)  # 50 distinct bound methods
        engine.submit_burst(50, lambda: 7, app.done)
        engine.submit(1, print)
        assert engine.queue_depth == 101
        records.append(len(engine._queue))
    assert records == [2, 101]


def test_closed_qp_fails_each_queued_op_once_with_its_own_callback():
    """A backlog of interleaved runs, built before the first period,
    meets a dead QP when the tokens arrive: ``_fail_unposted`` fails
    every op exactly once, through the callback it was submitted with."""
    cluster = make_qos_cluster([300_000, 100_000])
    engine = cluster.clients[0].engine
    fired = Counter()

    def sink(tag):
        return lambda ok, _v, _l: fired.update([(tag, ok)])

    a, b = sink("a"), sink("b")
    for callback, count in ((a, 3), (b, 1), (a, 2)):
        for key in range(count):
            engine.submit(key, callback)
    engine.submit_burst(4, lambda: 9, b)
    engine.submit_burst(0, lambda: 9, a)
    assert engine.queue_depth == 10 and len(engine._queue) == 4
    engine.kv.qp.close()
    cluster.start()
    cluster.sim.run(until=0.2 * cluster.config.period)
    assert fired == {("a", False): 5, ("b", False): 5}
    assert engine.queue_depth == 0 and engine.inflight_tokened == 0
    assert engine.total_submitted == engine.total_completed == 10


def _oversubscribed_cell():
    """Demand far above the tokens, so most of every period's burst
    stays queued."""
    return qos_cluster([50_000, 50_000], [4_000_000.0, 4_000_000.0],
                       scale=SCALE, window=None)


def test_backlog_retains_no_per_op_object():
    """An oversubscribed token-paced cell: the backlog must not cost a
    tracked object per op (it cost one tuple each), and the depth
    counter must account for every op not yet issued."""
    cluster = _oversubscribed_cell()
    engines = [ctx.engine for ctx in cluster.clients]
    issued = Counter()
    for engine in engines:
        def spy(key, on_complete, span=None, engine=engine,
                issue=engine._token_backed_wr):
            issued[engine.client_id] += 1
            assert (engine.queue_depth
                    == engine.total_submitted - issued[engine.client_id])
            return issue(key, on_complete, span)
        engine._token_backed_wr = spy
    gc.collect()
    before = len(gc.get_objects())
    run_experiment(cluster, warmup_periods=1, measure_periods=4)
    gc.collect()
    growth = len(gc.get_objects()) - before
    queued = sum(engine.queue_depth for engine in engines)
    assert queued > 1000  # the cell really is oversubscribed
    for engine in engines:
        assert (engine.queue_depth
                == engine.total_submitted - issued[engine.client_id])
    assert growth <= 0.05 * queued, (growth, queued)


def test_queued_key_costs_one_column_slot():
    """A queued read is 8 bytes of a packed column, not a Python int
    (keys from 300 up, so none is a cached small int): a deque of
    ints retained 40 bytes per key."""
    cluster = make_qos_cluster([300_000, 100_000])
    engine = cluster.clients[0].engine  # no PeriodStart yet: all queue
    keys = itertools.count(300).__next__
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.submit_burst(100_000, keys, print)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert engine.queue_depth == 100_000
    assert retained <= 12 * 100_000, retained / 100_000


def test_runs_release_their_served_prefix():
    """After the oversubscribed cell each column holds at most twice
    its queued keys plus the release floor."""
    cluster = _oversubscribed_cell()
    run_experiment(cluster, warmup_periods=1, measure_periods=4)
    for ctx in cluster.clients:
        for run in ctx.engine._queue:
            queued = len(run.keys) - run.head
            assert len(run.keys) <= 2 * queued + _RELEASE_FLOOR


def test_head_run_keeps_at_most_one_period_of_served_keys():
    """A period start drops the head run's served prefix, so at the end
    of a Fig. 12 cell no head run holds more served keys than its
    engine issued that period (the release rule alone kept up to the
    floor, and half the column, across periods)."""
    from repro.cluster.runner import run_fig12_point

    cluster, _result, _reservations = run_fig12_point(
        {"distribution": "uniform", "fraction": 0.7}, 0)
    heads = []
    for ctx in cluster.clients:
        engine = ctx.engine
        assert engine.queue_depth > 0  # the cell ends oversubscribed
        head = engine._queue[0].head
        heads.append(head)
        assert head <= engine.issued_this_period, (head, engine.client_id)
    assert any(heads)  # served keys this period are still in place


def test_release_rule():
    """The rule itself: an exhausted run empties in place; otherwise
    the prefix goes once the head passes both half the column and the
    floor."""
    run = _KeyRun(print, traced=False)
    size = 4 * _RELEASE_FLOOR
    run.keys.extend(range(size))
    run.head = size // 2
    run.release()  # exactly half: kept
    assert (len(run.keys), run.head) == (size, size // 2)
    run.head = size // 2 + 1
    run.release()
    assert (len(run.keys), run.head) == (size // 2 - 1, 0)
    assert run.keys[0] == size // 2 + 1
    run.keys = run.keys[:_RELEASE_FLOOR + 1]
    run.head = _RELEASE_FLOOR  # past half, not past the floor: kept
    run.release()
    assert (len(run.keys), run.head) == (_RELEASE_FLOOR + 1, _RELEASE_FLOOR)
    run.head = len(run.keys)
    run.release()  # exhausted
    assert (len(run.keys), run.head) == (0, 0)


def test_key_the_column_cannot_hold_is_refused_before_queueing():
    """A key outside signed 64 bits, or not an int, raises StoreError
    at submit and leaves the backlog and its counters untouched."""
    cluster = make_qos_cluster([300_000, 100_000])
    engine = cluster.clients[0].engine
    engine.submit(1, print)
    draws = iter([5, 0.5, 6])

    def observed():
        return (engine.queue_depth, engine.total_submitted,
                len(engine._queue))

    before = observed()
    with pytest.raises(StoreError):
        engine.submit(2**63, repr)
    assert observed() == before
    with pytest.raises(StoreError):
        engine.submit_burst(3, lambda: next(draws), repr)
    assert observed() == before
    engine.submit(-2**63, print)  # the column's edge still queues
    assert observed() == (2, 2, 1)
