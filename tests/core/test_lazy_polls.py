"""Lazy empty polls against the timer-form reference.

Once an FAA posted after the pool's last positive write grants nothing,
``QoSEngine`` keeps its re-tries as a poll chain: no retry timer, no
FAA arrival or completion event, each step replayed at the engine's next
settle point, and the chain turned back into heap events when the
monitor next writes a positive pool value (see the settling notes in
``repro.core.engine``).  ``EagerPollEngine`` keeps the timer form.  The
two must agree on everything the monitor, the grants and the counters
see.

As for lazy reports, the server NIC's ``control_target_cost_total`` is
summed in settle order rather than arrival order, so it is compared with
``math.isclose(rel_tol=1e-12)``.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.types import QoSMode
from repro.cluster.builder import build_cluster
from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import qos_cluster
from repro.core.capacity import ProfiledCapacity
from repro.core.engine import QoSEngine
from repro.faults.plan import FaultPlan
from repro.rdma.atomics import to_signed64
from repro.telemetry import TelemetryConfig, attach_telemetry

from tests.core.conftest import SCALE
from tests.core.reference_engine import eager_poll_engines


def build(eager, reservations, demands, scale=SCALE, **kwargs):
    if eager:
        with eager_poll_engines():
            return qos_cluster(reservations, demands, scale=scale, **kwargs)
    return qos_cluster(reservations, demands, scale=scale, **kwargs)


def spy_grants(cluster):
    """Every FAA completion that granted tokens, as (time, client,
    prior pool value).  Installed before the first FAA, so the engine
    binds the spy as its completion handler."""
    grants = []
    sim = cluster.sim
    for ctx in cluster.clients:
        engine = ctx.engine

        def spy(wc, engine=engine, handler=engine._on_faa_complete):
            before = engine.faa_granted_tokens
            handler(wc)
            if engine.faa_granted_tokens > before:
                grants.append((sim.now, engine.client_id,
                               to_signed64(wc.value)))
        engine._on_faa_complete = spy
    return grants


def record_sweeps(cluster):
    """The pool word and every live word right after each check and
    each period end."""
    monitor = cluster.monitor
    memory = monitor.host.memory.backing
    seen = []

    def wrap(name):
        method = getattr(monitor, name)

        def recorded():
            method()
            seen.append((name, cluster.sim.now, monitor._read_pool(), [
                memory.read_u64(slot.layout.report_live_addr)
                for slot in monitor._clients.values()
            ]))
        setattr(monitor, name, recorded)

    wrap("_check_interval")
    wrap("_end_period")
    return seen


def resize(cluster, index, reservation, rebind):
    """The global coordinator's apply path: resize, then (optionally)
    rebind the engine to the new grant mid-period."""
    grant = cluster.monitor.update_reservation(index, reservation)
    if rebind:
        engine = cluster.clients[index].engine
        engine.rebind(engine.kv, engine.layout, grant["reservation"],
                      grant["tokens_now"], grant["period_id"],
                      grant["period_end_time"], grant["generation"], 0)


def snapshot(cluster, result, sweeps, grants):
    monitor = cluster.monitor
    server = cluster.server_host.nic
    return {
        "sweeps": sweeps,
        "grants": grants,
        "pool": monitor._read_pool(),
        "pool_history": monitor.pool_history,
        "period_records": monitor.period_records,
        "counts": result.client_period_counts,
        "engines": [(e.total_completed, e.faa_issued, e.faa_pool_empty,
                     e.faa_granted_tokens, e.limit_throttle_events,
                     e.reports_written, e.queue_depth)
                    for e in (ctx.engine for ctx in cluster.clients)],
        "client_nics": [(ctx.host.nic._issued_counts,
                         ctx.host.nic._handled_counts,
                         ctx.host.nic.control_issue_cost_total,
                         ctx.host.nic.control_target_cost_total)
                        for ctx in cluster.clients],
        "server_nic": (server._issued_counts, server._handled_counts,
                       server.control_issue_cost_total),
        "server_target_cost": server.control_target_cost_total,
        "outstanding": [ctx.kv.qp.outstanding for ctx in cluster.clients],
    }


def observe(eager, spec):
    (reservations, factors, window, conversion, periods, limited,
     updates) = spec
    demands = [r * factors[i % len(factors)]
               for i, r in enumerate(reservations)]
    limits = None
    if limited:
        limits = [2 * r if i % 2 == 0 else None
                  for i, r in enumerate(reservations)]
    mode = QoSMode.HAECHI if conversion else QoSMode.BASIC_HAECHI
    cluster = build(eager, reservations, demands, window=window,
                    qos_mode=mode, limits_ops=limits)
    sweeps = record_sweeps(cluster)
    grants = spy_grants(cluster)
    period = cluster.config.period
    for at, index, reservation, rebind in updates:
        if index < len(reservations):
            cluster.sim.schedule_at(at * period, resize, cluster, index,
                                    reservation, rebind)
    result = run_experiment(cluster, warmup_periods=0,
                            measure_periods=periods)
    return snapshot(cluster, result, sweeps, grants)


def check_equal(lazy, eager):
    lazy_cost = lazy.pop("server_target_cost")
    eager_cost = eager.pop("server_target_cost")
    assert lazy == eager
    assert math.isclose(lazy_cost, eager_cost, rel_tol=1e-12)


clusters = st.tuples(
    st.one_of(
        st.lists(st.sampled_from([20_000, 60_000, 100_000, 200_000]),
                 min_size=1, max_size=6),
        # Many equal clients: their polls share one time grid (ties).
        st.builds(lambda n, r: [r] * n, st.integers(6, 16),
                  st.sampled_from([20_000, 50_000])),
    ),                                                   # reservations
    st.lists(st.sampled_from([0.3, 1.0, 1.6, 3.0]), min_size=6,
             max_size=6),                                # demand / reservation
    st.sampled_from([None, None, 8, 64]),                # None = token-paced
    st.booleans(),                                       # token conversion
    st.integers(2, 4),                                   # periods
    st.booleans(),                                       # limit every other
    st.lists(st.tuples(st.floats(0.05, 1.95),            # when, in periods
                       st.integers(0, 5),                # which client
                       st.sampled_from([10, 80, 150]),   # tokens/period
                       st.booleans()),                   # rebind the engine
             max_size=3),
)


@given(spec=clusters)
@settings(max_examples=25, deadline=None)
def test_lazy_polls_match_the_timer_form(spec):
    assume(sum(spec[0]) <= 1_300_000)
    check_equal(observe(False, spec), observe(True, spec))


# ----------------------------------------------------------------------
# Races with the pool word and with a rebind
# ----------------------------------------------------------------------
# Basic Haechi writes the pool only at period start, so oversubscribed
# clients poll an empty pool for most of each period.  (Batches of 10
# tokens: at the unit-test scale a batch is one token, and a client's
# FAA round trips barely keep up with its share of the pool.)
RACE_SCALE = SimScale(factor=100, interval_divisor=50)
RESERVATIONS = [200_000] * 4
DEMANDS = [1_000_000] * 4


def race_cluster(eager):
    return build(eager, RESERVATIONS, DEMANDS, scale=RACE_SCALE,
                 qos_mode=QoSMode.BASIC_HAECHI)


def empty_faa(into=0.25):
    """``(posted_at, completed_at)`` of client 0's first empty FAA that
    completes more than ``into`` periods into period 2, read off a
    timer-form run, and that run's cluster."""
    cluster = race_cluster(True)
    engine = cluster.clients[0].engine
    period = cluster.config.period
    empty = []

    def spy(wc, handler=engine._on_faa_complete):
        before = engine.faa_pool_empty
        handler(wc)
        if engine.faa_pool_empty > before:
            empty.append((wc.posted_at, cluster.sim.now))
    engine._on_faa_complete = spy
    run_experiment(cluster, warmup_periods=0, measure_periods=2)
    after = (1 + into) * period
    return next(pair for pair in empty if pair[1] > after), cluster


def race(eager, at, action):
    """Run the race cell for three periods with ``action(cluster)`` at
    ``at``; everything observable, plus what ``action`` returned."""
    cluster = race_cluster(eager)
    sweeps = record_sweeps(cluster)
    grants = spy_grants(cluster)
    seen = []
    cluster.sim.schedule_at(at, lambda: seen.append(action(cluster)))
    result = run_experiment(cluster, warmup_periods=0, measure_periods=3)
    return snapshot(cluster, result, sweeps, grants), seen


def refill(cluster):
    """A positive pool write, as a conversion makes one."""
    monitor = cluster.monitor
    monitor._settle()
    monitor._write_pool(10 * cluster.config.batch_size)
    return monitor._read_pool()


def test_an_faa_posted_before_a_refill_that_completes_after_it():
    """The FAA saw the empty pool before the write and returns nothing
    after it: the pool now holds tokens, so its retry must be a real
    FAA that claims them, not the head of a poll chain."""
    (posted, completed), reference = empty_faa()
    prop = reference.clients[0].kv.qp.prop_delay
    at = completed - prop / 2  # after the arrival, before the completion
    assert posted < at
    lazy, _ = race(False, at, refill)
    eager, _ = race(True, at, refill)
    check_equal(lazy, eager)
    claims = [g for g in eager["grants"] if g[1] == 0 and at < g[0]]
    assert claims and claims[0][0] < completed + 2 * (
        reference.config.faa_retry_interval)  # the very next FAA claims


def test_a_rebind_while_a_virtual_faa_is_in_flight():
    """The timer form drops the FAA in flight at a rebind; it still
    lands (one batch off the pool) and completes into a discarded
    completion (one outstanding WR less), and the rebind's drain fetches
    at once."""
    (posted, _completed), reference = empty_faa(0.5)
    prop = reference.clients[0].kv.qp.prop_delay
    at = posted + prop / 2  # posted, not yet arrived

    def rebind(cluster):
        engine = cluster.clients[0].engine
        engine.settle()
        state = (engine.poll_order > 0,
                 engine._poll is not None
                 and engine._poll[3] == engine._poll_arrive,
                 engine.kv.qp.outstanding)
        resize(cluster, 0, RESERVATIONS[0] // 1000, True)
        return state

    lazy, (lazy_state,) = race(False, at, rebind)
    eager, (eager_state,) = race(True, at, rebind)
    assert lazy_state[:2] == (True, 1)  # a chain, its FAA in flight
    assert eager_state[:2] == (False, 0)
    assert lazy_state[2] == eager_state[2] >= 1
    check_equal(lazy, eager)


def test_a_rebind_turns_every_chain_on_the_pool_real():
    """The four race clients poll one time grid, so their steps tie,
    and steps that tie run in chain-start order (2, 3, 0, 1 here).  A
    rebind of client 0 gives its retry a fresh seq: client 2's chain,
    left virtual, would take a later one and poll after it, and client
    1's next start would count as earlier than client 0's.  Every chain
    on the pool turns real with it, in chain-start order."""
    period = race_cluster(True).config.period

    def rebind(cluster):
        engines = [ctx.engine for ctx in cluster.clients]
        for engine in engines:
            engine.settle()
        before = [engine.poll_order for engine in engines]
        resize(cluster, 0, RESERVATIONS[0] // 1000, True)
        return before, [engine.poll_order for engine in engines]

    lazy, ((before, after),) = race(False, 1.3 * period, rebind)
    eager, _ = race(True, 1.3 * period, rebind)
    assert sorted(range(4), key=before.__getitem__) == [2, 3, 0, 1]
    assert after == [0, 0, 0, 0]
    check_equal(lazy, eager)


def test_a_limit_set_between_a_retry_and_its_replay():
    """A coordinator sets ``engine.limit`` directly.  A retry made before
    the new limit must be replayed with the old one: the timer form's
    retry posted its FAA; only the next retry stops at the limit."""
    (posted, _completed), reference = empty_faa(0.5)
    at = posted + reference.clients[0].kv.qp.prop_delay / 2

    def throttle(cluster):
        cluster.clients[0].engine.limit = 1

    lazy, _ = race(False, at, throttle)
    eager, _ = race(True, at, throttle)
    check_equal(lazy, eager)


def starved_alone(eager, burst, submit_at=None):
    """One client submitting ``burst`` reads into a pool that starts
    every period empty (the estimate is the sum of the reservations),
    plus one more at ``submit_at``: its real FETCH_ADD posts as (time,
    backlog), its retries (the timer form's), and the cluster."""
    reserved = sum(map(RACE_SCALE.config().tokens_per_period,
                       RESERVATIONS[:2]))
    kwargs = dict(num_clients=2, qos_mode=QoSMode.BASIC_HAECHI,
                  reservations_ops=RESERVATIONS[:2], scale=RACE_SCALE,
                  admission_enabled=False,
                  profiled=ProfiledCapacity(mean=reserved, stddev=1.0))
    if eager:
        with eager_poll_engines():
            cluster = build_cluster(**kwargs)
    else:
        cluster = build_cluster(**kwargs)
    sim = cluster.sim
    engine = cluster.clients[0].engine
    fetches, retries = [], []
    fetch, retry = engine._fetch_global_batch, engine._retry_fetch

    def fetched():
        fetches.append((sim.now, engine.queue_depth))
        fetch()

    def retried():
        retries.append((sim.now, engine.queue_depth))
        retry()
    engine._fetch_global_batch = fetched
    engine._retry_fetch = retried
    period = cluster.config.period
    cluster.start()
    sim.run(until=0.1 * period)
    engine.submit_burst(burst, lambda: 1, lambda ok, v, l: None)
    if submit_at is not None:
        sim.schedule_at(submit_at, engine.submit, 2,
                        lambda ok, v, l: None)
    result = run_experiment(cluster, warmup_periods=0, measure_periods=2)
    return fetches, retries, cluster, result


def test_a_submit_to_an_empty_backlog_after_a_due_retry():
    """A chain outlives a period boundary when the pool starts the period
    empty.  The new reservation drains the backlog, so the chain's next
    retry finds it empty and ends; a read submitted after that retry
    (and before anything settled the engine) must post its own FAA at
    once, not revive the retry that already passed."""
    reservation = RACE_SCALE.config().tokens_per_period(RESERVATIONS[0])
    # Period 1 completes what its decayed reservation allows; submit
    # exactly one more reservation's worth on top.
    _, _, probe, _ = starved_alone(True, 2 * reservation)
    first = probe.monitor.period_records[0]["per_client"][0]
    _, retries, probe, _ = starved_alone(True, reservation + first)
    period = probe.config.period
    retry = next(t for t, depth in retries if t > period and depth == 0)
    at = retry + 1e-5 * period  # before the next monitor check
    lazy = starved_alone(False, reservation + first, at)
    eager = starved_alone(True, reservation + first, at)
    for fetches, _, _, _ in (lazy, eager):
        assert (at, 1) in fetches
    check_equal(snapshot(lazy[2], lazy[3], [], []),
                snapshot(eager[2], eager[3], [], []))


def test_a_qp_closed_by_hand_mid_chain_fails_the_next_poll():
    """In a run only a fault injector closes QPs, and it keeps polls on
    the heap.  A QP closed by hand while a chain waits to retry still
    fails that retry — at the engine's next settle point, through the
    heap event's failure path — instead of polling on."""
    (posted, _completed), reference = empty_faa(0.5)
    at = posted - reference.clients[0].kv.qp.prop_delay / 2

    def close(cluster):
        engine = cluster.clients[0].engine
        engine.settle()
        state = (engine.poll_order > 0, engine.faa_pool_empty)
        engine.kv.qp.close()
        return engine, state

    for eager in (False, True):
        _snapshot, ((engine, (chained, empty)),) = race(eager, at, close)
        assert chained is not eager
        assert engine.faa_failures > 0
        assert engine.faa_pool_empty == empty  # no poll after the close
        assert engine.poll_order == 0


# ----------------------------------------------------------------------
# The one predicate
# ----------------------------------------------------------------------
def retries(monkeypatch, configure=None, eager=False):
    """``_retry_fetch`` events run by an oversubscribed cell, and its
    FAA count."""
    ran = []
    retry = QoSEngine._retry_fetch

    def counted(self):
        ran.append(self.client_id)
        retry(self)
    monkeypatch.setattr(QoSEngine, "_retry_fetch", counted)
    cluster = race_cluster(eager)
    if configure is not None:
        configure(cluster)
    run_experiment(cluster, warmup_periods=0, measure_periods=2)
    monkeypatch.undo()
    issued = sum(ctx.engine.faa_issued for ctx in cluster.clients)
    return len(ran), issued


def telemetry(cluster):
    attach_telemetry(cluster, TelemetryConfig(sample_every=0))


def injector(cluster):
    cluster.inject_faults(FaultPlan())


def test_an_eligible_cell_keeps_empty_polls_off_the_heap(monkeypatch):
    ran, issued = retries(monkeypatch)
    eager_ran, eager_issued = retries(monkeypatch, eager=True)
    assert issued == eager_issued  # the polls were still made
    assert eager_ran > 200 and ran < eager_ran / 10


def test_each_predicate_clause_restores_the_retry_events(monkeypatch):
    eager_ran, eager_issued = retries(monkeypatch, eager=True)
    for configure in (telemetry, injector):
        ran, issued = retries(monkeypatch, configure)
        assert (ran, issued) == (eager_ran, eager_issued), configure.__name__
