"""Lazy token decay against the eager tick-by-tick reference.

``QoSEngine`` no longer schedules a management tick; the due
``decay(mgmt_interval)`` steps are replayed whenever token state is
read.  ``tests/core/reference_engine.py`` keeps the timer form.  The
two must agree on every token field at every observation and on every
word the engine reports — same floats, not close ones.

An action aimed at *exactly* a tick instant is scheduled after the
previous tick has run, which is the only way the datapath ever lands on
one (the lazy rule "a step due at ``now`` is applied first" is the
timer form's order for any event scheduled less than one interval
ahead).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import InvariantChecker
from repro.core.oracles import checker_violations
from repro.telemetry import TelemetryConfig, attach_telemetry

from tests.core.conftest import make_qos_cluster
from tests.core.reference_engine import eager_engines


def build(reservations, eager):
    """A cluster whose hub records every engine decision and, on the
    ledger, every FAA grant."""
    if eager:
        with eager_engines():
            cluster = make_qos_cluster(reservations)
    else:
        cluster = make_qos_cluster(reservations)
    hub = attach_telemetry(cluster, TelemetryConfig(sample_every=0))
    cluster.start()
    return cluster, hub


def token_fields(engine):
    tokens = engine.tokens
    return (tokens.xi_res, tokens.x_bound, tokens.yielded_tokens,
            tokens.local_global, engine.token_obligations,
            engine.issued_this_period, engine.period_id)


def drive(cluster, hub, script):
    """Run ``script`` against client 0; return everything observable."""
    sim = cluster.sim
    engine = cluster.clients[0].engine
    interval = cluster.config.mgmt_interval
    while engine.period_id == 0:  # the first PeriodStart starts the clock
        sim.step()
    tick = sim.now + interval
    seen = [("start", sim.now, token_fields(engine))]

    def act(kind, arg):
        if kind == "submit":
            for key in range(arg):
                engine.submit(key % 16, lambda ok, v, l: None)
        elif kind == "rebind":
            engine.suspend()
            seen.append(("suspended", sim.now, token_fields(engine)))
            engine.rebind(
                engine.kv, engine.layout, engine.tokens.reservation, arg,
                engine.period_id, engine._period_end, engine._generation, 0,
            )
        seen.append((kind, sim.now, token_fields(engine)))

    for gap, on_tick, in_event, kind, arg in script:
        while tick <= sim.now:
            tick += interval
        target = tick if on_tick else sim.now + gap * interval
        if in_event:
            # From inside the event loop, scheduled after the previous
            # tick ran (see the module docstring).
            if target - interval / 2 > sim.now:
                sim.run(until=target - interval / 2)
            sim.schedule_at(target, act, kind, arg)
            sim.run(until=target)
        else:
            sim.run(until=target)
            act(kind, arg)
    sim.run(until=sim.now + cluster.config.period)  # through a PeriodStart
    seen.append(("end", sim.now, token_fields(engine)))
    records = [(r.time, r.event, sorted(r.fields.items()))
               for r in hub.records.filter(category="engine")]
    claims = [sorted(e.items()) for e in hub.ledger.events
              if e["event"] == "claim"]
    return seen, records, claims


steps = st.lists(
    st.tuples(
        st.floats(0.05, 6.0),               # gap, in management intervals
        st.booleans(),                      # land exactly on a tick instant
        st.booleans(),                      # act from inside an event
        st.sampled_from(["observe", "observe", "submit", "submit", "rebind"]),
        st.integers(0, 250),                # ops to submit / tokens_now
    ),
    min_size=1, max_size=25,
)


@given(reservation=st.sampled_from([7_000, 100_000, 233_000, 390_000]),
       script=steps)
@settings(max_examples=40, deadline=None)
def test_lazy_decay_matches_eager_reference(reservation, script):
    reservations = [reservation, 100_000]
    lazy = drive(*build(reservations, eager=False), script)
    eager = drive(*build(reservations, eager=True), script)
    assert lazy[0] == eager[0]   # token fields at every observation
    assert lazy[1] == eager[1]   # every report word, period start
    assert lazy[2] == eager[2]   # every FAA grant


def test_reference_really_ticks_and_lazy_really_does_not():
    """The differential test is only worth something if the two engines
    differ in mechanism: one heap event per tick vs none."""
    counts = []
    for eager in (False, True):
        cluster, _ = build([100_000, 100_000], eager)
        period = cluster.config.period
        cluster.sim.run(until=2 * period)
        before = cluster.sim._seq
        cluster.sim.run(until=4 * period)
        counts.append(cluster.sim._seq - before)
    ticks = 2 * 2 * round(period / cluster.config.mgmt_interval)
    assert counts[1] - counts[0] == ticks


class TestOutsideReadsSeeDecayedState:
    def test_tokens_after_run_until_are_decayed_to_now(self):
        cluster, _ = build([300_000, 100_000], eager=False)
        sim = cluster.sim
        config = cluster.config
        engine = cluster.clients[0].engine
        while engine.period_id == 0:
            sim.step()
        start = sim.now
        granted = engine.tokens.xi_res
        sim.run(until=start + 10.5 * config.mgmt_interval)
        tokens = engine.tokens
        # ten whole steps are due, the eleventh is not
        expected = float(granted)
        for _ in range(10):
            expected = max(0.0, expected - tokens.rate * config.mgmt_interval)
        assert tokens.x_bound == expected
        assert tokens.xi_res < granted
        assert tokens.yielded_tokens == granted - tokens.xi_res
        # a second read at the same instant replays nothing
        assert engine.tokens.x_bound == expected

    def test_invariant_checker_and_hunt_oracle_read_decayed_state(self):
        """The checker's clamp invariant (``xi_res <= ceil(X) + slack``)
        only holds on decayed state; idle clients never touch their own
        tokens, so the checker's read is the only thing decaying them."""
        fields = []
        for eager in (False, True):
            cluster, _ = build([300_000, 100_000], eager)
            checker = InvariantChecker(cluster)
            cluster.sim.run(until=2.5 * cluster.config.period)
            assert checker.checks_run > 50
            assert checker_violations(checker) == []
            fields.append([token_fields(c.engine) for c in cluster.clients])
        assert fields[0] == fields[1]
        # mid-period, idle: most of the grant has been yielded
        xi_res, x_bound, yielded = fields[0][0][:3]
        assert yielded > 100 and xi_res <= x_bound + 1


def test_ledger_accounts_close_with_the_same_yield():
    """The closing balance reads ``yielded_tokens`` of the outgoing
    episode: the steps due before the boundary must be in it."""
    closed = []
    for eager in (False, True):
        cluster, _ = build([300_000, 100_000], eager)
        sim = cluster.sim
        period = cluster.config.period
        engine = cluster.clients[0].engine
        for _ in range(4):
            for key in range(120):  # under the reservation: the rest yields
                engine.submit(key % 16, lambda ok, v, l: None)
            sim.run(until=sim.now + period)
        engine.suspend()
        engine.rebind(engine.kv, engine.layout, engine.tokens.reservation,
                      50, engine.period_id, engine._period_end,
                      engine._generation, 0)
        sim.run(until=sim.now + period)
        for client in cluster.clients:
            client.engine.ledger_flush()
        ledger = sim.telemetry.ledger
        assert ledger.check_conservation() == []
        closed.append([dict(a) for a in ledger.closed_accounts])
    assert closed[0] == closed[1]
    assert sum(a["yielded"] for a in closed[0]) > 0
    assert {a["reason"] for a in closed[0]} >= {"period_start", "rebind"}
