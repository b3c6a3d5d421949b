"""Property tests: event-loop ordering and pipeline conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Pipeline, Simulator


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_events_execute_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_equal_times_preserve_schedule_order(delays):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(round(delay, 0), fired.append, index)
    sim.run()
    # stable sort by (time, insertion order)
    expected = [i for _t, i in sorted(
        (round(d, 0), i) for i, d in enumerate(delays)
    )]
    assert fired == expected


@given(costs=st.lists(st.floats(1e-9, 10.0), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_pipeline_conserves_work(costs):
    """Back-to-back submissions finish exactly at the sum of costs."""
    sim = Simulator()
    pipe = Pipeline(sim)
    finish = 0.0
    for cost in costs:
        finish = pipe.submit(cost)
    assert finish == sum(costs) or abs(finish - sum(costs)) < 1e-9 * len(costs)


@given(costs=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=30))
@settings(max_examples=100, deadline=None)
def test_pipeline_completions_monotone_even_with_charges(costs):
    sim = Simulator()
    pipe = Pipeline(sim)
    finishes = [pipe.submit(c) for c in costs]
    assert finishes == sorted(finishes)
    # accepted work pushes subsequent bulk work out by exactly its cost
    assert pipe.submit(1.0) >= sum(costs)


@given(until=st.floats(0.1, 50.0),
       delays=st.lists(st.floats(0.0, 100.0), max_size=30))
@settings(max_examples=100, deadline=None)
def test_run_until_executes_exactly_the_due_events(until, delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run(until=until)
    assert sorted(fired) == sorted(d for d in delays if d <= until)
    assert sim.now == until
