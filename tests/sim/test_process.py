"""Generator-based process semantics."""

import pytest


def test_process_advances_through_timeouts(sim):
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(1.0)
        trace.append(sim.now)
        yield sim.timeout(2.0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 1.0, 3.0]


def test_process_return_value_becomes_event_value(sim):
    def proc():
        yield sim.timeout(1.0)
        return "result"

    p = sim.process(proc())
    sim.run()
    assert p.triggered and p.value == "result"
    assert not p.alive


def test_process_receives_event_value(sim):
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_process_can_wait_on_process(sim):
    def child():
        yield sim.timeout(2.0)
        return 7

    def parent():
        value = yield sim.process(child())
        return value + 1

    p = sim.process(parent())
    sim.run()
    assert p.value == 8


def test_process_failure_propagates_to_waiter(sim):
    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as err:
            return f"caught {err}"

    p = sim.process(parent())
    sim.run()
    assert p.value == "caught child died"


def test_uncaught_exception_fails_the_process(sim):
    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    p = sim.process(proc())
    sim.run()
    assert p.triggered and not p.ok
    assert isinstance(p.exception, RuntimeError)


def test_yielding_non_event_fails_process(sim):
    def proc():
        yield 42

    p = sim.process(proc())
    sim.run()
    assert not p.ok
    assert isinstance(p.exception, TypeError)


def test_non_generator_rejected(sim):
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_start_is_deferred(sim):
    """The spawner's code after process() runs before the process body."""
    order = []

    def proc():
        order.append("body")
        yield sim.timeout(0.0)

    sim.process(proc())
    order.append("spawner")
    sim.run()
    assert order == ["spawner", "body"]
