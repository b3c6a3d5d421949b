"""Event and Timeout semantics."""

import pytest

from repro.sim import Event, Timeout


def test_succeed_delivers_value_to_callbacks(sim):
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    assert got == [42]
    assert ev.ok


def test_callback_added_after_trigger_runs_immediately(sim):
    ev = sim.event()
    ev.succeed("done")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["done"]


def test_double_trigger_raises(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_records_exception(sim):
    ev = sim.event()
    err = RuntimeError("boom")
    ev.fail(err)
    assert not ev.ok
    assert ev.exception is err


def test_fail_requires_exception_instance(sim):
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callbacks_run_in_registration_order(sim):
    ev = sim.event()
    order = []
    ev.add_callback(lambda e: order.append(1))
    ev.add_callback(lambda e: order.append(2))
    ev.succeed()
    assert order == [1, 2]


def test_timeout_fires_at_deadline(sim):
    ev = sim.timeout(2.5, value="tick")
    got = []
    ev.add_callback(lambda e: got.append((sim.now, e.value)))
    sim.run()
    assert got == [(2.5, "tick")]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_zero_timeout_fires(sim):
    ev = sim.timeout(0.0)
    sim.run()
    assert ev.triggered
