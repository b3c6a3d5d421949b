"""Admission control (Definition 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AdmissionError
from repro.core.admission import AdmissionController, local_violation


def make():
    # the paper's one-sided numbers, in tokens per 1 s period
    return AdmissionController(
        global_tokens_per_period=1_570_000, local_tokens_per_period=400_000
    )


def test_admit_within_both_limits():
    ac = make()
    ac.admit(0, 300_000)
    assert ac.admitted[0] == 300_000
    assert ac.total_reserved == 300_000


def test_local_capacity_violation():
    """A single client cannot reserve more than C_L * T."""
    ac = make()
    with pytest.raises(AdmissionError, match="local capacity"):
        ac.admit(0, 400_001)


def test_aggregate_capacity_violation():
    ac = make()
    for i in range(4):
        ac.admit(i, 390_000)  # 1_560_000 total
    with pytest.raises(AdmissionError, match="aggregate capacity"):
        ac.admit(4, 20_000)


def test_paper_example_2_is_admitted_but_runtime_violates():
    """Example 2: admission passes, yet a burst schedule can violate the
    local constraint at runtime."""
    ac = AdmissionController(global_tokens_per_period=100, local_tokens_per_period=50)
    ac.admit(1, 40)
    for i in range(2, 6):
        ac.admit(i, 10)
    # At t = 0.5 s client 1 has completed 10 of its 40 I/Os and the
    # remaining 30 exceed 0.5 s * C_L = 25.
    assert local_violation(
        reservation=40, completed=10, elapsed=0.5, period=1.0, local_rate=50
    )


def test_runtime_check_passes_when_on_schedule():
    assert not local_violation(
        reservation=40, completed=20, elapsed=0.5, period=1.0, local_rate=50
    )


def test_runtime_check_validates_elapsed():
    with pytest.raises(AdmissionError):
        local_violation(10, 0, elapsed=2.0, period=1.0, local_rate=50)


def test_duplicate_admission_rejected():
    ac = make()
    ac.admit(0, 1000)
    with pytest.raises(AdmissionError):
        ac.admit(0, 1000)


def test_release_frees_capacity():
    ac = make()
    ac.admit(0, 400_000)
    ac.release(0)
    assert ac.total_reserved == 0
    ac.admit(0, 400_000)  # re-admission succeeds


def test_release_unknown_client_rejected():
    with pytest.raises(AdmissionError):
        make().release(7)


def test_headroom():
    ac = make()
    ac.admit(0, 570_000 // 2)
    assert ac.headroom == 1_570_000 - 285_000


def test_negative_reservation_rejected():
    with pytest.raises(AdmissionError):
        make().admit(0, -1)


def test_zero_reservation_is_admissible():
    ac = make()
    ac.admit(0, 0)
    assert ac.total_reserved == 0


def test_constructor_validation():
    with pytest.raises(AdmissionError):
        AdmissionController(0, 10)
    with pytest.raises(AdmissionError):
        AdmissionController(10, 0)


def test_resize_moves_a_reservation():
    ac = make()
    ac.admit(0, 300_000)
    ac.admit(1, 300_000)
    ac.resize(0, 380_000)
    assert ac.admitted[0] == 380_000
    assert ac.total_reserved == 680_000


def test_resize_enforces_both_capacities():
    ac = make()
    ac.admit(0, 300_000)
    with pytest.raises(AdmissionError, match="local capacity"):
        ac.resize(0, 400_001)
    for i in range(1, 5):
        ac.admit(i, 300_000)  # others hold 1_200_000
    with pytest.raises(AdmissionError, match="aggregate capacity"):
        ac.resize(0, 380_000)
    # A rejected resize leaves the old reservation in force.
    assert ac.admitted[0] == 300_000
    assert ac.total_reserved == 1_500_000


def test_resize_validation():
    ac = make()
    with pytest.raises(AdmissionError, match="not admitted"):
        ac.resize(9, 1000)
    ac.admit(0, 1000)
    with pytest.raises(AdmissionError, match=">= 0"):
        ac.resize(0, -1)
    ac.resize(0, 0)  # shrinking to zero keeps the client admitted
    assert ac.admitted[0] == 0


def _summing_decision(admitted, op, client, reservation, capacity):
    """The admission rules restated over a plain dict, the aggregate
    summed afresh each time: the error text an operation must raise
    (None when it succeeds)."""
    if op != "admit" and client not in admitted:
        return f"client {client} is not admitted"
    if op == "release":
        return None
    if op == "admit" and client in admitted:
        return f"client {client} is already admitted"
    if reservation < 0:
        return f"reservation must be >= 0, got {reservation}"
    if reservation > 400_000:
        return (f"local capacity violation: reservation {reservation} "
                f"exceeds per-client capacity 400000")
    others = sum(admitted.values()) - admitted.get(client, 0)
    if others + reservation > capacity:
        return (f"aggregate capacity violation: {others} + {reservation} "
                f"exceeds {capacity}")
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["admit", "resize", "release"]),
                          st.integers(0, 5),
                          st.integers(-1, 420_000)),
                max_size=40))
def test_running_total_matches_the_summed_rules(ops):
    """Any admit/resize/release sequence keeps ``total_reserved`` equal
    to the sum of the admitted reservations and raises exactly where,
    and with the text, the summed form would."""
    ac = make()
    admitted = {}
    for op, client, reservation in ops:
        expected = _summing_decision(admitted, op, client, reservation,
                                     ac.global_capacity)
        args = (client,) if op == "release" else (client, reservation)
        if expected is None:
            getattr(ac, op)(*args)
            if op == "release":
                del admitted[client]
            else:
                admitted[client] = reservation
        else:
            with pytest.raises(AdmissionError) as err:
                getattr(ac, op)(*args)
            assert str(err.value) == expected
        assert ac.admitted == admitted
        assert ac.total_reserved == sum(admitted.values())
        assert ac.headroom == ac.global_capacity - ac.total_reserved
