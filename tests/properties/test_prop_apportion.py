"""Property tests: the array apportionment kernels return exactly what
the list functions in ``globalqos.waterfill`` return."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.fluid import kernels
from repro.globalqos import waterfill

# Weights as the callers produce them: client counts and demand rates
# (integers as floats, where exact ties happen), arbitrary fractions,
# and runs of zeros.
weight = st.one_of(
    st.integers(0, 50).map(float),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    st.just(0.0),
)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 40))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    bounds = draw(st.lists(st.integers(0, 5_000), min_size=n, max_size=n))
    # Mostly feasible totals, from empty to the exact sum of bounds;
    # sometimes one beyond it.
    total = draw(st.integers(0, sum(bounds) + 1))
    return total, weights, bounds


def _array_bounded(total, weights, bounds):
    got = kernels.bounded_apportion(
        total, np.array(weights, dtype=np.float64),
        np.array(bounds, dtype=np.int64),
    )
    return None if got is None else got.tolist()


@given(problem=problems())
@example(problem=(7, [0.0, 0.0, 0.0], [3, 3, 3]))          # all-zero weights
@example(problem=(10, [1.0, 1.0, 1.0, 1.0], [9, 9, 9, 9]))  # exact ties
@example(problem=(5, [2.5], [5]))                           # a single bin
@example(problem=(6, [2.5], [5]))                           # infeasible
# Three freeze-and-redistribute rounds: the heavy bins saturate in turn.
@example(problem=(100, [100.0, 10.0, 1.0, 1.0], [5, 10, 40, 60]))
@settings(max_examples=400, deadline=None)
def test_bounded_apportion_matches_list_form(problem):
    total, weights, bounds = problem
    want = waterfill.bounded_apportion(total, weights, bounds)
    got = _array_bounded(total, weights, bounds)
    assert got == want
    if total > sum(bounds):
        assert got is None
    else:
        assert sum(got) == total
        assert all(0 <= g <= b for g, b in zip(got, bounds))


@given(
    total=st.integers(0, 10**7),
    weights=st.lists(weight, min_size=1, max_size=60),
)
@example(total=1_000_003, weights=[1.0] * 7)
@example(total=5, weights=[0.0, 0.0])
# The denominator depends on the order of addition: ndarray.sum adds
# these nine in eight lanes and lands one ulp from the builtin sum,
# which moves a leftover token to another bin.
@example(total=6_186_593,
         weights=[1.1, 2.3, 2.3, 0.3, 2.3, 0.2, 0.1, 0.1, 1.1])
@settings(max_examples=400, deadline=None)
def test_largest_remainder_matches_list_form(total, weights):
    want = waterfill.largest_remainder(total, weights)
    got = kernels.largest_remainder(total, np.array(weights)).tolist()
    assert got == want
    assert sum(got) == total


def test_multi_round_example_really_takes_several_rounds(monkeypatch):
    rounds = []
    real = kernels.largest_remainder

    def counting(total, weights):
        rounds.append(total)
        return real(total, weights)

    monkeypatch.setattr(kernels, "largest_remainder", counting)
    got = _array_bounded(100, [100.0, 10.0, 1.0, 1.0], [5, 10, 40, 60])
    assert got == [5, 10, 40, 45]
    assert len(rounds) >= 3


def test_array_kernels_reject_what_the_list_forms_reject():
    with pytest.raises(ConfigError):
        kernels.largest_remainder(-1, np.array([1.0]))
    with pytest.raises(ConfigError):
        kernels.largest_remainder(1, np.array([]))
    with pytest.raises(ConfigError):
        kernels.largest_remainder(1, np.array([1.0, -1.0]))
    with pytest.raises(ConfigError):
        kernels.bounded_apportion(
            1, np.array([1.0, 1.0]), np.array([1], dtype=np.int64)
        )
