"""What a fluid run keeps: a column per change, not per period.

A ledgered 512-flow engine (the ``fluid_1m_tenants`` shape) holds its
history as the ledger's account blocks, whose ``spent`` columns are
also the engine's completion rows.  A column equal to the previous
period's is kept as the previous period's object, so the distinct
column objects held grow with the periods that changed a column and
stay put while the run is steady.
"""

import numpy as np
import pytest

from repro.fluid.scenario import build_fluid_scale

COLUMNS = ("granted_reservation", "requested", "granted_pool", "spent",
           "residual")


def _engine(brownout):
    _hierarchy, engine, ledger, _capacity = build_fluid_scale(
        num_clients=1_000_000, tenants=32, groups_per_tenant=16,
        periods=60, seed=11, brownout=brownout,
    )
    return engine, ledger


def _value_changes(ledger) -> int:
    """Per column, the first period plus each period whose values
    differ from the period before — the most objects a run needs."""
    blocks = ledger.blocks()
    changes = 0
    for name in COLUMNS:
        columns = [getattr(block, name) for block in blocks]
        changes += 1 + sum(
            not np.array_equal(a, b) for a, b in zip(columns, columns[1:])
        )
    return changes


@pytest.mark.parametrize("brownout,held", [(False, 29), (True, 58)])
def test_columns_held_grow_with_changes_not_periods(brownout, held):
    engine, ledger = _engine(brownout)
    engine.run(60)
    assert len(engine.flows) == 512
    assert engine.columns_held() == _value_changes(ledger) == held
    # Sixty more steady periods store no new column.
    engine.run(60)
    assert engine.columns_held() == _value_changes(ledger) == held
    assert len(ledger.blocks()) == engine.period_id == 120


def test_completion_rows_are_the_ledger_spent_columns():
    engine, ledger = _engine(brownout=True)
    engine.run(60)
    rows = {id(row) for row, _periods in engine._completion_runs}
    assert rows == {id(block.spent) for block in ledger.blocks()}


def test_flow_completions_is_a_read_only_view_of_fresh_lists():
    engine, ledger = _engine(brownout=False)
    engine.run(60)
    completions = engine.flow_completions
    name = engine.flows[0].name
    counts = completions[name]
    assert len(counts) == 60 and all(type(c) is int for c in counts)
    assert counts == [int(block.spent[0]) for block in ledger.blocks()]
    # A run of equal periods is one int object repeated.
    assert counts[-1] is counts[-2]
    # Each lookup is a fresh list; the view cannot be written.
    counts.append(0)
    assert len(completions[name]) == 60
    with pytest.raises(TypeError):
        completions[name] = []
    assert list(completions) == [f.name for f in engine.flows]
    assert len(completions) == 512
