"""Pin test: no refactor of the chaos harnesses changed a verdict.

``tests/data/chaos_pin_*.json`` hold ``dataclasses.asdict`` snapshots
of chaos reports captured BEFORE the harnesses' ``_check_invariants``
were rebuilt on :mod:`repro.core.oracles` — and so long before the
harnesses themselves became declarations over the
:mod:`repro.cluster.chaos` spine.  Field-for-field equality with
``ChaosReport.as_dict()`` proves both steps were behavior-preserving —
message text included.
"""

import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent.parent / "data"


def _load(name):
    with open(DATA / name) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", [11, 23])
def test_recovery_chaos_reports_are_pinned(seed, chaos_run):
    from repro.recovery.chaos import RECOVERY

    expected = _load("chaos_pin_recovery.json")[str(seed)]
    report, _cluster = chaos_run(RECOVERY, seed)
    assert report.as_dict() == expected


def test_globalqos_chaos_report_is_pinned(chaos_run):
    from repro.globalqos.chaos import COORD_CRASH

    expected = _load("chaos_pin_globalqos.json")["11"]
    report, _cluster = chaos_run(COORD_CRASH, 11)
    assert report.as_dict() == expected
