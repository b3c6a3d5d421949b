"""Fluid-vs-exact-DES equivalence, pinned on the documented seeds and
swept over seeds 1-50.

These are the down-scaled validation runs the determinism guard's
``scale`` digest family and the CI ``smoke (scale)`` job rely on: the
fluid approximation must keep every who-wins relation and stay inside
the documented attainment tolerance tier (docs/SCALE.md).
"""

import pytest

from repro.cluster.calibration import CHAMELEON
from repro.cluster.scenarios import TEST_SCALE
from repro.fluid.validate import (
    TIE_BAND,
    TOLERANCE_TIER,
    build_validation_hierarchy,
    run_equivalence,
    who_wins,
)

#: The committed approximation quality on the pinned seeds.  These are
#: regression pins, not physics: if a deliberate model change moves
#: them, update the values alongside the regenerated scale digests.
PINNED_MAX_ERROR = {11: 0.0033, 23: 0.0618}


@pytest.mark.parametrize("seed", sorted(PINNED_MAX_ERROR))
def test_equivalence_holds_on_pinned_seeds(seed):
    report = run_equivalence(seed)
    assert report["ok"], report
    assert report["who_wins_reversals"] == []
    assert report["max_error"] <= TOLERANCE_TIER
    assert report["max_error"] == pytest.approx(
        PINNED_MAX_ERROR[seed], abs=1e-4
    )
    # The comparison is not vacuous: the two models genuinely differ,
    # and the contended config spreads attainment across classes.
    assert report["max_error"] > 0
    attainments = report["des_attainment"].values()
    assert max(attainments) > min(attainments)
    assert sorted(report["classes"]) == sorted(report["des_attainment"])


#: Seeds of the sweep below that fail today, measured: the worst
#: class, its DES and fluid attainment, the max error, and the class
#: the fluid step gives more than ``clients x C_L`` tokens a period
#: (the DES holds it at C_L = 400).  The fluid step has no per-client
#: cap yet (ROADMAP item 1(b)); none shows a who-wins reversal.
SWEEP_FAILURES = {
    22: "T1/g1 DES 1.363 fluid 1.743 (0.380); T1/g1, T2/g1 over C_L",
    29: "T1/g1 DES 1.321 fluid 1.685 (0.364); T1/g2 over C_L",
    32: "T2/g1 DES 1.702 fluid 2.085 (0.383); T2/g1 over C_L",
    39: "T2/g2 DES 1.099 fluid 1.664 (0.565); T1/g1, T2/g1 over C_L",
    46: "T1/g1 DES 1.307 fluid 1.616 (0.308); T1/g2 over C_L",
}


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, reason=SWEEP_FAILURES[seed]))
    if seed in SWEEP_FAILURES else seed
    for seed in range(1, 51)
])
def test_equivalence_sweep(seed):
    """Seeds 1-50, a fixed contiguous range chosen before any fix:
    no who-wins reversal and every class inside the tolerance tier."""
    report = run_equivalence(seed)
    assert report["who_wins_reversals"] == []
    assert report["max_error"] <= TOLERANCE_TIER, report["max_error"]


def test_equivalence_report_is_deterministic():
    assert run_equivalence(11) == run_equivalence(11)


def test_who_wins_tie_band_and_ordering():
    relations = who_wins({"a": 1.0, "b": 0.95, "c": 0.5})
    assert relations == {"a|b": "=", "a|c": ">", "b|c": ">"}
    # The band is the documented constant.
    edge = who_wins({"a": 1.0, "b": 1.0 - TIE_BAND})
    assert edge == {"a|b": "="}
    past = who_wins({"a": 1.0, "b": 1.0 - TIE_BAND - 0.01})
    assert past == {"a|b": ">"}


def test_validation_hierarchy_keeps_every_client_within_c_l():
    """Every seed builds a hierarchy the DES admits: no leaf client's
    share exceeds C_L (seeds 3, 12, 24, 46, 52, 88, 106, 152, 156,
    162 and 184 once drew a group too large for its one client)."""
    config = TEST_SCALE.config()
    capacity = int(CHAMELEON.system_limit(True) * config.period)
    local = int(CHAMELEON.client_limit(True) * config.period)
    over = {}
    for seed in range(1, 201):
        hierarchy, _demand = build_validation_hierarchy(
            config, capacity, seed
        )
        shares = [share for _tenant, group in hierarchy.groups()
                  for share in group.leaf_reservations()]
        if max(shares) > local:
            over[seed] = max(shares)
    assert over == {}
