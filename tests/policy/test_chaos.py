"""Rolling policy updates under failover chaos: every seed is clean."""

import pytest

from repro.cluster import chaos
from repro.common.errors import ConfigError
from repro.policy.chaos import POLICY_FLIP


@pytest.mark.parametrize("seed", POLICY_FLIP.seeds)
def test_documented_seed_has_no_violations(seed, chaos_run):
    report, _cluster = chaos_run(POLICY_FLIP, seed)
    assert report.ok, report.violations
    # The flip actually rode a failover: exactly one bounded takeover,
    # revision 2 live at run end.
    counters = report.counters
    assert counters["takeovers"] == 1
    assert counters["takeover_epoch"] <= counters["flip_epoch"]
    assert counters["submitted_version"] == 2
    # Exactly-once application per client (8 clients in the skew
    # scenario), with both losing paths observed: the deposed leader's
    # push fenced by term, the acting leader's re-pushes stale-rejected.
    assert counters["policy_applies"] == 8
    assert counters["policy_fenced"] >= 1
    assert counters["policy_stale_rejected"] >= 1
    assert counters["policy_pushes"] > counters["policy_applies"]
    # The data path stayed live throughout.
    assert counters["puts_acked"] > 0
    assert counters["rebalances"] >= 2


def test_policy_chaos_is_deterministic(chaos_run):
    first, _ = chaos_run(POLICY_FLIP, POLICY_FLIP.seeds[0])
    second, _ = chaos_run.fresh(POLICY_FLIP, POLICY_FLIP.seeds[0])
    assert first == second


def test_too_short_run_rejected():
    with pytest.raises(ConfigError, match="periods"):
        chaos.run(POLICY_FLIP, 11, periods=20)
