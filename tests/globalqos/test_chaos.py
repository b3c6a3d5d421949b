"""The coordinator chaos scenarios: every documented seed is clean."""

import pytest

from repro.cluster import chaos
from repro.common.errors import ConfigError
from repro.globalqos.chaos import COORD_CRASH, PARTITION


@pytest.mark.parametrize("seed", COORD_CRASH.seeds)
def test_documented_seed_has_no_violations(seed, chaos_run):
    report, _cluster = chaos_run(COORD_CRASH, seed)
    assert report.ok, report.violations
    # The run actually exercised the ladder, not just a quiet cluster.
    counters = report.counters
    assert counters["fallbacks"] >= 1
    assert counters["rebalances"] >= 2  # pre-crash and post-recovery
    assert counters["epochs_skipped"] >= 1
    assert counters["puts_acked"] > 0
    assert counters["rebinds"] >= 1


def test_chaos_is_deterministic(chaos_run):
    first, _ = chaos_run(COORD_CRASH, COORD_CRASH.seeds[0])
    second, _ = chaos_run.fresh(COORD_CRASH, COORD_CRASH.seeds[0])
    assert first == second


def test_too_short_run_rejected():
    with pytest.raises(ConfigError, match="periods"):
        chaos.run(COORD_CRASH, 11, periods=5)


# ---------------------------------------------------------------------------
# Partition + fail-slow chaos (the HA failover scenario)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", PARTITION.seeds)
def test_partition_seed_has_no_violations(seed, chaos_run):
    report, _cluster = chaos_run(PARTITION, seed)
    assert report.ok, report.violations
    # The failover story actually played out, on every seed:
    # exactly one bounded takeover, at least one step-down, the
    # deposed leader's updates fenced with zero stale applications.
    counters = report.counters
    assert counters["takeovers"] == 1
    assert counters["stepdowns"] >= 1
    assert counters["fenced_updates"] >= 1
    assert counters["stale_rejected"] == 0
    # The gray node went through the full quarantine cycle.
    assert counters["quarantines"] >= 1
    assert counters["unquarantines"] == counters["quarantines"]
    # Both fault families fired.
    assert counters["partitions_cut"] >= 1
    assert counters["slowdowns_applied"] == 1
    assert counters["puts_acked"] > 0


def test_partition_chaos_is_deterministic(chaos_run):
    first, _ = chaos_run(PARTITION, PARTITION.seeds[0])
    second, cluster = chaos_run.fresh(PARTITION, PARTITION.seeds[0])
    assert first == second
    # The HA build's hub records both coordinators' takeovers and
    # step-downs; rebalances and (un)quarantines are ledger events only.
    hub = cluster.sim.telemetry
    summary = hub.records.summary()
    coordinators = (cluster.coordinator, cluster.standby)
    assert summary["globalqos.takeover"] == sum(
        c.takeovers for c in coordinators) == 1
    assert summary["globalqos.stepdown"] == sum(
        c.stepdowns for c in coordinators) >= 1
    assert not [name for name in summary
                if name.startswith("globalqos.")
                and name not in ("globalqos.takeover", "globalqos.stepdown")]
    ledger = {e["event"] for e in hub.ledger.events}
    assert {"rebalance", "quarantine", "unquarantine"} <= ledger


def test_partition_too_short_run_rejected():
    with pytest.raises(ConfigError, match="periods"):
        chaos.run(PARTITION, 11, periods=20)
