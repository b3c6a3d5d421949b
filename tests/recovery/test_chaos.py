"""The seeded recovery chaos scenario: invariants hold, runs are replayable."""

import pytest

from repro.common.errors import ConfigError
from repro.recovery.chaos import CHAOS_SCALE, RECOVERY, chaos_plan


class TestInvariants:
    @pytest.mark.parametrize("seed", RECOVERY.seeds)
    def test_documented_seed_has_zero_violations(self, seed, chaos_run):
        report, _cluster = chaos_run(RECOVERY, seed)
        assert report.ok, report.violations
        # the harness actually exercised the tentpole machinery
        assert report.counters["failovers"] >= 1
        assert report.counters["rejoins"] >= 1
        assert report.counters["puts_acked"] > 0


class TestTokenConservation:
    @pytest.mark.parametrize("seed", RECOVERY.seeds)
    def test_ledger_balances_through_chaos(self, seed, chaos_run):
        report, _cluster = chaos_run(RECOVERY, seed)
        ledger_violations = [v for v in report.violations
                             if v.startswith("token ledger")]
        assert ledger_violations == []
        totals = report.ledger_totals
        # Non-trivial token flow actually passed through the audit.
        assert totals["accounts"] > 0
        assert totals["spent"] > 0
        assert (totals["granted_reservation"] + totals["granted_pool"]
                == totals["spent"] + totals["yielded"] + totals["expired"])


class TestDeterminism:
    def test_same_seed_same_report(self, chaos_run):
        a, _ = chaos_run(RECOVERY, RECOVERY.seeds[0])
        b, _ = chaos_run.fresh(RECOVERY, RECOVERY.seeds[0])
        assert a == b

    def test_same_seed_same_plan(self):
        config = CHAOS_SCALE.config()
        a = chaos_plan(7, config, periods=10, num_clients=4)
        b = chaos_plan(7, config, periods=10, num_clients=4)
        assert a == b

    def test_different_seeds_differ(self):
        config = CHAOS_SCALE.config()
        a = chaos_plan(7, config, periods=10, num_clients=4)
        b = chaos_plan(8, config, periods=10, num_clients=4)
        assert a != b


class TestPlanShape:
    def test_faults_end_before_settle_tail(self):
        config = CHAOS_SCALE.config()
        periods = 10
        plan = chaos_plan(3, config, periods, num_clients=4)
        fault_end = (periods - 3) * config.period
        assert plan.crashes
        for crash in plan.crashes:
            assert crash.end <= fault_end
        for close in plan.qp_closes:
            assert close.time <= fault_end
        for drop in plan.drops:
            assert drop.where.end <= fault_end + config.period

    def test_too_few_periods_rejected(self):
        config = CHAOS_SCALE.config()
        with pytest.raises(ConfigError):
            chaos_plan(1, config, periods=4, num_clients=4)
