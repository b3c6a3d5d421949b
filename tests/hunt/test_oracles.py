"""The unified oracle registry: each check, and registry coverage."""

from repro.core.oracles import (
    ORACLES,
    check_bounded_failover,
    check_ledger_conservation,
    check_no_duplicate_apply,
    check_no_lost_acked_put,
    check_progress,
    check_queue_growth,
    check_reservations_met,
    check_split_conservation,
    kind_to_oracle,
)
from repro.core.violations import Violation


class TestSafetyChecks:
    def test_lost_acked_put(self):
        out = check_no_lost_acked_put([
            ("C1", "C1 key=3", 5, 5),    # durable
            ("C2", "C2 key=8", 4, 2),    # lost
        ])
        assert [v.kind for v in out] == ["lost-acked-put"]
        assert str(out[0]) == "lost acked PUT: C2 key=8 acked v4, durable v2"
        assert out[0].subject == "C2"
        assert (out[0].observed, out[0].expected) == (2, 4)

    def test_duplicate_apply(self):
        out = check_no_duplicate_apply([
            ("primary", "C1", 3, 1, 1),
            ("replica", "C2", 9, 2, 3),
        ])
        assert [v.kind for v in out] == ["duplicate-apply"]
        assert "applied 3x" in str(out[0])

    def test_reservations_met_threshold_and_skips(self):
        out = check_reservations_met([
            ("C1", 95, 100),   # >= 90%: ok
            ("C2", 80, 100),   # unmet
            ("C3", None, 100),  # no samples: skipped
        ])
        assert [v.subject for v in out] == ["C2"]
        assert str(out[0]) == ("reservation unmet after settle: C2 "
                               "completed 80/100 in the final period")

    def test_bounded_failover(self):
        out = check_bounded_failover(
            [("C1", 0.5), ("C2", 3.0)], bound_periods=2, period=1.0,
        )
        assert [v.subject for v in out] == ["C2"]
        assert out[0].kind == "failover-unbounded"

    def test_ledger_checks_tolerate_missing_ledger(self):
        assert check_ledger_conservation(None) == []
        assert check_split_conservation(None) == []

    def test_ledger_checks_wrap_ledger_text(self):
        class FakeLedger:
            def check_conservation(self):
                return ["C1 period 3 off by 2"]

            def check_split_conservation(self):
                return ["epoch 4 sums to 99"]

        ledger = FakeLedger()
        (conservation,) = check_ledger_conservation(ledger)
        assert str(conservation) == "token ledger: C1 period 3 off by 2"
        (split,) = check_split_conservation(ledger)
        assert str(split) == "split ledger: epoch 4 sums to 99"


class TestLivenessChecks:
    def test_progress_stall_on_zero_tail(self):
        out = check_progress([
            ("C1", [5, 5, 0, 0], 100.0),   # stalled
            ("C2", [5, 0, 0, 3], 100.0),   # recovered
            ("C3", [0, 0, 0, 0], 0.0),     # no demand: excused
        ])
        assert [v.subject for v in out] == ["C1"]
        assert out[0].kind == "progress-stall"

    def test_progress_needs_enough_samples(self):
        assert check_progress([("C1", [0], 50.0)]) == []

    def test_queue_growth_bound(self):
        out = check_queue_growth([
            ("C1", 10, 100),
            ("C2", 500, 100),
        ])
        assert [v.subject for v in out] == ["C2"]
        assert (out[0].observed, out[0].expected) == (500, 100)


class TestRegistry:
    def test_every_kind_maps_to_exactly_one_oracle(self):
        seen = {}
        for oracle in ORACLES.values():
            for kind in oracle.kinds:
                assert kind not in seen, f"{kind} owned twice"
                seen[kind] = oracle.name
        for kind, name in seen.items():
            assert kind_to_oracle(kind) == name

    def test_unknown_kind_maps_to_none(self):
        assert kind_to_oracle("gamma-ray-bitflip") is None

    def test_descriptions_present(self):
        for oracle in ORACLES.values():
            assert oracle.description
            assert oracle.kinds


class TestViolationRecords:
    def test_str_with_time_prefix(self):
        v = Violation(kind="limit-exceeded", message="issued 12 over L=10",
                      time=0.25)
        assert str(v) == "t=0.250000: issued 12 over L=10"

    def test_round_trip(self):
        v = Violation(kind="progress-stall", message="stall", time=1.5,
                      subject="C2", observed=0, expected=100)
        assert Violation.from_dict(v.to_dict()) == v
