"""NIC profile calibration and pipeline routing."""

import pytest

from repro.common.types import OpType
from repro.rdma.nic import NICProfile, RNIC
from repro.rdma.verbs import WorkRequest


@pytest.fixture
def profile():
    return NICProfile.chameleon()


def wr_read_4k(**kwargs):
    return WorkRequest(opcode=OpType.READ, size=4096, **kwargs)


class TestProfileCalibration:
    """The cost constants must encode the paper's Sec. III-B knees."""

    def test_one_sided_issue_cost_gives_400_kiops(self, profile):
        assert profile.issue_cost(wr_read_4k()) == pytest.approx(2.5e-6, rel=1e-3)

    def test_one_sided_target_cost_gives_1570_kiops(self, profile):
        cost = profile.target_cost(wr_read_4k())
        assert 1.0 / cost == pytest.approx(1_570_000, rel=1e-3)

    def test_two_sided_request_cost_gives_327_kiops(self, profile):
        wr = WorkRequest(opcode=OpType.SEND, size=64)
        assert 1.0 / profile.issue_cost(wr) == pytest.approx(327_000, rel=1e-3)

    def test_response_send_is_cheaper_than_request(self, profile):
        request = WorkRequest(opcode=OpType.SEND, size=4096)
        response = WorkRequest(opcode=OpType.SEND, size=4096, is_response=True)
        assert profile.issue_cost(response) < profile.issue_cost(request)

    def test_atomics_are_latency_class(self, profile):
        faa = WorkRequest(opcode=OpType.FETCH_ADD)
        assert profile.issue_cost(faa) <= 2e-6
        assert profile.target_cost(faa) <= 1e-6

    def test_small_write_cheaper_than_4k(self, profile):
        small = WorkRequest(opcode=OpType.WRITE, size=8)
        big = WorkRequest(opcode=OpType.WRITE, size=4096)
        assert profile.issue_cost(small) < profile.issue_cost(big)
        assert profile.target_cost(small) < profile.target_cost(big)

    def test_scaled_profile_multiplies_costs(self):
        base = NICProfile.chameleon()
        slow = NICProfile.chameleon(scale=10)
        assert slow.issue_cost(wr_read_4k()) == pytest.approx(
            10 * base.issue_cost(wr_read_4k())
        )

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            NICProfile.chameleon(scale=0)

    def test_recv_has_no_costs(self, profile):
        recv = WorkRequest(opcode=OpType.RECV)
        with pytest.raises(ValueError):
            profile.issue_cost(recv)
        with pytest.raises(ValueError):
            profile.target_cost(recv)


class TestRNIC:
    def test_issue_serializes(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        t1 = nic.submit_issue(wr_read_4k(), sim.now)
        t2 = nic.submit_issue(wr_read_4k(), sim.now)
        assert t2 == pytest.approx(t1 + 2.5e-6)

    def test_issue_and_target_are_independent_pipelines(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        nic.submit_issue(wr_read_4k(), sim.now)
        done = nic.submit_target(wr_read_4k())
        assert done == pytest.approx(profile.target_cost(wr_read_4k()))

    def test_control_ops_bypass_bulk_queue(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        for _ in range(100):
            nic.submit_target(wr_read_4k())
        faa = WorkRequest(opcode=OpType.FETCH_ADD, control=True)
        done = nic.submit_target(faa)
        assert done == pytest.approx(profile.atomic_target_cost)

    def test_control_ops_tracked_for_overhead(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        faa = WorkRequest(opcode=OpType.FETCH_ADD, control=True)
        nic.submit_target(faa)
        nic.submit_issue(faa, sim.now)
        overhead = nic.control_overhead_fraction(periods=1.0)
        assert overhead["target"] == pytest.approx(profile.atomic_target_cost)
        assert overhead["issue"] == pytest.approx(profile.atomic_issue_cost)

    def test_op_counters(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        nic.submit_issue(wr_read_4k(), sim.now)
        nic.submit_target(wr_read_4k())
        assert nic.issued_ops[OpType.READ] == 1
        assert nic.handled_ops[OpType.READ] == 1

    def test_reset_accounting(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        nic.submit_issue(wr_read_4k(), sim.now)
        nic.reset_accounting()
        assert nic.issued_ops[OpType.READ] == 0
        assert nic.control_issue_cost_total == 0.0

    def test_overhead_requires_positive_periods(self, sim, profile):
        nic = RNIC(sim, "n", profile)
        with pytest.raises(ValueError):
            nic.control_overhead_fraction(periods=0)

    def test_overhead_uses_paper_period_not_dilated(self, sim):
        # Under time dilation K the same per-tick op count runs against a
        # K-times shorter simulated period; the reported fraction must
        # divide by the *paper* period so it stays the deployment-scale
        # number.  The old signature took a ``dilated_period`` argument it
        # silently ignored — it is gone, and passing it must fail loudly.
        k = 100
        nic = RNIC(sim, "n", NICProfile.chameleon(scale=k))
        faa = WorkRequest(opcode=OpType.FETCH_ADD, control=True)
        nic.submit_issue(faa, sim.now)
        overhead = nic.control_overhead_fraction(periods=1.0, paper_period=1.0)
        # One dilated-cost atomic against the 1 s paper period.
        assert overhead["issue"] == pytest.approx(
            k * NICProfile.chameleon().atomic_issue_cost
        )
        # Halving the paper period doubles the capacity share.
        doubled = nic.control_overhead_fraction(periods=1.0, paper_period=0.5)
        assert doubled["issue"] == pytest.approx(2 * overhead["issue"])
        with pytest.raises(TypeError):
            nic.control_overhead_fraction(periods=1.0, dilated_period=0.01)
