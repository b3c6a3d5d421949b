"""Client failover: detection, in-place healing, and re-registration."""

import math

from repro.cluster.experiment import attach_app
from repro.faults import CrashWindow, FaultPlan, QPCloseFault
from repro.recovery import build_replicated_cluster
from repro.recovery.chaos import CHAOS_SCALE
from repro.recovery.failover import FailoverState
from repro.workloads.patterns import RequestPattern

from tests.conftest import cluster_registry

RES = [60_000.0, 60_000.0]


def make_cluster(with_apps=True, **kwargs):
    cluster = build_replicated_cluster(
        num_clients=2,
        reservations_ops=list(RES),
        scale=CHAOS_SCALE,
        **kwargs,
    )
    if with_apps:
        for i, ctx in enumerate(cluster.clients):
            attach_app(cluster, ctx, RequestPattern.BURST,
                       demand_ops=RES[i], window=None)
    return cluster


def run(cluster, periods):
    cluster.start()
    cluster.sim.run(until=periods * cluster.config.period)


class TestTransientQPLoss:
    def test_qp_close_heals_in_place(self):
        cluster = make_cluster()
        T = cluster.config.period
        cluster.inject_faults(FaultPlan(
            qp_closes=(QPCloseFault("C1", "server", 1.5 * T),),
            drop_fail_after=cluster.config.check_interval,
        ))
        run(cluster, 6)
        manager = cluster.clients[0].failover
        # the probe reopened the QP and stayed on the primary
        assert manager.reconnect_attempts >= 1
        assert manager.state is FailoverState.CONNECTED
        assert manager.failovers == 0
        counts = cluster.metrics.clients["C1"].period_counts
        assert counts[-1] >= 0.9 * manager.granted_reservation


class TestPrimaryCrashFailover:
    def test_crash_drives_failover_to_replica(self):
        cluster = make_cluster()
        T = cluster.config.period
        cluster.inject_faults(FaultPlan(
            crashes=(CrashWindow("server", 1.2 * T, math.inf),),
            drop_fail_after=cluster.config.check_interval,
        ))
        run(cluster, 8)
        bound = cluster.recovery.failover_bound_periods * T
        for ctx in cluster.clients:
            manager = ctx.failover
            assert manager.state is FailoverState.FAILED_OVER
            assert manager.suspect_transitions >= 1
            assert manager.failovers == 1
            assert manager.rejoins_completed == 1
            assert manager.kv is ctx.kv_replica
            assert ctx.engine.re_registrations == 1
            assert manager.last_failover_duration <= bound
            # one-sided I/O resumed against the replica: the final
            # period's completions meet the (re-granted) reservation
            counts = cluster.metrics.clients[ctx.name].period_counts
            assert counts[-1] >= 0.9 * manager.granted_reservation
        assert len(cluster.replica_monitor.rejoins) == 2

    def test_summary_reports_the_failover(self):
        cluster = make_cluster()
        T = cluster.config.period
        cluster.inject_faults(FaultPlan(
            crashes=(CrashWindow("server", 1.2 * T, math.inf),),
            drop_fail_after=cluster.config.check_interval,
        ))
        run(cluster, 8)
        registry = cluster_registry(cluster)
        for name in ("C1", "C2"):
            assert registry.value("failover_failovers", client=name) == 1
            assert registry.value("engine_re_registrations", client=name) == 1
            assert registry.value("failover_rejoins_completed",
                                  client=name) == 1
            assert registry.value("failover_windows", client=name) == 1
        assert registry.value("monitor_rejoins",
                              node=cluster.replica_host.name) == 2
        for ctx in cluster.clients:
            assert ctx.failover.state is FailoverState.FAILED_OVER


class TestStaleControlEpoch:
    def test_restarted_primary_messages_are_dropped(self):
        cluster = make_cluster()
        T = cluster.config.period
        # finite window: clients fail over mid-crash, then the primary
        # comes back, reinitializes, and keeps sending period starts --
        # all of which land in the dead source-0 epoch
        cluster.inject_faults(FaultPlan(
            crashes=(CrashWindow("server", 1.2 * T, 2.4 * T),),
            drop_fail_after=cluster.config.check_interval,
        ))
        run(cluster, 8)
        assert cluster.monitor.reinitializations == 1
        for ctx in cluster.clients:
            assert ctx.failover.state is FailoverState.FAILED_OVER
            assert ctx.engine.stale_control_messages >= 1
            # still healthy on the replica after the primary returned
            counts = cluster.metrics.clients[ctx.name].period_counts
            assert counts[-1] >= 0.9 * ctx.failover.granted_reservation


class TestRejoinPostSwallows:
    def test_failed_rejoin_post_is_counted_and_retried(self):
        from repro.common.errors import QPError

        cluster = make_cluster(with_apps=False)
        cluster.start()
        cluster.sim.run(until=cluster.config.period * 0.25)
        manager = cluster.clients[0].failover
        # Make every rejoin post fail at the QP layer: the manager must
        # count the swallow and keep retransmitting on its deadline.
        def refuse(wr):
            raise QPError("injected: replica QP refuses posts")

        manager.kv_replica.qp.post_send = refuse
        manager._start_failover()
        cluster.sim.run(
            until=cluster.sim.now
            + manager.recovery.rejoin_deadline
            * (manager.recovery.rejoin_attempts + 1)
        )
        assert manager.rejoin_post_qp_errors == manager.recovery.rejoin_attempts
        assert manager.rejoin_requests_sent == manager.recovery.rejoin_attempts
        assert manager.state is FailoverState.FAILED


class TestRejoinReconciliation:
    def test_oversized_reservation_is_clamped(self):
        cluster = make_cluster(with_apps=False)
        cluster.start()
        cluster.sim.run(until=cluster.config.period * 0.25)
        monitor = cluster.replica_monitor
        qp = cluster.clients[0].kv_replica.qp.reverse
        grant = monitor.rejoin_client(0, 10**12, qp)
        assert grant is not None
        assert grant["reservation"] < 10**12
        assert monitor.rejoin_clamped == 1
        # idempotent: a retransmitted request gets the same slot/grant
        again = monitor.rejoin_client(0, 10**12, qp)
        assert again["reservation"] == grant["reservation"]
        assert again["layout"] == grant["layout"]
        assert monitor.rejoin_clamped == 1

    def test_rejoin_grant_is_pro_rated(self):
        cluster = make_cluster(with_apps=False)
        cluster.start()
        # rejoin three quarters of the way through a period
        cluster.sim.run(until=cluster.config.period * 0.75)
        monitor = cluster.replica_monitor
        qp = cluster.clients[0].kv_replica.qp.reverse
        reservation = cluster.clients[0].failover.reservation
        grant = monitor.rejoin_client(0, reservation, qp)
        assert grant is not None
        assert grant["reservation"] == reservation
        assert 0 < grant["tokens_now"] <= int(reservation * 0.26)
