"""Client QoS engine behaviour."""

from collections import Counter

import pytest

from repro.common.errors import QoSError
from repro.core.engine import QoSEngine
from repro.rdma.atomics import to_signed64, unpack_report
from repro.rdma.cc import FabricModel
from repro.telemetry import TelemetryConfig, attach_telemetry

from tests.core.conftest import SCALE, make_qos_cluster


def drain(cluster, periods=1.0):
    cluster.sim.run(until=cluster.sim.now + periods * cluster.config.period)


def submit_n(engine, n, sink=None):
    for key in range(n):
        engine.submit(key % 16, sink or (lambda ok, v, l: None))


class TestPeriodStart:
    def test_tokens_granted_at_period_start(self, qos2):
        drain(qos2, 0.03)  # PeriodStart delivered, one mgmt tick at most
        engine = qos2.clients[0].engine
        assert engine.period_id == 1
        # 300K ops/s at 1 ms periods = 300 tokens (minus at most one
        # management-tick decay, since the client has no demand yet)
        assert 294 <= engine.tokens.xi_res <= 300

    def test_counters_reset_each_period(self, qos2):
        engine = qos2.clients[0].engine
        drain(qos2, 0.1)
        submit_n(engine, 5)
        drain(qos2, 1.0)
        assert engine.period_id == 2
        assert engine.issued_this_period == 0
        assert engine.completed_this_period == 0


class TestDataAccessGate:
    def test_submit_with_tokens_issues_immediately(self, qos2):
        drain(qos2, 0.03)
        engine = qos2.clients[0].engine
        before = engine.tokens.xi_res
        submit_n(engine, 10)
        assert engine.issued_this_period == 10
        assert engine.tokens.xi_res == before - 10
        assert engine.queue_depth == 0

    def test_completions_counted(self, qos2):
        drain(qos2, 0.1)
        engine = qos2.clients[0].engine
        done = []
        submit_n(engine, 10, lambda ok, v, l: done.append(ok))
        drain(qos2, 0.3)
        assert done == [True] * 10
        assert engine.completed_this_period == 10

    def test_submit_before_first_period_queues(self):
        cluster = make_qos_cluster([100_000])
        engine = cluster.clients[0].engine
        submit_n(engine, 5)
        assert engine.queue_depth == 5
        assert engine.issued_this_period == 0
        cluster.start()
        drain(cluster, 0.2)
        assert engine.queue_depth == 0

    def test_exhausted_reservation_falls_back_to_pool(self, qos2):
        drain(qos2, 0.03)
        engine = qos2.clients[0].engine
        submit_n(engine, 400)  # reservation is only 300
        drain(qos2, 0.9)
        assert engine.faa_issued >= 1
        assert engine.faa_granted_tokens >= 100
        assert engine.issued_this_period == 400

    def test_runaway_client_blocks_at_engine(self):
        """Isolation: a client with a tiny reservation and an empty pool
        cannot push I/Os past its tokens."""
        cluster = make_qos_cluster([100_000, 100_000])
        # shrink the estimator so there is no unreserved capacity at all
        cluster.monitor.estimator._current = float(
            cluster.config.tokens_per_period(200_000)
        )
        cluster.start()
        drain(cluster, 0.03)
        engine = cluster.clients[0].engine
        submit_n(engine, 1000)
        drain(cluster, 0.5)
        # bounded by the system's total tokens (its reservation plus
        # whatever the idle peer yielded), never by its own demand
        assert engine.issued_this_period <= 220
        assert engine.queue_depth >= 750


class TestLimits:
    def test_limit_throttles_within_period(self):
        cluster = make_qos_cluster([100_000, 100_000],
                                   limits_ops=[150_000, None])
        cluster.start()
        drain(cluster, 0.1)
        engine = cluster.clients[0].engine
        submit_n(engine, 500)
        drain(cluster, 0.5)
        assert engine.issued_this_period == 150  # L_i = 150 tokens
        assert engine.queue_depth == 350

    def test_limit_resets_next_period(self):
        cluster = make_qos_cluster([100_000, 100_000],
                                   limits_ops=[150_000, None])
        cluster.start()
        drain(cluster, 0.1)
        engine = cluster.clients[0].engine
        submit_n(engine, 400)
        drain(cluster, 1.0)  # into period 2
        assert engine.total_submitted == 400
        assert engine.issued_this_period >= 100

    def test_limit_below_reservation_rejected(self, qos2):
        client = qos2.clients[0]
        with pytest.raises(QoSError):
            QoSEngine(
                client_id=9,
                kv=client.kv,
                layout=client.engine.layout,
                config=qos2.config,
                reservation=100,
                limit=50,
            )


class TestReporting:
    def test_reporting_inactive_until_signalled(self, qos2):
        drain(qos2, 0.1)
        engine = qos2.clients[0].engine
        submit_n(engine, 10)  # within reservation: no pool touch
        drain(qos2, 0.5)
        assert engine.reports_written <= 2  # only final reports

    def test_pool_use_triggers_reporting(self, qos2):
        drain(qos2, 0.1)
        engine = qos2.clients[1].engine  # reservation 100
        submit_n(engine, 300)
        drain(qos2, 0.6)
        assert engine.reports_written > 3

    def test_report_word_contains_obligations_and_completions(self, qos2):
        drain(qos2, 0.03)
        engine = qos2.clients[1].engine
        submit_n(engine, 300)
        drain(qos2, 0.6)
        word = qos2.server_host.memory.backing.read_u64(
            engine.layout.report_live_addr
        )
        residual, completed = unpack_report(word)
        # the live word lags by at most one reporting tick
        assert 0 <= engine.completed_this_period - completed <= 25
        assert residual <= 300

    def test_final_report_written_every_period(self, qos2):
        drain(qos2, 0.03)
        engine = qos2.clients[0].engine
        submit_n(engine, 50)
        drain(qos2, 0.95)  # after the final write, before the next period
        word = qos2.server_host.memory.backing.read_u64(
            engine.layout.report_final_addr
        )
        _residual, completed = unpack_report(word)
        assert completed == 50


class TestTokenObligations:
    def test_obligations_cover_holdings_and_inflight(self, qos2):
        drain(qos2, 0.03)
        engine = qos2.clients[0].engine
        held = engine.tokens.xi_res
        submit_n(engine, 20)
        assert engine.inflight_tokened == 20
        # unspent tokens plus in-flight I/Os, nothing double counted
        assert engine.token_obligations == held
        drain(qos2, 0.4)
        assert engine.inflight_tokened == 0
        assert engine.token_obligations == engine.tokens.residual


class TestGlobalPool:
    def test_faa_decrements_pool_word(self, qos2):
        drain(qos2, 0.03)
        pool_before = to_signed64(
            qos2.server_host.memory.backing.read_u64(qos2.monitor.pool_addr)
        )
        engine = qos2.clients[1].engine
        submit_n(engine, 150)  # 100 reservation + 50 from the pool
        qos2.sim.run(until=qos2.sim.now + 5 * qos2.config.check_interval)
        pool_after = to_signed64(
            qos2.server_host.memory.backing.read_u64(qos2.monitor.pool_addr)
        )
        assert pool_after < pool_before

    def test_batched_fetch_respects_batch_size(self, qos2):
        drain(qos2, 0.03)
        engine = qos2.clients[1].engine
        submit_n(engine, 101)  # needs just 1 pool token, fetches a batch
        drain(qos2, 0.2)
        assert engine.faa_issued >= 1
        assert engine.faa_granted_tokens >= 1
        # unspent local tokens never exceed one batch
        assert engine.tokens.local_global <= qos2.config.batch_size


class TestLimitTelemetry:
    def test_throttle_events_counted_once_per_period(self):
        cluster = make_qos_cluster([100_000, 100_000],
                                   limits_ops=[150_000, None])
        cluster.start()
        drain(cluster, 0.1)
        engine = cluster.clients[0].engine
        submit_n(engine, 500)
        drain(cluster, 2.0)  # throttles across multiple periods
        assert engine.limit_throttle_events >= 2

    def test_no_throttle_events_below_limit(self):
        cluster = make_qos_cluster([100_000, 100_000],
                                   limits_ops=[150_000, None])
        cluster.start()
        drain(cluster, 0.1)
        engine = cluster.clients[0].engine
        submit_n(engine, 50)
        drain(cluster, 1.0)
        assert engine.limit_throttle_events == 0


class TestControlPlaneHardening:
    """Backoff, deadlines, failure/pool-empty split, degraded mode."""

    def sabotage(self, engine):
        """Make every FAA fail remotely (bad pool rkey)."""
        from repro.core.protocol import ControlLayout

        good = engine.layout
        engine.layout = ControlLayout(
            rkey=0xDEAD,
            pool_addr=good.pool_addr,
            report_live_addr=good.report_live_addr,
            report_final_addr=good.report_final_addr,
        )
        return good

    def test_pool_empty_not_counted_as_failure(self):
        cluster = make_qos_cluster([100_000, 100_000])
        cluster.monitor.estimator._current = float(
            cluster.config.tokens_per_period(200_000)
        )
        cluster.start()
        drain(cluster, 0.03)
        engine = cluster.clients[0].engine
        submit_n(engine, 1000)  # far beyond reservation; pool is empty
        drain(cluster, 0.5)
        assert engine.faa_pool_empty >= 1
        assert engine.faa_failures == 0

    def test_transport_failures_back_off(self):
        cluster = make_qos_cluster([100_000, 100_000])
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        self.sabotage(engine)
        submit_n(engine, 300)
        drain(cluster, 1.0)
        # 50 retry ticks fit in the period; exponential backoff (cap 16
        # ticks) must have slowed the retry train well below that
        assert 1 <= engine.faa_failures <= 20
        assert engine._retry_attempt >= 3

    def test_backoff_resets_after_success(self):
        cluster = make_qos_cluster([100_000, 100_000])
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        good = self.sabotage(engine)
        submit_n(engine, 300)
        drain(cluster, 0.4)
        assert engine._retry_attempt >= 2
        engine.layout = good
        drain(cluster, 0.5)  # still inside the same period
        assert engine._retry_attempt == 0
        assert engine.issued_this_period > 100

    def test_backoff_jitter_is_deterministic(self):
        def failures():
            cluster = make_qos_cluster([100_000, 100_000])
            cluster.start()
            drain(cluster, 0.02)
            engine = cluster.clients[0].engine
            self.sabotage(engine)
            submit_n(engine, 300)
            drain(cluster, 1.0)
            return engine.faa_failures, engine._retry_attempt

        assert failures() == failures()

    def test_deadline_times_out_a_swallowed_faa(self):
        cluster = make_qos_cluster([100_000, 100_000])
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        real_post = engine.kv.qp.post_send
        swallowed = []

        def swallow(wr):
            from repro.common.types import OpType

            if wr.opcode is OpType.FETCH_ADD:
                # posted but no completion will ever come
                swallowed.append(wr)
                return 999_999 + len(swallowed)
            return real_post(wr)

        engine.kv.qp.post_send = swallow
        submit_n(engine, 300)
        drain(cluster, 0.5)
        assert engine.faa_timeouts >= 1
        assert engine.faa_failures >= engine.faa_timeouts
        engine.kv.qp.post_send = real_post
        drain(cluster, 1.0)
        assert engine.issued_this_period > 100  # recovered

    def test_degraded_mode_entered_and_recovered(self):
        # leases off: the sabotaged rkey also kills report WRITEs, and
        # this test wants the engine's recovery, not the monitor's
        # eviction (their interplay is tested in integration)
        cluster = make_qos_cluster(
            [100_000, 100_000],
            config=SCALE.config(degraded_after=2, lease_periods=0),
        )
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        good = self.sabotage(engine)
        submit_n(engine, 2000)
        drain(cluster, 4.0)  # 2 consecutive failed periods -> degraded
        assert engine.degraded
        assert engine.degraded_entries == 1
        # local-only: reservation still served every period
        assert engine.issued_this_period >= 90
        failures_while_degraded = engine.faa_failures
        drain(cluster, 1.0)
        # degraded engines probe instead of hammering the pool
        assert engine.probes_issued >= 1
        engine.layout = good
        drain(cluster, 2.0)
        assert not engine.degraded
        assert engine.degraded_recoveries == 1
        assert engine.issued_this_period > 100  # pool fetches resumed

    def test_degraded_zero_disables(self):
        cluster = make_qos_cluster(
            [100_000, 100_000],
            config=SCALE.config(degraded_after=0),
        )
        cluster.start()
        drain(cluster, 0.02)
        engine = cluster.clients[0].engine
        self.sabotage(engine)
        submit_n(engine, 2000)
        drain(cluster, 6.0)
        assert not engine.degraded
        assert engine.degraded_entries == 0


FABRIC_MODELS = [None, FabricModel.chameleon()]


class TestOneDrain:
    """The drain takes the same token/limit/FAA decisions whether the QP
    carries a fabric model (chained post) or not (post as dequeued)."""

    def decisions(self, fabric_model, estimate_ops, limit_ops, burst):
        """Per-period (issued, throttle events, FAAs, queue depth) of one
        active client: five single submits, then a burst."""
        cluster = make_qos_cluster(
            [100_000, 100_000], limits_ops=[limit_ops, None],
            fabric_model=fabric_model,
        )
        if estimate_ops is not None:
            cluster.monitor.estimator._current = float(
                cluster.config.tokens_per_period(estimate_ops)
            )
        cluster.start()
        engine = cluster.clients[0].engine
        rows = []
        for _ in range(2):
            drain(cluster, 0.05)
            submit_n(engine, 5)
            engine.submit_burst(burst, lambda: 3, lambda ok, v, l: None)
            drain(cluster, 0.9)
            rows.append((engine.issued_this_period,
                         engine.limit_throttle_events,
                         engine.faa_issued, engine.queue_depth))
            drain(cluster, 0.05)
        return rows

    def test_limit_binds_identically(self):
        plain, modeled = (
            self.decisions(m, None, 150_000, 200) for m in FABRIC_MODELS
        )
        assert plain == modeled
        # L_i = 150 tokens: 100 reserved + 50 single-token pool FAAs
        # (plus the retries that found the pool momentarily empty).
        assert [row[0] for row in plain] == [150, 150]
        assert [row[1] for row in plain] == [1, 2]
        assert [row[3] for row in plain] == [55, 110]

    def test_pool_runs_dry_identically(self):
        plain, modeled = (
            self.decisions(m, 230_000, None, 600) for m in FABRIC_MODELS
        )
        assert plain == modeled
        issued, throttled, faas, queued = plain[0]
        assert throttled == 0 and queued > 0  # starved, not limited
        assert 100 < issued < 605 and faas > issued - 100

    @pytest.mark.parametrize("fabric_model", FABRIC_MODELS,
                             ids=["plain", "fabric-model"])
    def test_closed_qp_fails_every_op_exactly_once(self, fabric_model):
        cluster = make_qos_cluster([300_000, 100_000],
                                   fabric_model=fabric_model)
        hub = attach_telemetry(cluster, TelemetryConfig(sample_every=1))
        cluster.start()
        drain(cluster, 0.03)
        engine = cluster.clients[0].engine
        engine.kv.qp.close()
        fired = Counter()
        for i in range(3):
            engine.submit(i, lambda ok, v, l, i=i: fired.update([(i, ok)]))
        engine.submit_burst(
            7, lambda: 9, lambda ok, v, l: fired.update([("burst", ok)]))
        assert engine.inflight_tokened == 10 and not fired  # async failure
        drain(cluster, 0.1)
        assert fired == {(0, False): 1, (1, False): 1, (2, False): 1,
                         ("burst", False): 7}
        assert engine.inflight_tokened == 0
        assert engine.queue_depth == 0
        reads = [s for s in hub.spans if s.kind == "onesided_read"]
        assert len(reads) == 10
        assert all(s.finished and not s.ok for s in reads)

    def test_chain_over_max_outstanding_is_all_or_nothing(self):
        """A chain that does not fit must admit nothing: the engine
        fails every WR it handed over, so a posted prefix would complete
        twice (and drive ``inflight_tokened`` negative)."""
        cluster = make_qos_cluster([300_000, 300_000],
                                   fabric_model=FabricModel.chameleon())
        qp = cluster.clients[0].kv.qp
        qp.max_outstanding = 4
        cluster.start()
        drain(cluster, 0.01)
        engine = cluster.clients[0].engine
        results = []
        engine.submit_burst(8, lambda: 1,
                            lambda ok, v, l: results.append(ok))
        assert qp.outstanding == 0  # nothing was admitted
        drain(cluster, 0.5)
        assert results == [False] * 8  # each callback exactly once
        assert engine.inflight_tokened == 0
        assert qp.outstanding == 0 and qp.fab.sq.in_use == 0
        drain(cluster, 1.0)  # report ticks pack a non-negative residual


class TestControlSource:
    def test_a_message_from_an_inactive_source_is_dropped_and_counted(self):
        """A binding honours its source only while it is the active one:
        the standby source's messages, and every source's while the
        engine is suspended, are dropped and counted stale."""
        from repro.core.protocol import ReservationAlert
        from repro.rdma.dispatch import TypeDispatcher

        cluster = make_qos_cluster([100_000])
        ctx = cluster.clients[0]
        engine = ctx.engine
        standby = TypeDispatcher()
        engine.bind_control_source(standby, 1)
        alert = ReservationAlert(period_id=0, consecutive_underuse=3)

        standby(alert, None)
        assert (engine.alerts_received, engine.stale_control_messages) == (
            0, 1)
        ctx.dispatcher(alert, None)
        assert (engine.alerts_received, engine.stale_control_messages) == (
            1, 1)
        engine.suspend()
        ctx.dispatcher(alert, None)
        standby(alert, None)
        assert (engine.alerts_received, engine.stale_control_messages) == (
            1, 3)
