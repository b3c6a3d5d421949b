"""Lazy live reports against the timer-form reference.

``QoSEngine`` schedules no reporting tick and posts no report WRITE
event: each due tick is materialized at the engine's next settle point,
and the word lands in the monitor's memory when something that can tell
settles after its landing instant (see the Reporting notes in
``repro.core.engine``).  ``EagerReportEngine`` keeps the timer form.
The two must agree on everything the monitor and the counters see.

One thing is summed in a different order: the server NIC's
``control_target_cost_total`` adds every landing's cost, across
clients, in settle order rather than arrival order, so it is compared
with ``math.isclose(rel_tol=1e-12)`` (on ``des_1k_clients`` at seed 11
the two forms give 0.03436371118408814 and 0.03436371118408821).
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.common.types import QoSMode
from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import qos_cluster
from repro.core.engine import QoSEngine
from repro.core.protocol import ReportRequest
from repro.faults.plan import FaultPlan
from repro.rdma.atomics import unpack_report
from repro.telemetry import TelemetryConfig, attach_telemetry

from tests.core.conftest import SCALE, make_qos_cluster
from tests.core.reference_engine import eager_report_engines


def build(eager, reservations, demands, **kwargs):
    if eager:
        with eager_report_engines():
            return qos_cluster(reservations, demands, scale=SCALE, **kwargs)
    return qos_cluster(reservations, demands, scale=SCALE, **kwargs)


def record_sweeps(cluster):
    """Every report word the monitor's sweeps read: the live and final
    word of each slot right after each check and each period end."""
    monitor = cluster.monitor
    memory = monitor.host.memory.backing
    seen = []

    def wrap(name):
        method = getattr(monitor, name)

        def recorded():
            method()
            seen.append((name, cluster.sim.now, [
                (slot.client_id,
                 memory.read_u64(slot.layout.report_live_addr),
                 memory.read_u64(slot.layout.report_final_addr))
                for slot in monitor._clients.values()
            ]))
        setattr(monitor, name, recorded)

    wrap("_check_interval")
    wrap("_end_period")
    return seen


def observe(eager, spec):
    reservations, factors, window, conversion, periods, updates = spec
    demands = [r * f for r, f in zip(reservations, factors)]
    mode = QoSMode.HAECHI if conversion else QoSMode.BASIC_HAECHI
    cluster = build(eager, reservations, demands, window=window,
                    qos_mode=mode)
    sweeps = record_sweeps(cluster)
    sim = cluster.sim
    period = cluster.config.period
    monitor = cluster.monitor

    def resize(index, reservation, rebind):
        grant = monitor.update_reservation(index, reservation)
        if rebind:  # the global coordinator's apply path
            engine = cluster.clients[index].engine
            engine.rebind(engine.kv, engine.layout, grant["reservation"],
                          grant["tokens_now"], grant["period_id"],
                          grant["period_end_time"], grant["generation"], 0)

    for at, index, reservation, rebind in updates:
        if index < len(reservations):
            sim.schedule_at(at * period, resize, index, reservation, rebind)
    result = run_experiment(cluster, warmup_periods=0,
                            measure_periods=periods)
    server = cluster.server_host.nic
    return {
        "sweeps": sweeps,
        "pool_history": monitor.pool_history,
        "period_records": monitor.period_records,
        "estimator": list(monitor.estimator.history),
        "counts": result.client_period_counts,
        "engines": [(ctx.engine.total_completed, ctx.engine.reports_written,
                     ctx.engine.reports_failed, ctx.engine.faa_issued)
                    for ctx in cluster.clients],
        "client_nics": [(ctx.host.nic._issued_counts,
                         ctx.host.nic._handled_counts,
                         ctx.host.nic.control_issue_cost_total,
                         ctx.host.nic.control_target_cost_total)
                        for ctx in cluster.clients],
        "server_nic": (server._issued_counts, server._handled_counts,
                       server.control_issue_cost_total),
        "server_target_cost": server.control_target_cost_total,
        "outstanding": [ctx.kv.qp.outstanding for ctx in cluster.clients],
    }


clusters = st.tuples(
    st.lists(st.sampled_from([20_000, 60_000, 100_000, 200_000]),
             min_size=1, max_size=6),                    # reservations
    st.lists(st.sampled_from([0.3, 1.0, 1.6, 3.0]), min_size=6,
             max_size=6),                                # demand / reservation
    st.sampled_from([None, None, 8, 64]),                # None = token-paced
    st.booleans(),                                       # token conversion
    st.integers(2, 4),                                   # periods
    st.lists(st.tuples(st.floats(0.05, 1.95),            # when, in periods
                       st.integers(0, 5),                # which client
                       st.sampled_from([10, 80, 150]),   # tokens/period
                       st.booleans()),                   # rebind the engine
             max_size=3),
)


@given(spec=clusters)
# Client 5 is rebound at a period start while its poll chain and client
# 1's share a time grid (see test_lazy_polls' rebind race).
@example(spec=([200_000, 100_000, 60_000, 200_000, 200_000, 100_000],
               [1.6, 3.0, 1.6, 1.6, 1.6, 3.0], None, False, 4,
               [(1.0, 5, 10, True)]))
@settings(max_examples=25, deadline=None)
def test_lazy_reports_match_the_timer_form(spec):
    assume(sum(spec[0]) <= 1_300_000)
    lazy = observe(False, spec)
    eager = observe(True, spec)
    lazy_cost = lazy.pop("server_target_cost")
    eager_cost = eager.pop("server_target_cost")
    assert lazy == eager
    assert math.isclose(lazy_cost, eager_cost, rel_tol=1e-12)


# ----------------------------------------------------------------------
# The monitor writing a slot while a report word is on the wire
# ----------------------------------------------------------------------
class Race:
    """Client 0 stays inside its reservation, so the monitor never asks
    for reports; the test starts client 0's chain itself, phased so a
    tick falls just before a chosen instant.  ``flight`` is a report's
    post-to-landing time, up to the WRITE's few per-byte nanoseconds."""

    def __init__(self, eager):
        if eager:
            with eager_report_engines():
                self.cluster = make_qos_cluster([200_000, 100_000])
        else:
            self.cluster = make_qos_cluster([200_000, 100_000])
        self.cluster.start()
        self.sim = self.cluster.sim
        self.engine = self.cluster.clients[0].engine
        self.monitor = self.cluster.monitor
        self.period = self.cluster.config.period
        self.interval = self.cluster.config.report_interval
        qp = self.engine.kv.qp
        self.flight = qp.src.nic.profile.onesided_issue_base + qp.prop_delay
        self.sim.run(until=0.01 * self.period)
        for key in range(20):
            self.engine.submit(key, lambda ok, v, l: None)

    def start_chain(self, at):
        self.sim.schedule_at(at, lambda: self.engine._on_report_request(
            ReportRequest(period_id=self.engine.period_id), None))

    def live_word(self):
        """The live word as the monitor would read it now."""
        self.monitor._settle()
        return self.monitor.host.memory.backing.read_u64(
            self.engine.layout.report_live_addr)


def race_update(eager, lead):
    """A resize written ``lead`` flight times after a tick's post."""
    race = Race(eager)
    tick = 0.3 * race.period
    race.start_chain(tick)
    write_at = tick + lead * race.flight
    race.sim.schedule_at(write_at, race.monitor.update_reservation, 0, 50)
    race.sim.run(until=write_at)
    just_after = race.live_word()
    race.sim.run(until=write_at + 2 * race.flight)
    return just_after, race.live_word(), race.engine.reports_written


def race_boundary(eager, lead):
    """A tick posted ``lead`` flight times before the period boundary's
    live-word reset."""
    race = Race(eager)
    boundary = race.period
    race.start_chain(boundary - lead * race.flight - 20 * race.interval)
    race.sim.run(until=boundary + 0.1 * race.flight)
    just_after = race.live_word()
    race.sim.run(until=boundary + 2 * race.flight)
    return just_after, race.live_word(), race.engine.reports_written


def test_a_word_landing_after_a_monitor_write_overwrites_it():
    for race in (race_update, race_boundary):
        lazy, eager = race(False, 0.5), race(True, 0.5)
        assert lazy == eager, race.__name__
        reset, landed, _written = lazy
        assert unpack_report(reset)[1] == 0, race.__name__
        assert unpack_report(landed)[1] == 20, race.__name__


def test_a_tick_between_the_boundary_and_period_start_reports_the_old_period():
    """The monitor has reset the slot; the engine has not yet heard of
    the new period, so its tick still posts the old period's word."""
    lazy, eager = race_boundary(False, -0.5), race_boundary(True, -0.5)
    assert lazy == eager
    reset, landed, _written = lazy
    assert unpack_report(reset)[1] == 0
    assert unpack_report(landed)[1] == 20


def test_a_word_landing_before_a_monitor_write_is_overwritten():
    for race in (race_update, race_boundary):
        lazy, eager = race(False, 3.0), race(True, 3.0)
        assert lazy == eager, race.__name__
        reset, later, _written = lazy
        assert reset == later, race.__name__  # nothing landed after it
        assert unpack_report(reset)[1] == 0, race.__name__


# ----------------------------------------------------------------------
# The tie rule: a step due exactly when the monitor looks
# ----------------------------------------------------------------------
CHAIN_AT = 0.3  # in periods


def seen_at(eager, at, armed_at):
    """Client 0's live word, outstanding WRs and reports written as the
    monitor sees them at ``at`` (from an event scheduled at
    ``armed_at``) and two flight times later, with a report chain
    started at ``CHAIN_AT``."""
    race = Race(eager)
    race.start_chain(CHAIN_AT * race.period)

    def look():
        return (race.live_word(), race.engine.kv.qp.outstanding,
                race.engine.reports_written)
    seen = []
    race.sim.schedule_at(armed_at, lambda: race.sim.schedule_at(
        at, lambda: seen.append(look())))
    race.sim.run(until=at + 2 * race.flight)
    return seen + [look()]


def test_a_wire_step_due_at_an_observation_runs_after_it():
    """The observer's event was scheduled before the WRITE was posted,
    so a word landing exactly when the monitor looks is not there yet:
    a landing due exactly at a settle instant waits for a later one."""
    race = Race(False)
    landed = []
    land = race.engine._land_report

    def spy(at, posted):
        landed.append(at)
        land(at, posted)
    race.engine._land_report = spy
    race.start_chain(CHAIN_AT * race.period)
    race.sim.run(until=CHAIN_AT * race.period + 2 * race.flight)
    race.engine.settle()
    armed_at = CHAIN_AT * race.period / 2  # before the post
    lazy = seen_at(False, landed[0], armed_at)
    eager = seen_at(True, landed[0], armed_at)
    assert lazy == eager
    before, after = eager
    assert before[0] != after[0] and before[1] == after[1] + 1


def test_a_timer_step_due_at_an_observation_runs_before_it():
    """A tick's event was scheduled one report interval ahead, so an
    observer scheduled later for the same instant finds the tick's WRITE
    posted: a tick due exactly at a settle instant runs in that settle."""
    race = Race(False)
    tick = CHAIN_AT * race.period
    for _ in range(3):
        tick += race.interval  # the chain's own float arithmetic
    armed_at = tick - race.interval / 2
    lazy = seen_at(False, tick, armed_at)
    eager = seen_at(True, tick, armed_at)
    assert lazy == eager
    assert eager[0][2] == 4  # the fourth tick's post is seen at its instant


# ----------------------------------------------------------------------
# The one predicate
# ----------------------------------------------------------------------
def reporting_ticks(monkeypatch, configure=None):
    """``_reporting_tick`` events run by a cell whose clients use the
    pool every period (so reporting is on), and its report count."""
    ran = []
    tick = QoSEngine._reporting_tick

    def counted(self, period_id):
        ran.append(period_id)
        tick(self, period_id)
    monkeypatch.setattr(QoSEngine, "_reporting_tick", counted)
    cluster = qos_cluster([200_000, 100_000], [600_000, 300_000],
                          scale=SCALE)
    if configure is not None:
        configure(cluster)
    run_experiment(cluster, warmup_periods=0, measure_periods=2)
    monkeypatch.undo()
    written = sum(ctx.engine.reports_written for ctx in cluster.clients)
    return len(ran), written


def telemetry(cluster):
    attach_telemetry(cluster, TelemetryConfig(sample_every=0))


def injector(cluster):
    cluster.inject_faults(FaultPlan())


def test_an_eligible_cell_schedules_no_reporting_tick(monkeypatch):
    ticks, written = reporting_ticks(monkeypatch)
    assert ticks == 0
    assert written > 50  # the reports were still written


def test_each_predicate_clause_restores_the_tick_events(monkeypatch):
    _ticks, lazy_written = reporting_ticks(monkeypatch)
    for configure in (telemetry, injector):
        ticks, written = reporting_ticks(monkeypatch, configure)
        assert ticks > 50, configure.__name__
        assert written == lazy_written, configure.__name__
