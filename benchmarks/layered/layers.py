"""The isolated layer table (A) and the feature-cost matrix (B).

Each layer row drives one public function of one layer in a tight loop
and reports host time per call (plus exact events-per-call where the
row says so).  A row's cost includes everything beneath the function it
calls — ``kvstore.client.us_per_get_onesided`` pays for the qp, the nic
and the event loop too — which is what makes the rows usable as terms
of the reconciliation in ``run.reconcile``.

The feature-cost matrix runs one 10-client zipf Fig. 12 cell with each
opt-in feature off and on, interleaved, and reports the on/off host
time ratio and whether the simulated result stayed equal.

Rows are sized (``n``) for >= 0.3 CPU-s on the reference box and
repeated 5x; ``quick`` (what a traced driver run uses) cuts both.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Tuple

from repro.cluster.builder import build_cluster
from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import TEST_SCALE, qos_cluster, reservation_set
from repro.common.rng import make_rng
from repro.common.types import OpType, QoSMode
from repro.core.admission import AdmissionController
from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.core.monitor import QoSMonitor
from repro.faults import FaultPlan
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import flows_from_hierarchy
from repro.fluid.scenario import PROFILE_RSD, build_scale_hierarchy
from repro.globalqos.scenario import run_skewed
from repro.globalqos.waterfill import largest_remainder, waterfill_splits
from repro.hunt.scenario import run_spec
from repro.hunt.space import ScenarioSpec, clamp_spec, mutate
from repro.policy import load_policy
from repro.policy.document import QoSPolicy
from repro.policy.service import CONSUMER_RANGES, PolicyService
from repro.rdma.cc import FabricModel
from repro.rdma.fabric import Fabric
from repro.rdma.memory import Permissions, SparseMemory
from repro.rdma.nic import NICProfile
from repro.rdma.node import Host
from repro.rdma.verbs import WorkRequest
from repro.sim.core import Simulator
from repro.sim.resources import Pipeline, Semaphore, TokenBucket
from repro.telemetry.hub import TelemetryConfig, attach_telemetry
from repro.telemetry.ledger import TokenLedger
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Span
from repro.tenancy.binding import bind_hierarchy
from repro.tenancy.hierarchy import ClientGroup, Tenant, TenantHierarchy
from repro.tenancy.rebalance import tenant_splits
from repro.workloads.ycsb import ZipfianGenerator

from spec import CALIBRATION_REF_S, FEATURES
from stats import calibration_round, summarize
from workloads import C_G

_clock = time.process_time
WINDOW = 32
CHAIN = 16

#: What one measurement returns: (CPU seconds, calls made, exact extras).
Measurement = Tuple[float, int, Dict[str, float]]


@dataclasses.dataclass(frozen=True)
class Row:
    """One measurement and the metrics it yields.

    ``metric`` is host time per call scaled to ``unit``; ``extras`` maps
    names the measurement returns (exact counts per call) to metric
    names.
    """

    metric: str
    unit: str
    fn: Callable[[int], Measurement]
    n: int
    extras: Tuple[Tuple[str, str], ...] = ()


_UNIT_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------
def _event_loop(n: int, timers: int) -> Measurement:
    """``n`` no-op callbacks through the heap: 64 self-rescheduling
    tickers (depth ~64), plus ``timers`` pending period-aligned timers
    that re-arm once per simulated millisecond (the deep variant)."""
    sim = Simulator()

    def tick(i: int) -> None:
        sim.schedule(1e-6 * (1 + i % 7), tick, i)

    def timer(i: int) -> None:
        sim.schedule(1e-3, timer, i)

    for i in range(64):
        sim.schedule(i * 1e-8, tick, i)
    for i in range(timers):
        sim.schedule(1e-3, timer, i)
    start = _clock()
    while sim._seq < n:
        sim.run(until=sim.now + 2e-4)
    return _clock() - start, sim._seq, {}


def _pipeline_submit(n: int) -> Measurement:
    pipe = Pipeline(Simulator(), "bench")
    submit = pipe.submit
    start = _clock()
    for _ in range(n):
        submit(1e-6)
    return _clock() - start, n, {}


def _token_bucket_acquire(n: int) -> Measurement:
    bucket = TokenBucket(1_000_000.0, 64.0)
    acquire = bucket.acquire
    start = _clock()
    at = 0.0
    for _ in range(n):
        at = acquire(1.0, at)
    return _clock() - start, n, {}


def _semaphore_cycle(n: int) -> Measurement:
    sem = Semaphore(Simulator(), 128)
    start = _clock()
    for _ in range(n):
        sem.acquire()
        sem.release()
    return _clock() - start, n, {}


# ---------------------------------------------------------------------------
# rdma
# ---------------------------------------------------------------------------
def _closed_loop(sim, issue: Callable[[Callable], None], total: int,
                 window: int = WINDOW) -> None:
    """Keep ``window`` ops in flight until ``total`` have completed.
    ``issue(done)`` posts one op and arranges for ``done`` to be called
    (with any arguments) on its completion."""
    issued = completed = 0

    def done(*_args) -> None:
        nonlocal issued, completed
        completed += 1
        if issued < total:
            issued += 1
            issue(done)

    for _ in range(min(window, total)):
        issued += 1
        issue(done)
    while completed < total:
        before = completed
        sim.run(until=sim.now + 1e-3)
        if completed == before and not sim._heap:
            raise RuntimeError("closed loop stalled with an empty heap")


def _link(model=None):
    """One client host connected to one server host; returns
    ``(sim, qp client->server, region on the server)``."""
    sim = Simulator()
    fabric = Fabric(sim, model=model, seed=0)
    profile = NICProfile.chameleon()
    client = fabric.add_host(Host(sim, "client", profile))
    server = fabric.add_host(Host(sim, "server", profile))
    qp, _ = fabric.connect(client, server)
    region = server.memory.allocate_and_register(1 << 20, Permissions.all())
    return sim, qp, region


def _qp_ops(n: int, model, opcode: OpType, control: bool) -> Measurement:
    sim, qp, region = _link(model)
    size = 8 if opcode is OpType.FETCH_ADD else 4096

    def issue(done) -> None:
        qp.post_send(WorkRequest(
            opcode=opcode, size=size, remote_addr=region.addr,
            rkey=region.rkey, add_value=1, touch_memory=False,
            control=control, on_completion=done,
        ))

    start = _clock()
    _closed_loop(sim, issue, n)
    return _clock() - start, n, {"events": sim._seq / n}


def _qp_chain(n: int) -> Measurement:
    """READs posted ``CHAIN`` at a time through ``post_chain``, two
    chains in flight (the window the plain rows use)."""
    sim, qp, region = _link(FabricModel.chameleon())
    chains = n // CHAIN
    posted = completed = 0

    def post() -> None:
        nonlocal posted
        posted += 1
        qp.post_chain([
            WorkRequest(opcode=OpType.READ, size=4096,
                        remote_addr=region.addr, rkey=region.rkey,
                        touch_memory=False, on_completion=on_wc)
            for _ in range(CHAIN)
        ])

    def on_wc(_wc) -> None:
        nonlocal completed
        completed += 1
        if completed % CHAIN == 0 and posted < chains:
            post()

    start = _clock()
    for _ in range(min(WINDOW // CHAIN, chains)):
        post()
    while completed < chains * CHAIN:
        sim.run(until=sim.now + 1e-3)
    return _clock() - start, chains * CHAIN, {}


def _memory_read_u64(n: int) -> Measurement:
    memory = SparseMemory()
    for word in range(512):
        memory.write_u64(4096 + 8 * word, word)
    read = memory.read_u64
    start = _clock()
    for i in range(n):
        read(4096 + 8 * (i & 511))
    return _clock() - start, n, {}


# ---------------------------------------------------------------------------
# kvstore, workloads
# ---------------------------------------------------------------------------
def _kv_get(n: int, onesided: bool) -> Measurement:
    cluster = build_cluster(num_clients=1, qos_mode=QoSMode.BARE,
                            scale=TEST_SCALE)
    kv = cluster.clients[0].kv
    slots = kv.layout.num_slots
    key = 0

    def issue(done) -> None:
        nonlocal key
        key = (key + 1) % slots
        if onesided:
            kv.get_onesided(key, done, touch_memory=False)
        else:
            kv.get_twosided(key, done)

    start = _clock()
    _closed_loop(cluster.sim, issue, n)
    return _clock() - start, n, {}


def _ycsb_zipf(n: int, seed: int) -> Measurement:
    next_key = ZipfianGenerator(4096, seed=seed).next
    start = _clock()
    for _ in range(n):
        next_key()
    return _clock() - start, n, {}


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------
def _engine_op(periods: int) -> Measurement:
    """One client with ample tokens: reservation = demand = 350 KIOPS
    (under C_L), 10 ms periods with only 10 protocol ticks each, so the
    per-period control work is ~1% of the events."""
    cluster = qos_cluster([350_000], [350_000.0],
                          scale=SimScale(factor=100, interval_divisor=10))
    start = _clock()
    run_experiment(cluster, warmup_periods=0, measure_periods=periods)
    elapsed = _clock() - start
    done = cluster.clients[0].engine.total_completed
    return elapsed, done, {"events": cluster.sim._seq / done}


def _engine_control_tick(periods: int) -> Measurement:
    """Starved clients: the estimator is pinned at the reserved total, so
    the pool opens empty and every client spends the period the way
    ``des_1k_clients``' clients do — one FAA retry and one report write
    per tick — with only its few reservation tokens of data.  A tick is
    one client's FAA fetch (the report write rides along)."""
    clients = 16
    scale = SimScale(factor=200, interval_divisor=25)
    reservations = [2_000] * clients  # 10 tokens per 5 ms period each
    reserved_tokens = clients * scale.tokens(reservations[0])
    cluster = qos_cluster(
        reservations, [200_000.0] * clients, scale=scale,
        profiled=ProfiledCapacity(mean=float(reserved_tokens),
                                  stddev=0.01 * reserved_tokens),
        config=scale.config(eta=0),
    )
    start = _clock()
    run_experiment(cluster, warmup_periods=0, measure_periods=periods)
    elapsed = _clock() - start
    ticks = sum(ctx.engine.faa_issued for ctx in cluster.clients)
    return elapsed, ticks, {}


def _monitor_period(periods: int, clients: int) -> Measurement:
    """The monitor alone: ``clients`` registered over real QPs to hosts
    with no engine behind them (the period-start SENDs are delivered and
    dropped), so a period costs what the monitor itself does — begin,
    the per-tick pool checks, the O(clients) end-of-period fold."""
    sim = Simulator()
    fabric = Fabric(sim)
    profile = NICProfile.chameleon()
    server = fabric.add_host(Host(sim, "server", profile))
    scale = SimScale(factor=200, interval_divisor=25)
    # No leases: silent clients must stay registered for the whole row.
    config = scale.config(lease_periods=0)
    mean = C_G * config.period
    monitor = QoSMonitor(
        server, config,
        AdaptiveCapacityEstimator(
            ProfiledCapacity(mean=mean, stddev=0.06 * mean),
            eta=config.eta, history_window=config.history_window,
        ),
        admission=AdmissionController(int(mean), int(mean)),
        max_clients=max(64, clients),
    )
    tokens = config.tokens_per_period(0.7 * C_G / clients)
    for i in range(clients):
        host = fabric.add_host(Host(sim, f"C{i + 1}", profile))
        _qp_cs, qp_sc = fabric.connect(host, server)
        monitor.add_client(i, tokens, qp_sc)
    monitor.start()
    start = _clock()
    sim.run(until=periods * config.period * (1 + 1e-6))
    return _clock() - start, monitor.period_id - 1, {}


def _capacity_estimate(n: int) -> Measurement:
    estimator = AdaptiveCapacityEstimator(
        ProfiledCapacity(mean=7850.0, stddev=471.0), eta=50,
        history_window=10,
    )
    update = estimator.update
    start = _clock()
    for i in range(n):
        update(7000 + (i * 37) % 900)
    return _clock() - start, n, {}


def _cluster_build(n: int, clients: int) -> Measurement:
    reservations = reservation_set("uniform", 0.7 * C_G, clients)
    demands = [r + 0.3 * C_G / clients for r in reservations]
    scale = SimScale(factor=200, interval_divisor=25)
    start = _clock()
    for _ in range(n):
        qos_cluster(reservations, demands, scale=scale)
    return _clock() - start, n, {}


# ---------------------------------------------------------------------------
# globalqos, tenancy, fluid
# ---------------------------------------------------------------------------
def _split_inputs(clients: int, nodes: int, seed: int):
    """Deterministic coordinator inputs: uneven demand, even current
    splits, node caps with ~10% headroom."""
    rng = make_rng(seed, "bench-layers", "splits")
    aggregates = {c: 1_000 + 10 * (c % 7) for c in range(clients)}
    current = {c: largest_remainder(aggregates[c], [1.0] * nodes)
               for c in range(clients)}
    demands = {c: [int(aggregates[c] * rng.uniform(0.1, 1.0))
                   for _ in range(nodes)] for c in range(clients)}
    total = sum(aggregates.values())
    node_caps = [int(1.1 * total / nodes)] * nodes
    max_split = [max(aggregates.values())] * nodes
    return aggregates, demands, node_caps, current, max_split


def _waterfill_solve(n: int, seed: int) -> Measurement:
    inputs = _split_inputs(100, 4, seed)
    start = _clock()
    for _ in range(n):
        waterfill_splits(*inputs)
    return _clock() - start, n, {}


def _largest_remainder(n: int, seed: int) -> Measurement:
    rng = make_rng(seed, "bench-layers", "weights")
    weights = [rng.uniform(0.5, 2.0) for _ in range(1000)]
    start = _clock()
    for _ in range(n):
        largest_remainder(1_000_003, weights)
    return _clock() - start, n, {}


def _skew_period(periods: int, seed: int, coordinated: bool) -> Measurement:
    """``periods`` measured periods after one of warm-up; the difference
    between the two arms is what the coordinator's epochs cost."""
    start = _clock()
    run_skewed(seed, coordinated, warmup_periods=1, measure_periods=periods)
    return _clock() - start, periods + 1, {}


def _tenant_splits(n: int, seed: int) -> Measurement:
    inputs = _split_inputs(1000, 2, seed)
    tenant_of = {c: f"T{c % 8}" for c in range(1000)}
    start = _clock()
    for _ in range(n):
        tenant_splits(*inputs, tenant_of)
    return _clock() - start, n, {}


def _hierarchy_build(n: int, seed: int) -> Measurement:
    start = _clock()
    for _ in range(n):
        build_scale_hierarchy(100_000, tenants=32, groups_per_tenant=16,
                              seed=seed)
    return _clock() - start, n, {}


def _hierarchy_resize(n: int, seed: int) -> Measurement:
    """One call = one coordinator-style rebalance of a 16-group tenant:
    shrink it by a fifth (which clamps its groups), grow it back, and
    hand the groups their grants back (without the last step the second
    shrink would find nothing left to clamp)."""
    hierarchy, _ = build_scale_hierarchy(
        100_000, tenants=32, groups_per_tenant=16, seed=seed)
    tenant = hierarchy.tenants[0]
    full = tenant.reservation
    grants = [(g.name, g.reservation) for g in tenant.groups]
    start = _clock()
    for _ in range(n):
        hierarchy.resize_tenant(tenant.name, full - full // 5)
        hierarchy.resize_tenant(tenant.name, full)
        for name, reservation in grants:
            hierarchy.resize_group(tenant.name, name, reservation)
    return _clock() - start, n, {}


def _flows_build(n: int, seed: int) -> Measurement:
    hierarchy, _ = build_scale_hierarchy(
        1_000_000, tenants=32, groups_per_tenant=16, seed=seed)
    start = _clock()
    for _ in range(n):
        flows_from_hierarchy(hierarchy)
    return _clock() - start, n, {}


def _fluid_period(periods: int, seed: int) -> Measurement:
    """1024 flows (32 tenants x 32 groups) with the ledger attached, as
    the workload runs it: a flow-period includes its ledger entries."""
    config = HaechiConfig.paper()
    capacity = config.tokens_per_period(
        NICProfile.chameleon().onesided_saturation_rate())
    hierarchy, demand = build_scale_hierarchy(
        1_000_000, tenants=32, groups_per_tenant=32, config=config,
        capacity_tokens=capacity, seed=seed)
    flows = flows_from_hierarchy(
        hierarchy, demand_of=lambda t, g: demand[f"{t.name}/{g.name}"])
    engine = FluidEngine(
        flows, config,
        AdaptiveCapacityEstimator(
            ProfiledCapacity(mean=float(capacity),
                             stddev=PROFILE_RSD * capacity),
            eta=config.eta, history_window=config.history_window,
            saturation_tolerance=config.saturation_tolerance,
        ),
        physical_capacity=capacity, ledger=TokenLedger(),
    )
    start = _clock()
    engine.run(periods)
    return _clock() - start, periods * len(flows), {}


# ---------------------------------------------------------------------------
# telemetry, policy, hunt
# ---------------------------------------------------------------------------
def _ledger_open_close(n: int) -> Measurement:
    ledger = TokenLedger()
    start = _clock()
    for i in range(n):
        account = ledger.open("C1", i, 100, 0.0)
        ledger.close(account, spent=90, yielded=0, residual=10,
                     reason="bench", time=1.0)
    return _clock() - start, n, {}


def _span_mark(n: int) -> Measurement:
    marks_per_span = 8
    spans = n // marks_per_span
    start = _clock()
    for i in range(spans):
        span = Span(i, "onesided_read", "C1", 0.0)
        for stage in range(marks_per_span):
            span.mark("nic_issue", float(stage))
    return _clock() - start, spans * marks_per_span, {}


def _counter_inc(n: int) -> Measurement:
    inc = MetricsRegistry().counter("bench_ops", client="C1").inc
    start = _clock()
    for _ in range(n):
        inc()
    return _clock() - start, n, {}


def _registry_snapshot(n: int) -> Measurement:
    cluster = _fig12_zipf_cell(0)
    snapshot = attach_telemetry(cluster).registry.snapshot
    start = _clock()
    for _ in range(n):
        snapshot()
    return _clock() - start, n, {}


def _policy_submit(n: int) -> Measurement:
    policy = load_policy("globalqos-skew")
    service = PolicyService(HaechiConfig.paper(time_scale=500,
                                               interval_divisor=100), 2)
    for name, (low, high) in CONSUMER_RANGES.items():
        service.register_consumer(name, low, high)
    revisions = [dataclasses.replace(policy, version=policy.version + 1 + i)
                 for i in range(n)]
    start = _clock()
    for revision in revisions:
        service.submit(revision)
    return _clock() - start, n, {}


def _policy_roundtrip(n: int) -> Measurement:
    policy = load_policy("globalqos-skew")
    start = _clock()
    for _ in range(n):
        QoSPolicy.from_json(policy.to_json())
    return _clock() - start, n, {}


def _hunt_mutate(n: int, seed: int) -> Measurement:
    rng = make_rng(seed, "bench-layers", "mutate")
    spec = clamp_spec(ScenarioSpec())
    start = _clock()
    for _ in range(n):
        spec = mutate(spec, rng)
    return _clock() - start, n, {}


def _hunt_candidate(n: int, seed: int) -> Measurement:
    spec = clamp_spec(ScenarioSpec())
    start = _clock()
    for _ in range(n):
        run_spec(spec, seed)
    return _clock() - start, n, {}


def rows(seed: int) -> List[Row]:
    """The layer table, in report order."""
    chameleon = FabricModel.chameleon()
    events_plain = (("events", "rdma.qp.events_per_read_plain"),)
    events_fabric = (("events", "rdma.qp.events_per_read_fabric"),)
    return [
        Row("sim.core.ns_per_event", "ns",
            lambda n: _event_loop(n, 0), 450_000),
        Row("sim.core.ns_per_event_deep", "ns",
            lambda n: _event_loop(n, 10_000), 400_000),
        Row("sim.resources.pipeline_ns_per_submit", "ns",
            _pipeline_submit, 3_000_000),
        Row("sim.resources.token_bucket_ns_per_acquire", "ns",
            _token_bucket_acquire, 2_500_000),
        Row("sim.resources.semaphore_ns_per_cycle", "ns",
            _semaphore_cycle, 800_000),
        Row("rdma.qp.us_per_read_plain", "us",
            lambda n: _qp_ops(n, None, OpType.READ, False), 80_000,
            events_plain),
        Row("rdma.qp.us_per_faa_plain", "us",
            lambda n: _qp_ops(n, None, OpType.FETCH_ADD, True), 60_000),
        Row("rdma.qp.us_per_read_fabric", "us",
            lambda n: _qp_ops(n, chameleon, OpType.READ, False), 45_000,
            events_fabric),
        Row("rdma.qp.us_per_wr_chain16", "us", _qp_chain, 48_000),
        Row("rdma.memory.ns_per_read_u64", "ns", _memory_read_u64,
            1_500_000),
        Row("kvstore.client.us_per_get_onesided", "us",
            lambda n: _kv_get(n, True), 70_000),
        Row("kvstore.client.us_per_get_twosided", "us",
            lambda n: _kv_get(n, False), 15_000),
        Row("workloads.ycsb.ns_per_key_zipf", "ns",
            lambda n: _ycsb_zipf(n, seed), 600_000),
        Row("core.engine.us_per_op_tokened", "us", _engine_op, 10,
            (("events", "core.engine.events_per_op"),)),
        Row("core.engine.us_per_control_tick", "us",
            _engine_control_tick, 10),
        Row("core.monitor.us_per_period_10c", "us",
            lambda n: _monitor_period(n, 10), 1_500),
        Row("core.monitor.us_per_period_1000c", "us",
            lambda n: _monitor_period(n, 1000), 15),
        Row("core.capacity.us_per_estimate", "us", _capacity_estimate,
            600_000),
        Row("cluster.builder.ms_per_build_10c", "ms",
            lambda n: _cluster_build(n, 10), 600),
        Row("cluster.builder.ms_per_build_1000c", "ms",
            lambda n: _cluster_build(n, 1000), 5),
        Row("globalqos.waterfill.us_per_solve_100c_4n", "us",
            lambda n: _waterfill_solve(n, seed), 600),
        Row("globalqos.waterfill.us_per_largest_remainder_1k", "us",
            lambda n: _largest_remainder(n, seed), 600),
        Row("globalqos.skew.host_ms_per_period_static", "ms",
            lambda n: _skew_period(n, seed, False), 4),
        Row("globalqos.skew.host_ms_per_period_coordinated", "ms",
            lambda n: _skew_period(n, seed, True), 4),
        Row("tenancy.rebalance.us_per_tenant_splits_1000c_8t", "us",
            lambda n: _tenant_splits(n, seed), 160),
        Row("tenancy.hierarchy.ms_per_build_1e5", "ms",
            lambda n: _hierarchy_build(n, seed), 180),
        Row("tenancy.hierarchy.us_per_resize_tenant", "us",
            lambda n: _hierarchy_resize(n, seed), 3_500),
        Row("fluid.flows.ms_per_flows_from_hierarchy", "ms",
            lambda n: _flows_build(n, seed), 150),
        Row("fluid.engine.us_per_flow_period", "us",
            lambda n: _fluid_period(n, seed), 60),
        Row("telemetry.ledger.ns_per_open_close", "ns",
            _ledger_open_close, 150_000),
        Row("telemetry.spans.ns_per_mark", "ns", _span_mark, 1_800_000),
        Row("telemetry.registry.ns_per_counter_inc", "ns", _counter_inc,
            4_500_000),
        Row("telemetry.registry.us_per_snapshot", "us",
            _registry_snapshot, 800),
        Row("policy.service.us_per_submit", "us", _policy_submit, 15_000),
        Row("policy.document.us_per_roundtrip", "us", _policy_roundtrip,
            9_000),
        Row("hunt.space.us_per_mutate", "us",
            lambda n: _hunt_mutate(n, seed), 12_000),
        Row("hunt.candidate.ms_per_candidate", "ms",
            lambda n: _hunt_candidate(n, seed), 2),
    ]


# ---------------------------------------------------------------------------
# B. feature-cost matrix
# ---------------------------------------------------------------------------
_CELL_SCALE = SimScale(factor=500, interval_divisor=100)


def _fig12_zipf_cell(seed: int, **build_kwargs):
    """The 10-client zipf cell at 70% reserved, as Fig. 12 builds it."""
    reservations = reservation_set("zipf", 0.7 * C_G)
    pool = 0.3 * C_G
    return qos_cluster(reservations, [r + pool for r in reservations],
                       scale=_CELL_SCALE, master_seed=seed, **build_kwargs)


def _flat_hierarchy(cluster) -> TenantHierarchy:
    """One tenant, one single-client group per client, each holding the
    client's own grant: the guard is installed but never has to clamp."""
    config = cluster.config
    grants = [config.tokens_per_period(r)
              for r in reservation_set("zipf", 0.7 * C_G)]
    groups = [ClientGroup(name=f"g{i + 1}", reservation=tokens)
              for i, tokens in enumerate(grants)]
    return TenantHierarchy([Tenant("T1", sum(grants), groups=groups)])


def _feature_run(feature: str, seed: int, warmup: int, periods: int):
    """(host seconds, simulated result) of the cell with ``feature`` on
    ("off" = none)."""
    start = _clock()
    if feature == "fabric":
        cluster = _fig12_zipf_cell(seed, fabric_model=FabricModel.chameleon())
    else:
        cluster = _fig12_zipf_cell(seed)
    if feature == "telemetry":
        attach_telemetry(cluster, TelemetryConfig(sample_every=10))
    elif feature == "tenancy":
        bind_hierarchy(cluster, _flat_hierarchy(cluster))
    elif feature == "faults_empty":
        cluster.inject_faults(FaultPlan())
    result = run_experiment(cluster, warmup_periods=warmup,
                            measure_periods=periods)
    elapsed = _clock() - start
    simulated = (result.total_kiops(),
                 tuple(result.client_kiops(f"C{i + 1}") for i in range(10)))
    return elapsed, simulated


def feature_cost(seed: int, rounds: int, warmup: int, periods: int) -> dict:
    """Off vs on, interleaved within each round so a slow phase of the
    host lands on both sides of every ratio."""
    ratios: Dict[str, List[float]] = {f: [] for f in FEATURES}
    equal: Dict[str, bool] = {f: True for f in FEATURES}
    for _ in range(rounds):
        off_s, off_sim = _feature_run("off", seed, warmup, periods)
        for feature in FEATURES:
            on_s, on_sim = _feature_run(feature, seed, warmup, periods)
            ratios[feature].append(on_s / off_s)
            equal[feature] = equal[feature] and on_sim == off_sim
    out = {}
    for feature in FEATURES:
        out[f"feature_cost.{feature}.ratio"] = summarize(ratios[feature])
        out[f"feature_cost.{feature}.sim_equal"] = {
            "value": int(equal[feature])}
    return out


# ---------------------------------------------------------------------------
def run_all(quick: bool, seed: int) -> dict:
    """Every layer row and the feature matrix.  Returns ``rows`` (metric
    -> summary with raw values and quartiles) and ``values`` (metric ->
    reported value), plus the checks the matrix implies.

    Per-call times are in reference-box units like the end-to-end host
    times (fastest repeat, rescaled by the fastest of the calibration
    rounds timed before, between and after the rows), so the two views
    reconcile in one currency.
    """
    repeats = 3 if quick else 5
    shrink = 5 if quick else 1
    all_rows = rows(seed)
    calibrations = [calibration_round()]
    measured = []
    for index, row in enumerate(all_rows):
        n = max(1, row.n // shrink)
        per_call: List[float] = []
        extras: Dict[str, float] = {}
        for _ in range(repeats):
            elapsed, calls, extras = row.fn(n)
            per_call.append(elapsed / calls * _UNIT_SCALE[row.unit])
        measured.append((row, n, per_call, extras))
        if index % 10 == 9:
            calibrations.append(calibration_round())
    calibrations.append(calibration_round())
    speed = CALIBRATION_REF_S / min(calibrations)
    table: Dict[str, dict] = {}
    for row, n, per_call, extras in measured:
        table[row.metric] = dict(
            summarize([v * speed for v in per_call], "min"),
            unit=row.unit, n=n)
        for key, metric in row.extras:
            # exact counts: identical on every repeat
            table[metric] = {"value": extras[key], "unit": "count"}
    if quick:
        matrix = feature_cost(seed, rounds=3, warmup=1, periods=1)
    else:
        matrix = feature_cost(seed, rounds=5, warmup=2, periods=2)
    for metric, summary in matrix.items():
        unit = "ratio" if metric.endswith(".ratio") else "count"
        table[metric] = dict(summary, unit=unit)
    # An attached-but-idle feature must not change what is simulated.
    checks = [
        {"name": f"feature_off_equivalence[{feature}]",
         "ok": bool(table[f"feature_cost.{feature}.sim_equal"]["value"]),
         "detail": "simulated KIOPS and per-client throughput equal the "
                   "feature-off run"}
        for feature in ("telemetry", "faults_empty")
    ]
    return {
        "quick": quick,
        "calibrations": calibrations,
        "rows": table,
        "values": {metric: row["value"] for metric, row in table.items()},
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
