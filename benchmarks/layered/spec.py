"""The benchmark's metric tables: one place that names every metric,
its unit, which way is better, and — for layer metrics — which layer it
measures and which end-to-end metric on which workload it should move.

``BENCHMARK.json`` at the repository root is ``benchmark_json()`` of
this module (``--selftest`` asserts they agree).  Its schema is fixed
by the PR driver and has no room for the layer/"moves" annotations, the
reference-machine note or the pinned digests, so those live here and in
``digests.json``.
"""

from __future__ import annotations

from typing import Dict, List

# Layers the traced run reports by name (module path under src/repro);
# every other module folds into "other".
TRACE_LAYERS = (
    "sim.core", "sim.resources", "rdma.qp", "rdma.nic", "rdma.cc",
    "rdma.memory", "rdma.verbs", "kvstore.client", "core.engine",
    "core.monitor", "core.tokens", "workloads.app", "cluster.metrics",
    "fluid.engine", "globalqos.waterfill", "telemetry.ledger",
    "tenancy.hierarchy",
)

# Exact per-workload counters (group C), read after the untraced run.  A
# workload that does not exercise a layer reports that layer's counters
# as 0, so two runs always compare row for row.
COUNTER_NAMES = (
    "sim.core.events", "sim.core.events_per_op",
    "rdma.nic.server_target_utilization",
    "rdma.nic.client_issue_utilization_max",
    "rdma.nic.issued_read", "rdma.nic.issued_write",
    "rdma.nic.issued_atomic",
    "core.engine.faa_issued", "core.engine.faa_per_kop",
    "core.engine.reports_written", "core.engine.limit_throttle_events",
    "core.engine.queue_depth_end_max",
    "core.monitor.periods", "core.monitor.conversions",
    "core.monitor.capacity_estimate_end",
    "rdma.qp.single_posts", "rdma.qp.chain_posts", "rdma.qp.chain_wrs",
    "rdma.qp.sq_stall_events",
    "rdma.cc.cnps_sent", "rdma.cc.rate_decreases", "rdma.cc.ecn_marks",
    "rdma.cc.pfc_pause_events", "rdma.cc.pfc_pause_sim_s",
    "rdma.cc.min_rate_gbps",
    "fluid.engine.flow_periods", "fluid.engine.conversions",
    "fluid.engine.faa_batches",
    "telemetry.ledger.entries",
    "tenancy.hierarchy.clamp_events", "tenancy.hierarchy.resize_ops",
)

COMMAND = ["python3", "benchmarks/layered/run.py"]
PATHS = ["benchmarks/layered"]
RUN_SECONDS = 20
#: Where the numbers in ``results/`` were taken.
REFERENCE_MACHINE = "shared sandbox, nproc = 2, one load process at a time"
#: CPU seconds ``stats.calibration_round`` takes on that box when its
#: neighbours are quiet.  Host times are reported in reference-box
#: seconds: CPU seconds x (this / the calibration timed beside the run).
CALIBRATION_REF_S = 0.34
#: This benchmark claims no gain; a later PR fills its own claim in its
#: issue, naming a metric and a workload from the tables below.
CLAIM = None

WORKLOADS: List[Dict[str, str]] = [
    {"name": "fig12_sweep",
     "why": "Paper's Fig. 12 sweep, 10 clients x 10 cells: per-op datapath "
            "(engine, qp, nic, sim) does the work; monitor, fabric model "
            "and fluid path do almost nothing."},
    {"name": "des_1k_clients",
     "why": "Same DES code with 1000 clients: control traffic outnumbers "
            "data, the heap holds thousands of timers, monitor tick is "
            "O(clients); per-op speed-ups should show nothing here."},
    {"name": "fabric_incast_mixed",
     "why": "8:1 incast through the opt-in fabric model with writes and "
            "atomics beside reads: the qp/nic layer's other branch "
            "(buckets, SQ, DCQCN, PFC); engine and monitor bypassed."},
    {"name": "fluid_1m_tenants",
     "why": "Fluid fast path, 10^6 clients in 512 flows x 600 periods with "
            "ledger: bypasses sim/rdma/kvstore/engine entirely; only "
            "flow math and water-fill changes show; guards peak RSS."},
]

# ---------------------------------------------------------------------------
# End to end.  ``gated`` rows are defined and non-zero on all four
# workloads and steady across seeds, so they go into BENCHMARK.json for
# the PR driver; the others are reported per workload where defined
# (``where``) in the full document and compared by compare.py.
# ``kind`` says whose clock: "host" (the simulator's cost, noisy,
# relative bound) or "sim" (what the modelled system delivers,
# deterministic: compare.py demands equality for a fixed seed).
# ---------------------------------------------------------------------------
DES = ("fig12_sweep", "des_1k_clients", "fabric_incast_mixed")
QOS = ("fig12_sweep", "des_1k_clients", "fluid_1m_tenants")
ALL = tuple(w["name"] for w in WORKLOADS)

END_TO_END: List[dict] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "kind": "host", "where": ALL, "gated": True,
     # Millisecond set-ups: below this absolute change nothing is
     # resolvable, whatever the ratio says.
     "floor": 0.05},
    {"name": "run_host_s", "unit": "s", "better": "lower", "bound": 0.25,
     "kind": "host", "where": ALL, "gated": True},
    {"name": "sim_ops_per_host_s", "unit": "1/s", "better": "higher",
     "bound": 0.25, "kind": "host", "where": ALL, "gated": True},
    {"name": "client_periods_per_host_s", "unit": "1/s", "better": "higher",
     "bound": 0.25, "kind": "host", "where": ("fluid_1m_tenants",),
     "gated": False},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10,
     "kind": "host", "where": ALL, "gated": True},
    {"name": "sim_total_kiops", "unit": "kiops", "better": "higher",
     "bound": 0.05, "kind": "sim", "where": ALL, "gated": True},
    {"name": "sim_min_attainment", "unit": "ratio", "better": "higher",
     "bound": 0.0, "kind": "sim", "where": QOS, "gated": False},
    {"name": "sim_p99_latency_us", "unit": "us", "better": "lower",
     "bound": 0.0, "kind": "sim", "where": DES, "gated": False},
    {"name": "failed_op_share", "unit": "ratio", "better": "lower",
     "bound": 0.0, "kind": "sim", "where": ALL, "gated": False},
    {"name": "paper_cg_rel_error", "unit": "ratio", "better": "lower",
     "bound": 0.0, "kind": "sim", "where": ("fig12_sweep",),
     "gated": False},
]

# ---------------------------------------------------------------------------
# Per layer.  ``moves`` = the end-to-end metric and workload(s) a change
# in this row should show up in ("-" = none of the four, stated so a
# later issue knows it needs a workload before it can claim on it).
# ---------------------------------------------------------------------------
_HOST = "sim_ops_per_host_s"


def _row(name, unit, moves, better="lower"):
    layer = name.rsplit(".", 1)[0]
    return {"name": name, "unit": unit, "better": better, "layer": layer,
            "moves": moves}


LAYER_TABLE: List[dict] = [
    _row("sim.core.ns_per_event", "ns", f"{_HOST} on fig12_sweep"),
    _row("sim.core.ns_per_event_deep", "ns", f"{_HOST} on des_1k_clients"),
    _row("sim.resources.pipeline_ns_per_submit", "ns",
         f"{_HOST} on every DES workload"),
    _row("sim.resources.token_bucket_ns_per_acquire", "ns",
         f"{_HOST} on fabric_incast_mixed"),
    _row("sim.resources.semaphore_ns_per_cycle", "ns",
         f"{_HOST} on fabric_incast_mixed"),
    _row("rdma.qp.us_per_read_plain", "us", f"{_HOST} on fig12_sweep"),
    _row("rdma.qp.events_per_read_plain", "count",
         f"{_HOST} on fig12_sweep"),
    _row("rdma.qp.us_per_faa_plain", "us", f"{_HOST} on des_1k_clients"),
    _row("rdma.qp.us_per_read_fabric", "us",
         f"{_HOST} on fabric_incast_mixed"),
    _row("rdma.qp.events_per_read_fabric", "count",
         f"{_HOST} on fabric_incast_mixed"),
    _row("rdma.qp.us_per_wr_chain16", "us",
         f"{_HOST} on fabric_incast_mixed"),
    _row("rdma.memory.ns_per_read_u64", "ns", f"{_HOST} on fig12_sweep"),
    _row("kvstore.client.us_per_get_onesided", "us",
         f"{_HOST} on fig12_sweep"),
    _row("kvstore.client.us_per_get_twosided", "us", "-"),
    _row("workloads.ycsb.ns_per_key_zipf", "ns", "-"),
    _row("core.engine.us_per_op_tokened", "us", f"{_HOST} on fig12_sweep"),
    _row("core.engine.events_per_op", "count", f"{_HOST} on fig12_sweep"),
    _row("core.engine.us_per_control_tick", "us",
         f"{_HOST} on des_1k_clients"),
    _row("core.monitor.us_per_period_10c", "us",
         f"{_HOST} on fig12_sweep (barely)"),
    _row("core.monitor.us_per_period_1000c", "us",
         f"{_HOST} on des_1k_clients"),
    _row("core.capacity.us_per_estimate", "us",
         f"{_HOST} on des_1k_clients"),
    _row("cluster.builder.ms_per_build_10c", "ms", "setup_s on fig12_sweep"),
    _row("cluster.builder.ms_per_build_1000c", "ms",
         "setup_s on des_1k_clients"),
    _row("globalqos.waterfill.us_per_solve_100c_4n", "us", "-"),
    _row("globalqos.waterfill.us_per_largest_remainder_1k", "us",
         f"{_HOST} on fluid_1m_tenants"),
    _row("globalqos.skew.host_ms_per_period_static", "ms", "-"),
    _row("globalqos.skew.host_ms_per_period_coordinated", "ms", "-"),
    _row("tenancy.rebalance.us_per_tenant_splits_1000c_8t", "us", "-"),
    _row("tenancy.hierarchy.ms_per_build_1e5", "ms",
         "setup_s on fluid_1m_tenants"),
    _row("tenancy.hierarchy.us_per_resize_tenant", "us",
         "setup_s on fluid_1m_tenants"),
    _row("fluid.flows.ms_per_flows_from_hierarchy", "ms",
         "setup_s on fluid_1m_tenants"),
    _row("fluid.engine.us_per_flow_period", "us",
         f"{_HOST} on fluid_1m_tenants"),
    _row("telemetry.ledger.ns_per_open_close", "ns",
         f"{_HOST} on fluid_1m_tenants"),
    _row("telemetry.spans.ns_per_mark", "ns", "feature_cost.telemetry.ratio"),
    _row("telemetry.registry.ns_per_counter_inc", "ns",
         "feature_cost.telemetry.ratio"),
    _row("telemetry.registry.us_per_snapshot", "us",
         "feature_cost.telemetry.ratio"),
    _row("policy.service.us_per_submit", "us", "-"),
    _row("policy.document.us_per_roundtrip", "us", "-"),
    _row("hunt.space.us_per_mutate", "us", "-"),
    _row("hunt.candidate.ms_per_candidate", "ms", "-"),
]

FEATURES = ("telemetry", "fabric", "tenancy", "faults_empty")
FEATURE_COST: List[dict] = [
    row for feature in FEATURES for row in (
        {"name": f"feature_cost.{feature}.ratio", "unit": "ratio",
         "better": "lower", "layer": "feature_cost",
         "moves": f"{_HOST} on fig12_sweep when a gate lands on the "
                  "off path"},
        {"name": f"feature_cost.{feature}.sim_equal", "unit": "count",
         "better": "higher", "layer": "feature_cost",
         "moves": "1 = simulated results equal the feature-off run"},
    )
]

COUNTERS: List[dict] = [
    {"name": name, "unit": (
        "s" if name.endswith("_sim_s") else
        "Gb/s" if name.endswith("_gbps") else
        "ratio" if "utilization" in name else "count"),
     # Counts have no good direction; "lower" reads as "less work per
     # run" for events and is a convention for the rest.
     "better": "higher" if "utilization" in name else "lower",
     "layer": name.rsplit(".", 1)[0],
     "moves": "exact per-workload counter; count x layer cost ~ run_host_s"}
    for name in COUNTER_NAMES
]

TRACE: List[dict] = (
    [{"name": f"trace.{layer}.self_share", "unit": "ratio",
      "better": "lower", "layer": layer,
      "moves": "upper bound on what a faster layer saves of run_host_s"}
     for layer in TRACE_LAYERS + ("other",)]
    + [{"name": f"trace.{layer}.calls_per_op", "unit": "count",
        "better": "lower", "layer": layer,
        "moves": "calls into the layer per unit of work"}
       for layer in TRACE_LAYERS]
    + [{"name": "trace.heap_depth_p50", "unit": "count", "better": "lower",
        "layer": "sim.core", "moves": "multiplies sim.core.ns_per_event"},
       {"name": "trace.heap_depth_max", "unit": "count", "better": "lower",
        "layer": "sim.core", "moves": "multiplies sim.core.ns_per_event"},
       {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower",
        "layer": "harness", "moves": "traced / untraced host-s per unit "
                                     "of work"}]
)

RECONCILE: List[dict] = [
    {"name": "reconcile.estimate_s", "unit": "s", "better": "lower",
     "layer": "harness",
     "moves": "sum over layers of counter x isolated cost"},
    {"name": "reconcile.residual_share", "unit": "ratio", "better": "lower",
     "layer": "harness",
     "moves": "(run_host_s - estimate) / run_host_s; no threshold"},
]

HARNESS: List[dict] = [
    {"name": "harness.calibration_s", "unit": "s", "better": "lower",
     "layer": "harness", "moves": "machine speed; not gated"},
    {"name": "harness.run_norm", "unit": "ratio", "better": "lower",
     "layer": "harness",
     "moves": "run_host_s / calibration_s; comparable across machines"},
]

PER_LAYER: List[dict] = (
    LAYER_TABLE + FEATURE_COST + COUNTERS + TRACE + RECONCILE + HARNESS
)


def benchmark_json() -> dict:
    """The document the PR driver reads, in its exact schema."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {key: row[key] for key in ("name", "unit", "better", "bound")}
            for row in END_TO_END if row["gated"]
        ],
        "per_layer": [
            {key: row[key] for key in ("name", "unit", "better")}
            for row in PER_LAYER
        ],
    }
