"""The four benchmark workloads.

Each workload is three functions over a plain ``state`` object:

- ``setup(params, seed)`` builds a runnable cluster/engine from the
  public builders (timed as ``setup_s``),
- ``run(state, watch)`` drives it (timed as ``run_host_s``),
- ``collect(state)`` reads results and counters back out and evaluates
  the correctness checks.

Nothing here changes the program under test: every number is read
through public results or the counters components already keep.  The
``why`` of each workload is in README.md; sizes are in :data:`SIZES`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List

from repro.cluster.builder import build_cluster
from repro.cluster.experiment import run_experiment
from repro.cluster.runner import canonical_json, fig12_cells
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import TEST_SCALE, qos_cluster, reservation_set
from repro.common.types import OpType, QoSMode
from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.faults.plan import Brownout, FaultPlan
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import flows_from_hierarchy
from repro.fluid.scenario import PROFILE_RSD, build_scale_hierarchy
from repro.rdma.cc import FabricModel
from repro.rdma.memory import Permissions
from repro.rdma.nic import NICProfile
from repro.telemetry.ledger import TokenLedger

from fabric_driver import IncastSender
from spec import COUNTER_NAMES
from stats import percentile

#: The paper's measured capacities (ops/s): data node and one client.
C_G = 1_570_000
C_L = 400_000
#: The paper's promise: every client gets at least this share of its
#: reservation.
MIN_ATTAINMENT = 0.98
#: Uniform Fig. 12 cells must land within this of C_G.
CG_TOLERANCE = 0.03

# Sizes.  ``standard`` is what every reported number uses; ``quarter``
# is the traced run (cProfile costs ~3.4x, so it runs a quarter of the
# period/op count); ``toy`` is the self-test.  ``setup_repeats`` is how
# many times set-up is timed per repeat (the median is reported).
SIZES: Dict[str, Dict[str, dict]] = {
    "fig12_sweep": {
        "standard": {"warmup": 2, "periods": 2, "setup_repeats": 7},
        "quarter": {"warmup": 1, "periods": 1, "setup_repeats": 1},
        "toy": {"warmup": 1, "periods": 1, "setup_repeats": 2,
                "fractions": (0.7,)},
    },
    "des_1k_clients": {
        "standard": {"clients": 1000, "warmup": 1, "periods": 2,
                     "setup_repeats": 3},
        "quarter": {"clients": 1000, "warmup": 0, "periods": 1,
                    "setup_repeats": 1},
        "toy": {"clients": 8, "warmup": 1, "periods": 1,
                "setup_repeats": 2},
    },
    "fabric_incast_mixed": {
        "standard": {"senders": 8, "ops": 35_000, "setup_repeats": 15},
        "quarter": {"senders": 8, "ops": 8_750, "setup_repeats": 1},
        "toy": {"senders": 2, "ops": 200, "setup_repeats": 2},
    },
    "fluid_1m_tenants": {
        "standard": {"clients": 1_000_000, "tenants": 32, "groups": 16,
                     "periods": 600, "setup_repeats": 9},
        "quarter": {"clients": 1_000_000, "tenants": 32, "groups": 16,
                    "periods": 150, "setup_repeats": 1},
        "toy": {"clients": 1_000, "tenants": 4, "groups": 4,
                "periods": 12, "setup_repeats": 2},
    },
}

@dataclasses.dataclass
class Outcome:
    """What one run of a workload produced (all simulated, so all of it
    must repeat exactly for a fixed seed)."""

    sim: dict  # the canonical simulated result; hashed into ``digest``
    end_to_end: Dict[str, float]  # simulated-side end-to-end metrics
    attempted: int  # finished I/Os, ok or not
    failed: int
    completed: int
    #: What the trace normalises calls by: completed I/Os for the DES
    #: workloads, flow-periods for the fluid one (its I/Os are aggregate).
    work_units: int
    client_periods: int  # clients x periods; only the fluid run reports it
    counters: Dict[str, float]
    checks: List[dict]

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.sim).encode()).hexdigest()

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["digest"] = self.digest()
        return out


def _check(name: str, ok: bool, detail: str = "",
           standard_only: bool = False) -> dict:
    """One correctness check.  ``standard_only`` marks thresholds that
    only the standard size is long enough to meet (a one-period toy run
    quantises attainment too coarsely); invariants hold at every size."""
    return {"name": name, "ok": bool(ok), "detail": detail,
            "standard_only": standard_only}


def _zero_counters() -> Dict[str, float]:
    return {name: 0 for name in COUNTER_NAMES}


def _des_counters(clusters, completed: int) -> Dict[str, float]:
    """Group-C counters of one or more DES clusters, read after the run."""
    out = _zero_counters()
    target_util = []
    estimates = []
    for cluster in clusters:
        out["sim.core.events"] += cluster.sim._seq
        target_util.append(cluster.server_host.nic.target.utilization())
        for ctx in cluster.clients:
            nic = ctx.host.nic
            issued = nic.issued_ops
            out["rdma.nic.issued_read"] += issued[OpType.READ]
            out["rdma.nic.issued_write"] += issued[OpType.WRITE]
            out["rdma.nic.issued_atomic"] += (
                issued[OpType.FETCH_ADD] + issued[OpType.COMPARE_SWAP]
            )
            out["rdma.nic.client_issue_utilization_max"] = max(
                out["rdma.nic.client_issue_utilization_max"],
                nic.issue.utilization(),
            )
            engine = ctx.engine
            if engine is not None:
                out["core.engine.faa_issued"] += engine.faa_issued
                out["core.engine.reports_written"] += engine.reports_written
                out["core.engine.limit_throttle_events"] += (
                    engine.limit_throttle_events
                )
                out["core.engine.queue_depth_end_max"] = max(
                    out["core.engine.queue_depth_end_max"],
                    engine.queue_depth,
                )
        monitor = cluster.monitor
        if monitor is not None:
            out["core.monitor.periods"] += monitor.period_id
            out["core.monitor.conversions"] += monitor.conversions
            estimates.append(monitor.estimator.current)
        cc = cluster.fabric.cc_summary()
        if cc:
            for key in ("single_posts", "chain_posts", "chain_wrs",
                        "sq_stall_events"):
                out[f"rdma.qp.{key}"] += cc["qps"][key]
            out["rdma.cc.cnps_sent"] += cc["qps"]["cnps_sent"]
            out["rdma.cc.rate_decreases"] += cc["qps"]["rate_decreases"]
            for port in cc["ports"].values():
                out["rdma.cc.ecn_marks"] += port["ecn_marks"]
                out["rdma.cc.pfc_pause_events"] += port["pfc_pause_events"]
                out["rdma.cc.pfc_pause_sim_s"] += port["pfc_pause_seconds"]
            rate = cc["min_congested_rate_bps"]
            if rate is not None:
                out["rdma.cc.min_rate_gbps"] = rate * 8.0 / 1e9
    out["rdma.nic.server_target_utilization"] = (
        sum(target_util) / len(target_util)
    )
    if estimates:
        out["core.monitor.capacity_estimate_end"] = (
            sum(estimates) / len(estimates)
        )
    if completed:
        out["sim.core.events_per_op"] = out["sim.core.events"] / completed
        out["core.engine.faa_per_kop"] = (
            1000.0 * out["core.engine.faa_issued"] / completed
        )
    return out


def _latency_metrics(samples: List[float], count: int,
                     to_paper: float) -> Dict[str, float]:
    """p99 of pooled latency samples, rescaled to paper units (a run
    dilated by K shrinks the period — and with it every token wait —
    K-fold, so multiplying by K restores the paper's 1 s periods)."""
    ordered = sorted(samples)
    return {
        "sim_p99_latency_us": percentile(ordered, 99.0) * to_paper * 1e6,
        "latency_count": count,
    }


def _qos_io_totals(cluster):
    """(completed, failed, pooled latency samples, latency count) over
    every client of a QoS cluster, whole run."""
    completed = failed = count = 0
    samples: List[float] = []
    for metrics in cluster.metrics.clients.values():
        completed += metrics.completed.total
        failed += metrics.failed.total
        samples.extend(metrics.latency._samples)
        count += metrics.latency.count
    return completed, failed, samples, count


def _attainments(result, reservations) -> List[float]:
    """Per-client measured-window throughput over its reservation."""
    return [
        result.client_kiops(f"C{i + 1}") * 1000.0 / r
        for i, r in enumerate(reservations)
    ]


# ---------------------------------------------------------------------------
# fig12_sweep
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _QosRun:
    """One QoS cluster and what drives it: a Fig. 12 cell, or the whole
    of ``des_1k_clients``."""

    params: dict  # carries at least "warmup" and "periods"
    reservations: List[int]
    cluster: object
    result: object = None


def _run_qos(state: _QosRun, watch) -> None:
    warmup = state.params["warmup"]
    periods = state.params["periods"]
    if watch is not None:
        watch.begin(state.cluster.sim, state.cluster.config.period,
                    warmup, periods)
    state.result = run_experiment(
        state.cluster, warmup_periods=warmup, measure_periods=periods,
    )
    if watch is not None:
        watch.end()


def _fig12_setup(params: dict, seed: int):
    """Build one cluster per sweep cell, exactly as the registered
    ``fig12-point`` scenario does (``runner._fig12_point``); assembled
    here from the same public pieces so set-up and run are timed apart
    and the harness keeps a handle on each simulator.  ``--selftest``
    asserts the two produce equal results."""
    overrides = {"warmup": params["warmup"], "periods": params["periods"]}
    kwargs = {}
    if "fractions" in params:
        kwargs["fractions"] = params["fractions"]
    cells = []
    for cell in fig12_cells(seed=seed, **kwargs, **overrides):
        p = dict(cell.params)
        capacity = p.get("capacity", C_G)
        fraction = p["fraction"]
        scale = SimScale(factor=p.get("scale_factor", 500),
                         interval_divisor=p.get("interval_divisor", 100))
        reservations = reservation_set(p["distribution"],
                                       fraction * capacity)
        pool = (1 - fraction) * capacity
        cluster = qos_cluster(
            reservations=reservations,
            demands=[r + pool for r in reservations],
            scale=scale, master_seed=cell.seed,
        )
        cells.append(_QosRun(p, list(reservations), cluster))
    return cells


def _fig12_run(cells, watch) -> None:
    for cell in cells:
        _run_qos(cell, watch)


def _fig12_collect(cells) -> Outcome:
    sim_cells = []
    checks = []
    completed = failed = latency_count = 0
    samples: List[float] = []
    attain_min = float("inf")
    totals = {"uniform": [], "zipf": []}
    for cell in cells:
        result = cell.result
        n = len(cell.reservations)
        payload = {
            "total_kiops": result.total_kiops(),
            "client_kiops": {
                f"C{i + 1}": result.client_kiops(f"C{i + 1}")
                for i in range(n)
            },
            "reservations": list(cell.reservations),
        }
        sim_cells.append({"params": cell.params, "result": payload})
        label = f"{cell.params['distribution']}@{cell.params['fraction']}"
        worst = min(_attainments(result, cell.reservations))
        attain_min = min(attain_min, worst)
        checks.append(_check(
            f"reservations_met[{label}]", worst >= MIN_ATTAINMENT,
            f"worst client at {worst:.4f} of its reservation",
            standard_only=True,
        ))
        totals[cell.params["distribution"]].append(payload["total_kiops"])
        done, bad, lat, count = _qos_io_totals(cell.cluster)
        completed += done
        failed += bad
        samples.extend(lat)
        latency_count += count
    uniform = totals["uniform"]
    reference = C_G / 1000.0
    for value in uniform:
        checks.append(_check(
            "uniform_within_3pct_of_C_G",
            abs(value - reference) <= CG_TOLERANCE * reference,
            f"{value:.1f} KIOPS vs {reference:.0f}", standard_only=True,
        ))
    checks.append(_check("no_failed_ops", failed == 0, f"{failed} failed"))
    all_totals = uniform + totals["zipf"]
    end_to_end = {
        "sim_total_kiops": sum(all_totals) / len(all_totals),
        "sim_min_attainment": attain_min,
        "paper_cg_rel_error": (
            abs(sum(uniform) / len(uniform) - reference) / reference
        ),
    }
    scale_factor = cells[0].cluster.scale.factor
    end_to_end.update(_latency_metrics(samples, latency_count, scale_factor))
    return Outcome(
        sim={"cells": sim_cells},
        end_to_end=end_to_end,
        attempted=completed + failed, failed=failed, completed=completed,
        work_units=completed, client_periods=0,
        counters=_des_counters([c.cluster for c in cells], completed),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# des_1k_clients
# ---------------------------------------------------------------------------
#: 5 ms periods, 25 protocol ticks per period: coarse enough that 1000
#: clients fit the time budget, fine enough that every client still
#: ticks its FAA/report pair ~25x per period (control >> data).
DES_1K_SCALE = SimScale(factor=200, interval_divisor=25)


def _des1k_setup(params: dict, seed: int):
    n = params["clients"]
    reservations = reservation_set("uniform", 0.7 * C_G, n)
    pool = 0.3 * C_G
    cluster = qos_cluster(
        reservations=reservations,
        demands=[r + 4.0 * pool / n for r in reservations],
        scale=DES_1K_SCALE, master_seed=seed,
    )
    return _QosRun(params, list(reservations), cluster)


def _des1k_collect(state) -> Outcome:
    result = state.result
    attain = _attainments(result, state.reservations)
    worst = min(attain)
    completed, failed, samples, count = _qos_io_totals(state.cluster)
    checks = [
        _check("reservations_met", worst >= MIN_ATTAINMENT,
               f"worst of {len(attain)} clients at {worst:.4f}",
               standard_only=True),
        _check("no_failed_ops", failed == 0, f"{failed} failed"),
    ]
    end_to_end = {
        "sim_total_kiops": result.total_kiops(),
        "sim_min_attainment": worst,
    }
    end_to_end.update(
        _latency_metrics(samples, count, state.cluster.scale.factor)
    )
    return Outcome(
        sim={
            "total_kiops": result.total_kiops(),
            "period_totals": list(result.period_totals),
            "client_period_counts": result.client_period_counts,
            "estimator_history": list(result.estimator_history),
        },
        end_to_end=end_to_end,
        attempted=completed + failed, failed=failed, completed=completed,
        work_units=completed, client_periods=0,
        counters=_des_counters([state.cluster], completed),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# fabric_incast_mixed
# ---------------------------------------------------------------------------
FABRIC_WINDOW = 32
FABRIC_CHAIN = 16
#: Simulated-time slice between "has every sender finished?" polls, and
#: the point at which an unfinished run is declared stuck.
FABRIC_SLICE_S = 0.005
FABRIC_HORIZON_S = 30.0


@dataclasses.dataclass
class _Fabric:
    cluster: object
    senders: List[IncastSender]


def _fabric_setup(params: dict, seed: int):
    cluster = build_cluster(
        num_clients=params["senders"], qos_mode=QoSMode.BARE,
        scale=TEST_SCALE, master_seed=seed,
        fabric_model=FabricModel.chameleon(cc_enabled=True),
    )
    region = cluster.server_host.memory.allocate_and_register(
        4096, Permissions.all()
    )
    senders = [
        IncastSender(
            cluster.sim, ctx.kv, ctx.name, params["ops"], FABRIC_WINDOW,
            # C1, C3, ... post doorbell-batched chains; C2, C4, ... singly.
            chain=FABRIC_CHAIN if i % 2 == 0 else 1,
            atomic_region=region, seed=seed,
        )
        for i, ctx in enumerate(cluster.clients)
    ]
    return _Fabric(cluster, senders)


def _fabric_run(state, watch) -> None:
    sim = state.cluster.sim
    if watch is not None:
        watch.begin()
    for sender in state.senders:
        sender.start()
    # The bare cluster's metrics collector re-arms itself forever, so
    # the heap never drains: advance in slices until the senders finish.
    while (sim.now < FABRIC_HORIZON_S
           and any(s.finished_at is None for s in state.senders)):
        sim.run(until=sim.now + FABRIC_SLICE_S)
        if watch is not None:
            watch.sample(sim)
    if watch is not None:
        watch.end()


def _fabric_collect(state) -> Outcome:
    senders = state.senders
    completed = sum(s.completed for s in senders)
    failed = sum(s.failed for s in senders)
    planned = sum(s.total for s in senders)
    finished = [s.finished_at for s in senders]
    all_finished = all(t is not None for t in finished)
    makespan = max(finished) if all_finished else None
    sq_in_use = sum(ctx.kv.qp.fab.sq.in_use
                    for ctx in state.cluster.clients)
    checks = [
        _check("every_sender_finished", all_finished,
               f"{sum(t is not None for t in finished)}/{len(senders)}"),
        _check("no_failed_ops", failed == 0, f"{failed} failed"),
        _check("sq_drained", sq_in_use == 0, f"{sq_in_use} slots held"),
    ]
    samples: List[float] = []
    for s in senders:
        samples.extend(s.latencies)
    end_to_end = {
        "sim_total_kiops": (
            completed / makespan / 1000.0 if makespan else 0.0
        ),
    }
    end_to_end.update(_latency_metrics(samples, len(samples), 1.0))
    return Outcome(
        sim={
            "senders": {s.name: s.summary() for s in senders},
            "makespan": makespan,
            "cc": state.cluster.fabric.cc_summary(),
        },
        end_to_end=end_to_end,
        # An op the run never got to (a stuck sender) counts as failed.
        attempted=planned, failed=planned - completed, completed=completed,
        work_units=completed, client_periods=0,
        counters=_des_counters([state.cluster], completed),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# fluid_1m_tenants
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _Fluid:
    params: dict
    config: HaechiConfig
    hierarchy: object
    engine: FluidEngine
    ledger: TokenLedger
    resize_ops: List[dict] = dataclasses.field(default_factory=list)


def _fluid_setup(params: dict, seed: int):
    """The composition of ``fluid.scenario.run_fluid_scale`` (stock
    brownout over three periods from the one-third mark, resize at the
    two-thirds mark), assembled from its public pieces so the hierarchy
    and flow build are timed apart from the run."""
    periods = params["periods"]
    config = HaechiConfig.paper(token_conversion=True)
    rate = NICProfile.chameleon().onesided_saturation_rate()
    capacity = config.tokens_per_period(rate)
    hierarchy, demand_map = build_scale_hierarchy(
        params["clients"], tenants=params["tenants"],
        groups_per_tenant=params["groups"], config=config,
        capacity_tokens=capacity, seed=seed,
    )
    flows = flows_from_hierarchy(
        hierarchy, demand_of=lambda t, g: demand_map[f"{t.name}/{g.name}"],
    )
    estimator = AdaptiveCapacityEstimator(
        profiled=ProfiledCapacity(mean=float(capacity),
                                  stddev=PROFILE_RSD * capacity),
        eta=config.eta, history_window=config.history_window,
        saturation_tolerance=config.saturation_tolerance,
    )
    start = (periods // 3) * config.period
    plan = FaultPlan(brownouts=(
        Brownout("server", start, start + 3 * config.period, 0.6),
    ))
    ledger = TokenLedger()
    engine = FluidEngine(flows, config, estimator,
                         physical_capacity=capacity, plan=plan,
                         ledger=ledger)
    return _Fluid(params, config, hierarchy, engine, ledger)


def _fluid_run(state, watch) -> None:
    if watch is not None:
        watch.begin()
    periods = state.params["periods"]
    hierarchy = state.hierarchy
    engine = state.engine
    resize_point = max(1, (2 * periods) // 3)
    engine.run(resize_point)
    by_res = sorted(hierarchy.tenants, key=lambda t: t.reservation)
    largest, smallest = by_res[-1], by_res[0]
    shrink = int(largest.reservation * 0.2)
    state.resize_ops += hierarchy.resize_tenant(
        largest.name, largest.reservation - shrink
    )
    state.resize_ops += hierarchy.resize_tenant(
        smallest.name, smallest.reservation + shrink
    )
    engine.apply_hierarchy(hierarchy)
    engine.run(periods - resize_point)
    if watch is not None:
        watch.end()


def _fluid_collect(state) -> Outcome:
    engine = state.engine
    periods = engine.period_id
    hierarchy_violations = state.hierarchy.conservation_violations()
    ledger_violations = state.ledger.check_conservation()
    completions = engine.flow_completions
    total = sum(sum(counts) for counts in completions.values())
    # A flow is promised its reservation only as far as it asks for it.
    promised = [
        (sum(completions[f.name]) / periods) / min(f.demand, f.reservation)
        for f in engine.flows if min(f.demand, f.reservation) > 0
    ]
    worst = min(promised)
    checks = [
        _check("hierarchy_conserved", not hierarchy_violations,
               "; ".join(hierarchy_violations[:3])),
        _check("ledger_conserved", not ledger_violations,
               "; ".join(ledger_violations[:3])),
        _check("reservations_met", worst >= MIN_ATTAINMENT,
               f"worst of {len(promised)} flows at {worst:.4f}",
               standard_only=True),
    ]
    counters = _zero_counters()
    counters.update({
        "fluid.engine.flow_periods": len(engine.flows) * periods,
        "fluid.engine.conversions": engine.conversions,
        "fluid.engine.faa_batches": engine.faa_batches,
        "telemetry.ledger.entries": len(state.ledger.events),
        "tenancy.hierarchy.clamp_events": len(state.hierarchy.clamp_events),
        "tenancy.hierarchy.resize_ops": len(state.resize_ops),
        "core.monitor.capacity_estimate_end": engine.estimator.current,
    })
    return Outcome(
        sim={
            "num_clients": engine.total_clients,
            "flows": len(engine.flows),
            "periods": periods,
            "attainment": engine.attainment(),
            "tenant_rollup": engine.tenant_rollup(),
            "flow_completions": dict(sorted(completions.items())),
            "conversions": engine.conversions,
            "faa_batches": engine.faa_batches,
            "resize_ops": state.resize_ops,
            "resize_log": engine.resize_log,
            "ledger_totals": state.ledger.totals(),
        },
        end_to_end={
            "sim_total_kiops": (
                total / periods / state.config.period / 1000.0
            ),
            "sim_min_attainment": worst,
        },
        # I/Os are aggregate in the fluid model: a token spent is an I/O
        # completed, and the model has no way for one to fail.
        attempted=total, failed=0, completed=total,
        work_units=len(engine.flows) * periods,
        client_periods=engine.total_clients * periods,
        counters=counters,
        checks=checks,
    )


# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    collect: Callable


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig12_sweep", _fig12_setup, _fig12_run, _fig12_collect),
        Workload("des_1k_clients", _des1k_setup, _run_qos, _des1k_collect),
        Workload("fabric_incast_mixed", _fabric_setup, _fabric_run,
                 _fabric_collect),
        Workload("fluid_1m_tenants", _fluid_setup, _fluid_run,
                 _fluid_collect),
    )
}
