"""Execute one scenario-space candidate and evaluate every oracle.

``run_spec`` is the hunt's measurement kernel: build the cluster a
:class:`~repro.hunt.space.ScenarioSpec` describes, attach the per-tick
:class:`~repro.core.invariants.InvariantChecker` and a ledger-only
telemetry hub, install the compiled fault plan, run the exact DES, and
return a JSON-serializable verdict — structured violations from the
full oracle registry plus headline counters.  Same (spec, seed) in,
same verdict out, bit for bit: the search loop, the minimizer, and
``hunt replay`` all trust this.

The module registers itself with :mod:`repro.cluster.runner` as the
``"hunt-candidate"`` scenario, so search batches fan out through the
same parallel cell runner (and result cache) the evaluation suite uses.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.common.errors import QoSError
from repro.core.invariants import InvariantChecker
from repro.core.violations import Violation
from repro.cluster.runner import register_scenario
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import paper_demands, qos_cluster, reservation_set
from repro.hunt.oracles import (
    check_hierarchy_conservation,
    check_ledger_conservation,
    check_no_stale_policy,
    check_policy_audit,
    check_progress,
    check_queue_growth,
    check_reservations_met,
)
from repro.hunt.space import (
    CAPACITY_OPS,
    FLUID_GROUPS_PER_TENANT,
    PER_CLIENT_RESERVATION_CAP,
    ScenarioSpec,
)
from repro.telemetry import TelemetryConfig, attach_telemetry
from repro.workloads.patterns import RequestPattern
from repro.workloads.reservations import zipf_group_distribution

# Same dilation as the chaos harnesses: 1 ms periods, 20 us ticks —
# fast enough that a search budget of hundreds is cheap.
HUNT_SCALE = SimScale(factor=1000, interval_divisor=50)

_PATTERNS = {
    "burst": RequestPattern.BURST,
    "constant-rate": RequestPattern.CONSTANT_RATE,
}


def spec_workload(spec: ScenarioSpec):
    """The (reservations, demands, limits) a spec resolves to, in ops/s.

    Demand follows Experiment 2A's rule (reservation plus an even pool
    share), scaled by the spec's ``demand_factor``; limits are a
    multiple of each reservation so they can never contradict it.
    """
    total = spec.total_reserved_ops()
    if spec.distribution == "zipf":
        # One group per client: the paper's 5-group shape requires the
        # client count to divide evenly, which the search space doesn't.
        base = zipf_group_distribution(total, spec.num_clients,
                                       num_groups=spec.num_clients)
    else:
        base = reservation_set(spec.distribution, total, spec.num_clients)
    # Elementwise cap keeps skewed distributions inside the admission
    # controller's local (single-client) capacity limit.
    reservations = [min(r, int(PER_CLIENT_RESERVATION_CAP)) for r in base]
    pool_share = (CAPACITY_OPS - sum(reservations)) / spec.num_clients
    demands = [
        d * spec.demand_factor
        for d in paper_demands(reservations, pool_share)
    ]
    limits = None
    if spec.limit_factor is not None:
        limits = [spec.limit_factor * r for r in reservations]
    return reservations, demands, limits


def spec_hierarchy(spec: ScenarioSpec, config, reservations_ops):
    """A DES-mode hierarchy over the spec's *exact* reservations.

    Clients split into ``tenant_count`` contiguous chunks (contiguous
    so leaf order matches client-index order, which is what
    ``bind_hierarchy`` assumes); each client is its own leaf group, so
    binding the hierarchy changes nothing about the workload — it only
    adds the nesting envelopes the conservation oracle audits.
    """
    from repro.globalqos.waterfill import largest_remainder
    from repro.tenancy.hierarchy import (
        ClientGroup,
        Tenant,
        TenantHierarchy,
    )

    tokens = [config.tokens_per_period(r) for r in reservations_ops]
    sizes = largest_remainder(
        spec.num_clients, [1.0] * spec.tenant_count
    )
    tenants = []
    index = 0
    for t, size in enumerate(sizes):
        groups = [
            ClientGroup(name=f"c{index + k + 1}",
                        reservation=tokens[index + k], clients=1)
            for k in range(size)
        ]
        index += size
        tenants.append(Tenant(
            name=f"T{t + 1}",
            reservation=sum(g.reservation for g in groups),
            groups=groups,
        ))
    return TenantHierarchy(tenants)


def _schedule_policy_flips(cluster, spec: ScenarioSpec, reservations,
                           demands, hub) -> Dict[str, List[Tuple]]:
    """Arm the v4 policy gene: ``spec.policy_version`` synthesized
    revisions hot-swapped mid-run through the monitor's resize path.

    Revision ``k`` re-shapes the reservation mix — alternating
    0.8x / 1.2x by ``(client, k)`` parity, increases capped at each
    client's demand so the settle oracle keeps meaning — applied
    decrease-before-increase: shrinks at the flip tick, grows one
    check interval later, against the headroom the shrinks freed.
    Every apply lands in the ledger as a ``policy_apply`` event
    (arming the policy-audit oracle) and records its
    ``(term, flip, revision)`` key for the no-stale-policy oracle.
    Evicted clients (crash genes cost leases) are skipped, not
    errored: resizing a ghost is the monitor's call to refuse.
    """
    config = cluster.config
    T = config.period
    sim = cluster.sim
    monitor = cluster.monitor
    ledger = hub.ledger
    live = [ctx for ctx in cluster.clients if ctx.engine is not None]
    current = {
        ctx.index: config.tokens_per_period(reservations[ctx.index])
        for ctx in live
    }
    demand_tokens = {
        ctx.index: config.tokens_per_period(demands[ctx.index])
        for ctx in live
    }
    names = {ctx.index: ctx.name for ctx in live}
    keys: Dict[str, List[Tuple]] = {ctx.name: [] for ctx in live}

    def apply_one(index: int, version: int, target: int) -> None:
        try:
            granted = monitor.update_reservation(index, target)["reservation"]
        except QoSError:
            return
        previous = current[index]
        current[index] = granted
        ledger.policy_apply(
            version, names[index], version, [previous], [granted],
            sim.now, term=1, policy="hunt-synth", source="hunt",
        )
        keys[names[index]].append((1, version, version))

    def flip(version: int) -> None:
        shrinks, grows = [], []
        for index, tokens in sorted(current.items()):
            if (index + version) % 2 == 0:
                target = int(tokens * 0.8)
            else:
                target = min(int(tokens * 1.2), demand_tokens[index])
            (shrinks if target <= tokens else grows).append((index, target))
        for index, target in shrinks:
            apply_one(index, version, target)
        for index, target in grows:
            sim.schedule_at(sim.now + config.check_interval,
                            apply_one, index, version, target)

    # Flips spread over (1, fault_end) periods: the last revision still
    # has the full settle tail to become the reservation the
    # reservations-met oracle measures against.
    span = spec.fault_end_period() - 1.0
    for version in range(1, spec.policy_version + 1):
        sim.schedule_at(
            (1.0 + version * span / (spec.policy_version + 1)) * T,
            flip, version,
        )
    return keys


def run_spec(spec: ScenarioSpec, seed: int) -> dict:
    """Run one candidate; return its oracle verdict and counters."""
    if spec.fluid_mode:
        return _run_fluid_spec(spec, seed)
    reservations, demands, limits = spec_workload(spec)
    build_kwargs = {}
    if spec.fabric_mode:
        # v3 fabric gene: run the candidate on the congestion-controlled
        # datapath so oracle violations can surface from PCIe posting,
        # SQ backpressure, DCQCN pacing, and PFC interactions.
        from repro.rdma.cc import FabricModel

        build_kwargs["fabric_model"] = FabricModel.chameleon()
    cluster = qos_cluster(
        reservations=reservations,
        demands=demands,
        pattern=_PATTERNS[spec.pattern],
        scale=HUNT_SCALE,
        limits_ops=limits,
        master_seed=seed,
        **build_kwargs,
    )
    config = cluster.config
    if spec.tenant_count > 0:
        from repro.tenancy.binding import bind_hierarchy

        bind_hierarchy(cluster, spec_hierarchy(spec, config, reservations))
    checker = InvariantChecker(cluster)
    hub = attach_telemetry(
        cluster, TelemetryConfig(sample_every=0, control_spans=False)
    )
    plan = spec.compile_plan(config)
    if not plan.empty:
        cluster.inject_faults(plan, seed=seed)
    policy_keys: Dict[str, List[Tuple]] = {}
    if spec.policy_version > 0:
        policy_keys = _schedule_policy_flips(
            cluster, spec, reservations, demands, hub
        )

    cluster.start()
    T = config.period
    cluster.sim.run(until=spec.periods * T + T * 1e-6)
    cluster.flush_ledgers()

    violations = _evaluate_oracles(cluster, spec, checker, hub, demands,
                                   policy_keys)
    injector = cluster.fault_injector
    return {
        "violations": [v.to_dict() for v in violations],
        "kinds": sorted({v.kind for v in violations}),
        "counters": {
            "checks_run": checker.checks_run,
            "completions_total": sum(
                m.completed.total for m in cluster.metrics.clients.values()
            ),
            "faults_dropped": (
                sum(injector.dropped.values()) if injector else 0
            ),
            "faults_delayed": (
                sum(injector.delayed.values()) if injector else 0
            ),
            "qps_closed": injector.qps_closed if injector else 0,
        },
    }


def _evaluate_oracles(cluster, spec: ScenarioSpec, checker, hub,
                      demands, policy_keys=None) -> List[Violation]:
    """The full oracle registry over one finished run."""
    violations: List[Violation] = list(checker.violations)
    violations.extend(check_ledger_conservation(hub.ledger))
    if spec.policy_version > 0:
        violations.extend(check_policy_audit(hub.ledger))
        violations.extend(check_no_stale_policy(
            sorted((policy_keys or {}).items())
        ))
    binding = getattr(cluster, "tenancy", None)
    if binding is not None:
        violations.extend(check_hierarchy_conservation(
            binding.rollup_conservation()
        ))

    dark = set(spec.dark_at_end())
    reservation_rows = []
    progress_rows = []
    queue_rows = []
    for i, ctx in enumerate(cluster.clients):
        if ctx.name in dark or ctx.engine is None:
            continue
        counts = cluster.metrics.clients[ctx.name].period_counts
        granted = ctx.engine.tokens.reservation
        if counts and granted > 0:
            reservation_rows.append((ctx.name, counts[-1], granted))
        progress_rows.append((ctx.name, counts, demands[i]))
        # Over-demand necessarily backlogs the excess of demand over
        # what the system can actually deliver to this client: the
        # promised rate (reservation + pool share = demand /
        # demand_factor), capped by the single-client local capacity
        # C_L and by the client's own limit L_i.  Anomalous growth is
        # a queue beyond that expected backlog plus slack.
        demand_tokens = cluster.config.tokens_per_period(demands[i])
        deliverable = cluster.config.tokens_per_period(
            demands[i] / spec.demand_factor
        )
        if cluster.admission is not None:
            deliverable = min(deliverable, cluster.admission.local_capacity)
        if ctx.engine.limit is not None:
            deliverable = min(deliverable, ctx.engine.limit)
        # Two periods of full demand as slack absorbs ramp-up and
        # in-flight accounting transients.
        bound = int(
            spec.periods * max(0, demand_tokens - deliverable)
            + 2 * demand_tokens
        )
        if spec.policy_version > 0:
            # The policy gene legitimately withholds delivery from
            # shrunk clients: revisions compound to at most a ~25%
            # reservation cut (0.8x shrinks, 1.2x demand-capped grows,
            # alternating over <= MAX_POLICY_VERSION flips), and that
            # shortfall is expected backlog, not anomalous growth.
            bound += int(0.25 * deliverable * spec.periods)
        queue_rows.append((ctx.name, ctx.engine.queue_depth, bound))

    violations.extend(check_reservations_met(reservation_rows))
    violations.extend(check_progress(progress_rows))
    violations.extend(check_queue_growth(queue_rows))
    return violations


def _run_fluid_spec(spec: ScenarioSpec, seed: int) -> dict:
    """Fluid-mode candidate: the aggregated flow engine under the
    spec's fault genome.

    The hierarchy shape is seeded from ``(spec, seed)`` via the scale
    scenario's generator; the spec's ``demand_factor`` scales every
    class demand and its fault genes compile onto fluid rates (victims
    are flow classes — see :meth:`ScenarioSpec.victim`).  Control-plane
    drop/delay genes have no fluid analogue (the engine has no per-op
    control messages) and are inert here by design.
    """
    from repro.fluid.scenario import build_scale_hierarchy, fluid_engine

    config = HUNT_SCALE.config()
    hierarchy, demand_map = build_scale_hierarchy(
        spec.num_clients,
        tenants=spec.tenant_count,
        groups_per_tenant=FLUID_GROUPS_PER_TENANT,
        config=config,
        seed=seed,
        reserved_fraction=spec.reserved_fraction,
    )
    engine = fluid_engine(
        hierarchy,
        {name: int(round(demand * spec.demand_factor))
         for name, demand in demand_map.items()},
        config,
        plan=spec.compile_plan(config),
    )
    engine.run(spec.periods)

    violations: List[Violation] = []
    violations.extend(check_ledger_conservation(engine.ledger))
    violations.extend(check_hierarchy_conservation(
        hierarchy.conservation_violations()
    ))
    dark = set(spec.dark_at_end())
    reservation_rows = []
    progress_rows = []
    for flow in engine.flows:
        if flow.name in dark:
            continue
        counts = engine.flow_completions[flow.name]
        # A flow can never complete more than it demands, so the
        # settle target is the reservation capped by demand.
        target = min(flow.reservation, flow.demand)
        if counts and target > 0:
            reservation_rows.append((flow.name, counts[-1], target))
        progress_rows.append((flow.name, counts, float(flow.demand)))
    violations.extend(check_reservations_met(reservation_rows))
    violations.extend(check_progress(progress_rows))

    return {
        "violations": [v.to_dict() for v in violations],
        "kinds": sorted({v.kind for v in violations}),
        "counters": {
            "checks_run": 0,
            "completions_total": sum(
                sum(counts)
                for counts in engine.flow_completions.values()
            ),
            "faults_dropped": 0,
            "faults_delayed": 0,
            "qps_closed": 0,
            "fluid_flows": len(engine.flows),
            "fluid_clients": engine.total_clients,
            "fluid_conversions": engine.conversions,
        },
    }


@register_scenario("hunt-candidate")
def _hunt_candidate(params: Mapping, seed: int) -> dict:
    """Runner cell: ``params = {"spec": ScenarioSpec.to_dict()}``."""
    return run_spec(ScenarioSpec.from_dict(dict(params["spec"])), seed)
