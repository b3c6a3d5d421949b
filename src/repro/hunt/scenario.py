"""Execute one scenario-space candidate and judge it by every oracle.

``run_spec`` is the hunt's measurement kernel.  A DES candidate is a
:class:`~repro.cluster.chaos.ChaosScenario` declared from its
:class:`~repro.hunt.space.ScenarioSpec` and run by the chaos spine; a
fluid candidate runs the aggregated flow engine.  Both are judged by
the spine's one oracle loop (:func:`repro.cluster.chaos.judge`) into a
JSON-serializable verdict: structured violations plus headline
counters.  Same (spec, seed) in, same verdict out, bit for bit: the
search loop, the minimizer, and ``hunt replay`` all trust this.

The module registers itself with :mod:`repro.cluster.runner` as the
``"hunt-candidate"`` scenario, so search batches fan out through the
same parallel cell runner (and result cache) the evaluation suite uses.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.cluster.chaos import ChaosRun, ChaosScenario, ClusterKind, judge, run
from repro.cluster.runner import register_scenario
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import paper_demands, qos_cluster, reservation_set
from repro.common.errors import QoSError
from repro.core.invariants import InvariantChecker
from repro.core.violations import Violation
from repro.hunt.space import (
    CAPACITY_OPS,
    FLUID_GROUPS_PER_TENANT,
    PER_CLIENT_RESERVATION_CAP,
    ScenarioSpec,
)
from repro.workloads.patterns import RequestPattern
from repro.workloads.reservations import zipf_group_distribution

# Same dilation as the chaos harnesses: 1 ms periods, 20 us ticks —
# fast enough that a search budget of hundreds is cheap.
HUNT_SCALE = SimScale(factor=1000, interval_divisor=50)


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
    demands = [d * spec.demand_factor
               for d in paper_demands(reservations, pool_share)]
    limits = None
    if spec.limit_factor is not None:
        limits = [spec.limit_factor * r for r in reservations]
    return reservations, demands, limits


def spec_hierarchy(spec: ScenarioSpec, config, reservations_ops):
    """A DES-mode hierarchy over the spec's *exact* reservations.

    Clients split into ``tenant_count`` contiguous chunks, so leaf
    order is client-index order (``bind_hierarchy`` assumes it); each
    client is its own leaf group, so binding changes nothing about the
    workload, only adds the envelopes the conservation oracle audits.
    """
    from repro.globalqos.waterfill import largest_remainder
    from repro.tenancy.hierarchy import ClientGroup, Tenant, TenantHierarchy

    leaves = iter([
        ClientGroup(name=f"c{i + 1}",
                    reservation=config.tokens_per_period(r), clients=1)
        for i, r in enumerate(reservations_ops)
    ])
    tenants = []
    sizes = largest_remainder(spec.num_clients, [1.0] * spec.tenant_count)
    for t, size in enumerate(sizes):
        groups = [next(leaves) for _ in range(size)]
        tenants.append(Tenant(
            name=f"T{t + 1}",
            reservation=sum(g.reservation for g in groups),
            groups=groups,
        ))
    return TenantHierarchy(tenants)


class _Candidate:
    """One DES candidate's declaration parts, bound to its spec: the
    spine's ``build``/``arm`` hooks and the ``hunt`` cluster kind's
    evidence adapters."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.reservations, self.demands, self.limits = spec_workload(spec)
        self.checker = None

    def build(self, seed: int):
        spec = self.spec
        build_kwargs = {}
        if spec.fabric_mode:
            # v3 fabric gene: run the candidate on the congestion-
            # controlled datapath so oracle violations can surface from
            # PCIe posting, SQ backpressure, DCQCN pacing, and PFC.
            from repro.rdma.cc import FabricModel

            build_kwargs["fabric_model"] = FabricModel.chameleon()
        cluster = qos_cluster(
            reservations=self.reservations,
            demands=self.demands,
            pattern=RequestPattern(spec.pattern.replace("-", "_")),
            scale=HUNT_SCALE,
            limits_ops=self.limits,
            master_seed=seed,
            **build_kwargs,
        )
        if spec.tenant_count > 0:
            from repro.tenancy.binding import bind_hierarchy

            bind_hierarchy(cluster, spec_hierarchy(spec, cluster.config,
                                                   self.reservations))
        # Built before the spine attaches the hub: the checker's first
        # tick takes its heap sequence number ahead of the hub's.
        self.checker = InvariantChecker(cluster)
        return cluster

    def arm(self, cluster, plan) -> Dict[str, List[Tuple]]:
        """Arm the v4 policy gene: ``spec.policy_version`` revisions
        hot-swapped mid-run through the monitor's resize path; returns
        each client's applied ``(term, flip, revision)`` keys.

        Revision ``k`` scales client ``i`` by 0.8x or 1.2x (capped at
        its demand) by the parity of ``i + k``, shrinks at the flip
        tick and grows one check interval later.  Every apply is a
        ``policy_apply`` ledger event.  Evicted clients (crash genes cost
        leases) are skipped: resizing a ghost is the monitor's to refuse.
        """
        spec, config, sim = self.spec, cluster.config, cluster.sim
        live = [ctx for ctx in cluster.clients if ctx.engine is not None]
        current = {ctx.index: config.tokens_per_period(
            self.reservations[ctx.index]) for ctx in live}
        keys: Dict[str, List[Tuple]] = {ctx.name: [] for ctx in live}

        def apply_one(index: int, version: int, target: int) -> None:
            try:
                granted = cluster.monitor.update_reservation(
                    index, target)["reservation"]
            except QoSError:
                return
            name = cluster.clients[index].name
            sim.telemetry.ledger.policy_apply(
                version, name, version, [current[index]], [granted],
                sim.now, term=1, policy="hunt-synth", source="hunt",
            )
            current[index] = granted
            keys[name].append((1, version, version))

        def flip(version: int) -> None:
            shrinks, grows = [], []
            for index, tokens in sorted(current.items()):
                if (index + version) % 2 == 0:
                    target = int(tokens * 0.8)
                else:
                    target = min(int(tokens * 1.2), config.tokens_per_period(
                        self.demands[index]))
                (shrinks if target <= tokens else grows).append(
                    (index, target))
            for index, target in shrinks:
                apply_one(index, version, target)
            for index, target in grows:
                sim.schedule_at(sim.now + config.check_interval,
                                apply_one, index, version, target)

        # Flips spread over (1, fault_end) periods: the last revision
        # still has the full settle tail to become the reservation the
        # reservations-met oracle measures against.
        span = spec.fault_end_period() - 1.0
        for version in range(1, spec.policy_version + 1):
            sim.schedule_at(
                (1.0 + version * span / (spec.policy_version + 1))
                * config.period,
                flip, version,
            )
        return keys

    def client_rows(self, run: ChaosRun):
        """The ``(reservation, progress, queue)`` rows of every client
        that is not dark at run end and still has its engine."""
        spec, cluster, config = self.spec, run.cluster, run.cluster.config
        dark = set(spec.dark_at_end())
        reservation_rows, progress_rows, queue_rows = [], [], []
        for i, ctx in enumerate(cluster.clients):
            if ctx.name in dark or ctx.engine is None:
                continue
            counts = cluster.metrics.clients[ctx.name].period_counts
            granted = ctx.engine.tokens.reservation
            if counts and granted > 0:
                reservation_rows.append((ctx.name, counts[-1], granted))
            progress_rows.append((ctx.name, counts, self.demands[i]))
            # Over-demand necessarily backlogs demand minus what the
            # system can deliver to this client: the promised rate
            # (demand / demand_factor) capped by the local capacity C_L
            # and the client's limit L_i.  Anomalous growth is a queue
            # beyond that backlog plus two periods of slack (ramp-up
            # and in-flight accounting transients).
            demand_tokens = config.tokens_per_period(self.demands[i])
            deliverable = config.tokens_per_period(
                self.demands[i] / spec.demand_factor
            )
            if cluster.admission is not None:
                deliverable = min(deliverable,
                                  cluster.admission.local_capacity)
            if ctx.engine.limit is not None:
                deliverable = min(deliverable, ctx.engine.limit)
            bound = int(spec.periods * max(0, demand_tokens - deliverable)
                        + 2 * demand_tokens)
            if spec.policy_version > 0:
                # Policy revisions compound to at most a ~25%
                # reservation cut (alternating 0.8x / 1.2x-capped over
                # <= MAX_POLICY_VERSION flips): expected backlog too.
                bound += int(0.25 * deliverable * spec.periods)
            queue_rows.append((ctx.name, ctx.engine.queue_depth, bound))
        return reservation_rows, progress_rows, queue_rows

    def counters(self, run: ChaosRun) -> dict:
        cluster, injector = run.cluster, run.cluster.fault_injector
        return {
            "checks_run": self.checker.checks_run,
            "completions_total": sum(
                m.completed.total for m in cluster.metrics.clients.values()
            ),
            "faults_dropped": sum(injector.dropped.values()) if injector else 0,
            "faults_delayed": sum(injector.delayed.values()) if injector else 0,
            "qps_closed": injector.qps_closed if injector else 0,
        }

    def scenario(self) -> ChaosScenario:
        spec = self.spec
        # Evaluation order: checker, ledger, policy, hierarchy, rows.
        oracles = ["invariant-checker", "ledger-conservation"]
        if spec.policy_version > 0:
            oracles += ["policy-audit", "no-stale-policy"]
        if spec.tenant_count > 0:
            oracles.append("hierarchy-conservation")
        oracles += ["reservations-met", "progress", "queue-bounded"]
        kind = ClusterKind(name="hunt", drive=lambda *_: None, evidence={
            "invariant-checker": lambda run: (self.checker,),
            "ledger-conservation": lambda run: (run.ledger,),
            "policy-audit": lambda run: (run.ledger,),
            "no-stale-policy": lambda run: (sorted(run.armed.items()),),
            "hierarchy-conservation": lambda run: (
                run.cluster.tenancy.rollup_conservation(),
            ),
            "reservations-met": lambda run: (self.client_rows(run)[0],),
            "progress": lambda run: (self.client_rows(run)[1],),
            "queue-bounded": lambda run: (self.client_rows(run)[2],),
        })
        return ChaosScenario(
            name="hunt-candidate", summary="one scenario-space candidate",
            seeds=(), periods=spec.periods, kind=kind, build=self.build,
            plan=lambda seed, cluster, periods: spec.compile_plan(
                cluster.config),
            oracles=tuple(oracles), checks=lambda run: (),
            counters=self.counters, exercised=(), columns=(), arm=self.arm,
        )


def _verdict(violations: List[Violation], counters: dict) -> dict:
    return {
        "violations": [v.to_dict() for v in violations],
        "kinds": sorted({v.kind for v in violations}),
        "counters": counters,
    }


def run_spec(spec: ScenarioSpec, seed: int) -> dict:
    """Run one candidate; return its oracle verdict and counters."""
    if spec.fluid_mode:
        return _run_fluid_spec(spec, seed)
    report, _cluster = run(_Candidate(spec).scenario(), seed)
    return _verdict(report.findings, report.counters)


def _run_fluid_spec(spec: ScenarioSpec, seed: int) -> dict:
    """Fluid-mode candidate: the aggregated flow engine, its hierarchy
    seeded from ``(spec, seed)`` by the scale scenario's generator,
    class demands scaled by ``demand_factor``, fault genes compiled
    onto flow classes (:meth:`ScenarioSpec.victim`).  The engine reads
    only capacity factors, partitions and crash windows, so control
    drop/delay genes and ``qp-close`` genes are inert here."""
    from repro.fluid.scenario import build_scale_hierarchy, fluid_engine

    config = HUNT_SCALE.config()
    hierarchy, demand_map = build_scale_hierarchy(
        spec.num_clients, tenants=spec.tenant_count,
        groups_per_tenant=FLUID_GROUPS_PER_TENANT, config=config,
        seed=seed, reserved_fraction=spec.reserved_fraction,
    )
    engine = fluid_engine(
        hierarchy,
        {name: int(round(demand * spec.demand_factor))
         for name, demand in demand_map.items()},
        config,
        plan=spec.compile_plan(config),
    )
    engine.run(spec.periods)

    dark = set(spec.dark_at_end())
    live = [flow for flow in engine.flows if flow.name not in dark]
    counts = engine.flow_completions
    # A flow can never complete more than it demands, so the settle
    # target is the reservation capped by demand.
    target = {flow.name: min(flow.reservation, flow.demand) for flow in live}
    evidence = {
        "ledger-conservation": lambda e: (e.ledger,),
        "hierarchy-conservation": lambda e: (
            hierarchy.conservation_violations(),
        ),
        "reservations-met": lambda e: ([
            (flow.name, counts[flow.name][-1], target[flow.name])
            for flow in live if counts[flow.name] and target[flow.name] > 0
        ],),
        "progress": lambda e: ([
            (flow.name, counts[flow.name], float(flow.demand))
            for flow in live
        ],),
    }
    return _verdict(judge(evidence, engine), {
        "checks_run": 0,
        "completions_total": sum(sum(c) for c in counts.values()),
        "faults_dropped": 0, "faults_delayed": 0, "qps_closed": 0,
        "fluid_flows": len(engine.flows),
        "fluid_clients": engine.total_clients,
        "fluid_conversions": engine.conversions,
    })


@register_scenario("hunt-candidate")
def _hunt_candidate(params: Mapping, seed: int) -> dict:
    """Runner cell: ``params = {"spec": ScenarioSpec.to_dict()}``."""
    return run_spec(ScenarioSpec.from_dict(dict(params["spec"])), seed)
