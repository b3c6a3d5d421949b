"""The scenario parameter space the anomaly hunt searches.

A :class:`ScenarioSpec` is one point in the space: a typed, frozen,
JSON-round-trippable genome describing a whole run — client count,
reservation mix, limits, demand and burstiness, run length, and a list
of :class:`FaultGene` events (the fault-plan genome, kept in *period*
units so mutation is scale-free; :meth:`ScenarioSpec.compile_plan`
lowers it to an absolute-time :class:`~repro.faults.plan.FaultPlan`).

Operators are all seeded: :func:`random_spec` samples the space,
:func:`mutate` perturbs one gene or edits the fault list, and
:func:`crossover` mixes two parents.  Every operator goes through
:func:`clamp_spec`, the single place where cross-gene validity lives
(fault windows inside the faulted region, victims within the client
count, spike needs enough clients), so search code never produces a
spec the executor rejects.

The gene table also records each gene's **floor** — the simplest value
— which is what delta-debugging shrinks toward (see
:mod:`repro.hunt.minimize`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import List, Optional, Tuple

from repro.common.codec import from_payload, to_payload
from repro.common.errors import ConfigError
from repro.cluster.calibration import CHAMELEON
from repro.faults.plan import (
    Brownout,
    CrashWindow,
    DelayRule,
    DropRule,
    FaultPlan,
    OpFilter,
    PartitionRule,
    QPCloseFault,
    SlowdownRule,
)

SPEC_SCHEMA_VERSION = 4

#: Schema versions :meth:`ScenarioSpec.from_dict` reads.  Older specs
#: are re-serialized, not read: v4 with ``tenant_count=0``,
#: ``fluid_mode=False``, ``fabric_mode=False`` and ``policy_version=0``
#: is exactly a v1 spec's behaviour.
COMPAT_SCHEMA_VERSIONS = (SPEC_SCHEMA_VERSION,)

# Liveness oracles need a fault-free tail to converge in; probabilistic
# and windowed faults are clamped to end before it.  (Permanent events
# — qp-close, no-restart crashes — intentionally violate it: finding
# what breaks when a fault never clears is the point.)
SETTLE_PERIODS = 2

# Per-client reservation ceiling (ops/s) so small-client-count specs
# stay inside the admission controller's local cap.
PER_CLIENT_RESERVATION_CAP = 300_000.0

# The paper testbed's saturated capacity (ops/s), the reservation base.
CAPACITY_OPS = CHAMELEON.one_sided_system

FAULT_KINDS = (
    "control-drop",   # control-plane op loss storm
    "delay-spike",    # control-plane delay spikes
    "brownout",       # server NIC capacity reduction
    "qp-close",       # abrupt client<->server connection loss
    "client-crash",   # client dark for a window (or forever)
    "partition",      # directional victim->server link cut
    "fail-slow",      # server gray failure (every op costs more)
)

DISTRIBUTIONS = ("uniform", "zipf", "spike")
PATTERNS = ("burst", "constant-rate")

# Spike's 3-hot shape needs enough clients to be meaningful.
MIN_CLIENTS_FOR_SPIKE = 4

MIN_PERIODS = 6

# Client-count ceilings are *mode-dependent*: exact-DES candidates pay
# per-op event costs, so the ceiling stays small; fluid-mode candidates
# aggregate same-class clients into flows (O(flows) per period), so the
# hunt can search the 10^2-10^4 client regime the hierarchy exists for.
# (The old single hard-coded ceiling of 6 silently clamped any larger
# genome back into the DES range.)
MAX_CLIENTS_DES = 6
MAX_CLIENTS_FLUID = 20_000
MAX_TENANTS = 4
# Fluid-mode candidates use a fixed two-groups-per-tenant shape, so a
# victim index maps deterministically onto a flow class.
FLUID_GROUPS_PER_TENANT = 2

# Hot-swap genome ceiling: how many mid-run policy revisions the
# executor will synthesize and apply through the decrease-before-
# increase path.  Exact-DES only — the fluid engine takes resizes
# through apply_hierarchy, not per-client policy pushes.
MAX_POLICY_VERSION = 3


@dataclasses.dataclass(frozen=True)
class FaultGene:
    """One fault event in period-relative coordinates.

    ``start``/``duration`` are in QoS periods; ``client`` is a victim
    index interpreted modulo the spec's client count (so crossover
    between specs with different client counts stays valid).
    ``permanent`` turns a client-crash into a no-restart crash and is
    ignored for other kinds.
    """

    kind: str
    start: float = 1.0
    duration: float = 1.0
    client: int = 0
    rate: float = 0.2
    factor: float = 0.5
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault gene kind {self.kind!r} (know {FAULT_KINDS})"
            )


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One point of the scenario space (see module docstring)."""

    num_clients: int = 3
    distribution: str = "uniform"
    reserved_fraction: float = 0.7
    demand_factor: float = 1.2
    limit_factor: Optional[float] = None
    pattern: str = "burst"
    periods: int = 8
    faults: Tuple[FaultGene, ...] = ()
    # Tenancy genes (schema v2): ``tenant_count == 0`` means flat (no
    # hierarchy, the v1 behaviour); with a hierarchy, DES candidates
    # bind it to the exact cluster while ``fluid_mode`` switches the
    # executor to the aggregated flow engine.
    tenant_count: int = 0
    fluid_mode: bool = False
    # Fabric gene (schema v3): run the candidate on the congestion-
    # controlled datapath (repro.rdma.cc) so the hunt can search for
    # anomalies that only appear under PCIe posting costs, bounded SQs,
    # DCQCN pacing, and PFC pauses.  Exact-DES only: the fluid engine
    # has no per-op datapath, so clamp_spec turns it off under
    # fluid_mode.
    fabric_mode: bool = False
    # Policy gene (schema v4): number of mid-run hot-swapped policy
    # revisions.  0 (the floor) means no policy traffic — byte-for-byte
    # the v3 behaviour; k > 0 makes the executor synthesize k revisions
    # that re-shape the reservation mix mid-stream through the
    # decrease-before-increase path, arming the policy-audit and
    # no-stale-policy oracles.  Exact-DES only (clamped to 0 in fluid
    # mode).
    policy_version: int = 0

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigError(
                f"num_clients must be >= 1, got {self.num_clients}"
            )
        if self.tenant_count < 0:
            raise ConfigError(
                f"tenant_count must be >= 0, got {self.tenant_count}"
            )
        if self.policy_version < 0:
            raise ConfigError(
                f"policy_version must be >= 0, got {self.policy_version}"
            )
        # fluid_mode with tenant_count == 0 is repaired (not rejected)
        # by clamp_spec, so shrink/mutate operators may build the
        # intermediate value freely.
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}"
            )
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        if self.periods < MIN_PERIODS:
            raise ConfigError(
                f"periods must be >= {MIN_PERIODS}, got {self.periods}"
            )

    # ------------------------------------------------------------------
    def total_reserved_ops(self) -> float:
        """Aggregate reservation, admission-cap clamped."""
        return min(
            self.reserved_fraction * CAPACITY_OPS,
            self.num_clients * PER_CLIENT_RESERVATION_CAP,
        )

    def victim(self, gene: FaultGene) -> str:
        """The host name a fault gene targets.

        DES candidates target client hosts (``C<k>``); fluid-mode
        candidates target flow classes, so the victim index wraps onto
        the ``T<t>/g<g>`` flow-name grid instead.
        """
        if self.fluid_mode:
            flows = max(1, self.tenant_count) * FLUID_GROUPS_PER_TENANT
            idx = gene.client % flows
            tenant = idx // FLUID_GROUPS_PER_TENANT + 1
            group = idx % FLUID_GROUPS_PER_TENANT + 1
            return f"T{tenant}/g{group}"
        return f"C{gene.client % self.num_clients + 1}"

    def fault_end_period(self) -> float:
        """Where windowed faults must end (start of the settle tail)."""
        return float(self.periods - SETTLE_PERIODS)

    def compile_plan(self, config) -> FaultPlan:
        """Lower the fault genome to an absolute-time fault plan."""
        T = config.period
        fault_end = self.fault_end_period() * T
        drops: List[DropRule] = []
        delays: List[DelayRule] = []
        brownouts: List[Brownout] = []
        qp_closes: List[QPCloseFault] = []
        crashes: List[CrashWindow] = []
        partitions: List[PartitionRule] = []
        slowdowns: List[SlowdownRule] = []
        for gene in self.faults:
            start = min(gene.start * T, fault_end - config.check_interval)
            end = min(start + gene.duration * T, fault_end)
            if gene.kind == "control-drop":
                drops.append(DropRule(
                    rate=gene.rate,
                    where=OpFilter(control_only=True, start=start, end=end),
                    label="hunt-drop",
                ))
            elif gene.kind == "delay-spike":
                delays.append(DelayRule(
                    rate=gene.rate,
                    delay=2 * config.check_interval,
                    jitter=config.check_interval,
                    where=OpFilter(control_only=True, start=start, end=end),
                    label="hunt-delay",
                ))
            elif gene.kind == "brownout":
                brownouts.append(Brownout(
                    host="server", start=start, end=end, factor=gene.factor,
                ))
            elif gene.kind == "qp-close":
                qp_closes.append(QPCloseFault(
                    src=self.victim(gene), dst="server", time=start,
                ))
            elif gene.kind == "client-crash":
                crash_end = math.inf if gene.permanent else end
                crashes.append(CrashWindow(
                    host=self.victim(gene), start=start, end=crash_end,
                ))
            elif gene.kind == "partition":
                partitions.append(PartitionRule(
                    src=self.victim(gene), dst="server",
                    start=start, end=end, label="hunt-partition",
                ))
            elif gene.kind == "fail-slow":
                # gene.factor is a capacity fraction (brownout idiom);
                # the slowdown rule wants a cost multiplier >= 1.
                slowdowns.append(SlowdownRule(
                    host="server", start=start, end=end,
                    factor=round(1.0 / gene.factor, 4),
                ))
        return FaultPlan(
            drops=tuple(drops), delays=tuple(delays),
            brownouts=tuple(brownouts), qp_closes=tuple(qp_closes),
            crashes=tuple(crashes),
            partitions=tuple(partitions), slowdowns=tuple(slowdowns),
            drop_fail_after=config.check_interval,
        )

    def dark_at_end(self) -> Tuple[str, ...]:
        """Hosts inside a crash window when the run ends — excused from
        the liveness oracles (a permanently dead client not making its
        reservation is the fault's definition, not an anomaly)."""
        dark = []
        for gene in self.faults:
            if gene.kind == "client-crash":
                end = math.inf if gene.permanent else (
                    min(gene.start + gene.duration, self.fault_end_period())
                )
                if end >= self.periods:
                    dark.append(self.victim(gene))
        return tuple(sorted(set(dark)))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"schema_version": SPEC_SCHEMA_VERSION, **to_payload(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        version = payload.get("schema_version")
        if version not in COMPAT_SCHEMA_VERSIONS:
            raise ConfigError(
                f"unsupported scenario-spec schema version {version!r} "
                f"(this build reads versions {COMPAT_SCHEMA_VERSIONS})"
            )
        return from_payload(cls, payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Gene table: bounds and floors (what the minimizer shrinks toward)
# ---------------------------------------------------------------------------
INT_GENES = {
    # name: (lo, hi, floor) — num_clients' hi is the DES ceiling; fluid
    # mode raises it to MAX_CLIENTS_FLUID in clamp_spec.
    "num_clients": (1, MAX_CLIENTS_DES, 1),
    "periods": (MIN_PERIODS, 12, MIN_PERIODS),
    "tenant_count": (0, MAX_TENANTS, 0),
    "policy_version": (0, MAX_POLICY_VERSION, 0),
}
FLOAT_GENES = {
    # name: (lo, hi, floor)
    "reserved_fraction": (0.3, 0.95, 0.5),
    "demand_factor": (1.0, 2.0, 1.0),
}
CHOICE_GENES = {
    # name: (choices, floor)
    "distribution": (DISTRIBUTIONS, "uniform"),
    "pattern": (PATTERNS, "burst"),
}
# limit_factor is Optional: None (floor) or a multiple of the
# reservation in [1.05, 2.0] — >= 1 so a limit can never contradict the
# reservation it coexists with.
LIMIT_RANGE = (1.05, 2.0)

MAX_FAULT_GENES = 4


def clamp_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Project an arbitrary gene assignment back into the valid space.

    Single choke point for cross-gene constraints, applied after every
    random sample / mutation / crossover so operators can be sloppy.
    """
    # The client-count ceiling depends on the execution mode: the old
    # unconditional clamp to the DES ceiling made every large genome
    # collapse back to <= 6 clients, which is exactly the space the
    # fluid engine exists to search.
    fluid_mode = bool(spec.fluid_mode)
    # The fabric datapath is per-op, so it only exists in exact DES.
    fabric_mode = bool(spec.fabric_mode) and not fluid_mode
    # Policy pushes address per-client agents; the fluid engine has
    # none, so the gene collapses to its floor there.
    policy_version = min(max(spec.policy_version, 0), MAX_POLICY_VERSION)
    if fluid_mode:
        policy_version = 0
    tenant_count = min(max(spec.tenant_count, 0), MAX_TENANTS)
    if fluid_mode:
        tenant_count = max(1, tenant_count)
    ceiling = MAX_CLIENTS_FLUID if fluid_mode else MAX_CLIENTS_DES
    num_clients = min(max(spec.num_clients, INT_GENES["num_clients"][0]),
                      ceiling)
    if fluid_mode:
        # Every (tenant, group) class needs at least one client.
        num_clients = max(
            num_clients, tenant_count * FLUID_GROUPS_PER_TENANT
        )
    else:
        # A DES hierarchy puts each client in its own leaf group, so a
        # tenant with zero members is meaningless.
        tenant_count = min(tenant_count, num_clients)
    periods = min(max(spec.periods, INT_GENES["periods"][0]),
                  INT_GENES["periods"][1])
    distribution = spec.distribution
    if distribution == "spike" and num_clients < MIN_CLIENTS_FOR_SPIKE:
        distribution = "zipf"
    lo, hi = FLOAT_GENES["reserved_fraction"][:2]
    reserved = min(max(spec.reserved_fraction, lo), hi)
    lo, hi = FLOAT_GENES["demand_factor"][:2]
    demand = min(max(spec.demand_factor, lo), hi)
    limit = spec.limit_factor
    if limit is not None:
        limit = min(max(limit, LIMIT_RANGE[0]), LIMIT_RANGE[1])

    fault_end = float(periods - SETTLE_PERIODS)
    genes: List[FaultGene] = []
    for gene in spec.faults[:MAX_FAULT_GENES]:
        start = min(max(gene.start, 0.5), fault_end - 0.25)
        duration = min(max(gene.duration, 0.25), fault_end - start)
        genes.append(FaultGene(
            kind=gene.kind,
            start=round(start, 4),
            duration=round(duration, 4),
            client=gene.client % num_clients,
            rate=round(min(max(gene.rate, 0.01), 1.0), 4),
            factor=round(min(max(gene.factor, 0.05), 0.95), 4),
            permanent=gene.permanent and gene.kind == "client-crash",
        ))
    return ScenarioSpec(
        num_clients=num_clients,
        distribution=distribution,
        reserved_fraction=round(reserved, 4),
        demand_factor=round(demand, 4),
        limit_factor=None if limit is None else round(limit, 4),
        pattern=spec.pattern,
        periods=periods,
        faults=tuple(genes),
        tenant_count=tenant_count,
        fluid_mode=fluid_mode,
        fabric_mode=fabric_mode,
        policy_version=policy_version,
    )


# ---------------------------------------------------------------------------
# Seeded operators
# ---------------------------------------------------------------------------
def random_fault_gene(rng, periods: int) -> FaultGene:
    """Sample one fault event uniformly over the genome's ranges."""
    fault_end = periods - SETTLE_PERIODS
    kind = rng.choice(FAULT_KINDS)
    start = 0.5 + rng.random() * max(fault_end - 1.0, 0.5)
    return FaultGene(
        kind=kind,
        start=round(start, 4),
        duration=round(0.25 + rng.random() * 2.0, 4),
        client=rng.randrange(INT_GENES["num_clients"][1]),
        rate=round(0.05 + rng.random() * 0.45, 4),
        factor=round(0.1 + rng.random() * 0.8, 4),
        permanent=(kind == "client-crash" and rng.random() < 0.3),
    )


def random_spec(rng) -> ScenarioSpec:
    """One uniformly-drawn point of the scenario space.

    A quarter of the draws land in fluid mode, where the client count
    is log-uniform over 10^2-10^4 — the hierarchical regime the DES
    ceiling used to make unreachable.
    """
    fluid_mode = rng.random() < 0.25
    # A quarter of the exact-DES draws run on the modeled fabric.
    fabric_mode = (not fluid_mode) and rng.random() < 0.25
    tenant_count = rng.randint(1 if fluid_mode else 0, MAX_TENANTS)
    if fluid_mode:
        num_clients = int(round(10 ** rng.uniform(2.0, 4.0)))
    else:
        lo, hi = INT_GENES["num_clients"][:2]
        num_clients = rng.randint(lo, hi)
    lo, hi = INT_GENES["periods"][:2]
    periods = rng.randint(lo, hi)
    num_faults = rng.randint(0, MAX_FAULT_GENES)
    faults = tuple(
        random_fault_gene(rng, periods) for _ in range(num_faults)
    )
    # Drawn LAST so every pre-v4 gene of a given seed keeps its v3
    # value — only draws after this point shift across the schema bump.
    policy_version = (rng.randint(1, MAX_POLICY_VERSION)
                      if rng.random() < 0.25 else 0)
    return clamp_spec(ScenarioSpec(
        num_clients=num_clients,
        tenant_count=tenant_count,
        fluid_mode=fluid_mode,
        fabric_mode=fabric_mode,
        distribution=rng.choice(DISTRIBUTIONS),
        reserved_fraction=FLOAT_GENES["reserved_fraction"][0] + rng.random()
        * (FLOAT_GENES["reserved_fraction"][1]
           - FLOAT_GENES["reserved_fraction"][0]),
        demand_factor=FLOAT_GENES["demand_factor"][0] + rng.random()
        * (FLOAT_GENES["demand_factor"][1] - FLOAT_GENES["demand_factor"][0]),
        limit_factor=(None if rng.random() < 0.6
                      else LIMIT_RANGE[0] + rng.random()
                      * (LIMIT_RANGE[1] - LIMIT_RANGE[0])),
        pattern=rng.choice(PATTERNS),
        periods=periods,
        faults=faults,
        policy_version=policy_version,
    ))


def _perturb_gene(gene: FaultGene, rng) -> FaultGene:
    field = rng.choice(("start", "duration", "rate", "factor", "client",
                        "permanent"))
    changes = {}
    if field in ("start", "duration"):
        changes[field] = getattr(gene, field) * (0.5 + rng.random())
    elif field in ("rate", "factor"):
        changes[field] = getattr(gene, field) + (rng.random() - 0.5) * 0.3
    elif field == "client":
        changes[field] = gene.client + rng.randint(1, 3)
    else:
        changes[field] = not gene.permanent
    return dataclasses.replace(gene, **changes)


def mutate(spec: ScenarioSpec, rng) -> ScenarioSpec:
    """One mutation step: perturb a scalar gene or edit the fault list.

    The operator menu is weighted toward the fault genome — the
    interesting breakage lives there — but every gene is reachable so
    neighborhood search can leave any local plateau.
    """
    ops = ["scalar", "fault-edit", "fault-edit"]
    if len(spec.faults) < MAX_FAULT_GENES:
        ops.append("fault-add")
    if spec.faults:
        ops.append("fault-del")
    op = rng.choice(ops)
    if op == "fault-add":
        faults = spec.faults + (random_fault_gene(rng, spec.periods),)
        return clamp_spec(dataclasses.replace(spec, faults=faults))
    if op == "fault-del":
        idx = rng.randrange(len(spec.faults))
        faults = spec.faults[:idx] + spec.faults[idx + 1:]
        return clamp_spec(dataclasses.replace(spec, faults=faults))
    if op == "fault-edit" and spec.faults:
        idx = rng.randrange(len(spec.faults))
        edited = _perturb_gene(spec.faults[idx], rng)
        faults = spec.faults[:idx] + (edited,) + spec.faults[idx + 1:]
        return clamp_spec(dataclasses.replace(spec, faults=faults))

    name = rng.choice(sorted(INT_GENES) + sorted(FLOAT_GENES)
                      + sorted(CHOICE_GENES)
                      + ["limit_factor", "fluid_mode", "fabric_mode"])
    if name == "fluid_mode":
        return clamp_spec(dataclasses.replace(
            spec, fluid_mode=not spec.fluid_mode
        ))
    if name == "fabric_mode":
        return clamp_spec(dataclasses.replace(
            spec, fabric_mode=not spec.fabric_mode
        ))
    if name in INT_GENES:
        if name == "num_clients" and spec.fluid_mode:
            # Additive +/-2 steps cannot traverse a 10^2-10^4 range;
            # fluid client counts mutate multiplicatively.
            value = max(1, int(round(
                spec.num_clients * rng.choice((0.3, 0.5, 2.0, 3.0))
            )))
        else:
            value = getattr(spec, name) + rng.choice((-2, -1, 1, 2))
        return clamp_spec(dataclasses.replace(spec, **{name: max(
            value, INT_GENES[name][0])}))
    if name in FLOAT_GENES:
        lo, hi = FLOAT_GENES[name][:2]
        value = getattr(spec, name) + (rng.random() - 0.5) * (hi - lo) * 0.4
        return clamp_spec(dataclasses.replace(spec, **{name: value}))
    if name == "limit_factor":
        if spec.limit_factor is None:
            value = LIMIT_RANGE[0] + rng.random() * (
                LIMIT_RANGE[1] - LIMIT_RANGE[0])
        else:
            value = None
        return clamp_spec(dataclasses.replace(spec, limit_factor=value))
    choices = CHOICE_GENES[name][0]
    return clamp_spec(dataclasses.replace(
        spec, **{name: rng.choice(choices)}
    ))


def crossover(a: ScenarioSpec, b: ScenarioSpec, rng) -> ScenarioSpec:
    """Uniform crossover: each scalar gene from a random parent, fault
    lists spliced."""
    def pick(name):
        return getattr(a if rng.random() < 0.5 else b, name)

    cut_a = rng.randint(0, len(a.faults))
    cut_b = rng.randint(0, len(b.faults))
    # fluid_mode and tenant_count travel together: a fluid client count
    # only makes sense next to the mode flag that licensed it.
    mode_parent = a if rng.random() < 0.5 else b
    return clamp_spec(ScenarioSpec(
        num_clients=mode_parent.num_clients,
        tenant_count=mode_parent.tenant_count,
        fluid_mode=mode_parent.fluid_mode,
        fabric_mode=pick("fabric_mode"),
        distribution=pick("distribution"),
        reserved_fraction=pick("reserved_fraction"),
        demand_factor=pick("demand_factor"),
        limit_factor=pick("limit_factor"),
        pattern=pick("pattern"),
        periods=pick("periods"),
        faults=a.faults[:cut_a] + b.faults[cut_b:],
        policy_version=pick("policy_version"),
    ))
