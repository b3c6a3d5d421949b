"""The "millions of users" scenario family, runnable in seconds.

``run_fluid_scale`` drives a seeded multi-tenant hierarchy through the
fluid engine: 10^4-10^6 simulated clients across >= 4 tenants, with the
control plane staying discrete — a mid-run coordinator resize (applied
decrease-before-increase through the hierarchy) and a capacity brownout
window (projected onto the affected periods).  Registered as the
``fluid-scale`` runner cell so campaigns and CI smoke jobs can sweep it
through the ordinary cell machinery.

Everything is deterministic in ``(params, seed)``: the only randomness
is the seeded shape generator, and the engine itself has no RNG.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.cluster.calibration import DEFAULT_PROFILE_RSD
from repro.cluster.runner import register_scenario
from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.faults.plan import Brownout, FaultPlan
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import flows_from_hierarchy
from repro.globalqos.waterfill import largest_remainder
from repro.policy import load_policy
from repro.rdma.nic import NICProfile
from repro.telemetry.ledger import TokenLedger
from repro.tenancy.hierarchy import ClientGroup, Tenant, TenantHierarchy

#: The DES builder's profiling noise, under the name the layered
#: benchmark harness imports it by.
PROFILE_RSD = DEFAULT_PROFILE_RSD

# The hierarchy shape loads from the committed ``fluid-scale`` policy
# document (pinned against drift by tests/policy/test_builtin.py):
# the reserved capacity fraction plus the metered class's limit and
# burst factors applied to every other tenant/group.
SCALE_POLICY = load_policy("fluid-scale")
_METERED_CLASS = SCALE_POLICY.class_named("metered")

#: Fraction of physical capacity handed out as reservations.
RESERVED_FRACTION = SCALE_POLICY.reserved_fraction

METERED_LIMIT_FACTOR = _METERED_CLASS.limit_factor
METERED_BURST_FACTOR = _METERED_CLASS.burst_factor


def build_scale_hierarchy(
    num_clients: int,
    tenants: int = 4,
    groups_per_tenant: int = 4,
    config: Optional[HaechiConfig] = None,
    capacity_tokens: Optional[int] = None,
    seed: int = 0,
    reserved_fraction: float = RESERVED_FRACTION,
) -> Tuple[TenantHierarchy, dict]:
    """A seeded hierarchy shape plus its per-group demand map.

    Tenant and group reservations are weighted draws (largest-remainder
    apportioned, so every level sums exactly); every other tenant gets
    a limit at 1.5x its reservation with a 10% burst bucket.  Returns
    ``(hierarchy, demand_tokens_by_group_name)``.
    """
    if num_clients < tenants * groups_per_tenant:
        raise ConfigError(
            f"need >= {tenants * groups_per_tenant} clients for "
            f"{tenants} tenants x {groups_per_tenant} groups, "
            f"got {num_clients}"
        )
    config = config or HaechiConfig.paper()
    if capacity_tokens is None:
        rate = NICProfile.chameleon().onesided_saturation_rate()
        capacity_tokens = config.tokens_per_period(rate)
    # A private derived stream, not random.Random(seed): a bare seed
    # would collide with any other component seeded the same way and
    # silently couple their draw sequences (see repro.common.rng).
    rng = make_rng(seed, "fluid", "scale-hierarchy")

    reserved = int(reserved_fraction * capacity_tokens)
    tenant_weights = [rng.uniform(0.5, 2.0) for _ in range(tenants)]
    tenant_res = largest_remainder(reserved, tenant_weights)
    tenant_clients = largest_remainder(num_clients, tenant_weights)

    demand_of = {}
    tenant_objs = []
    for t in range(tenants):
        group_weights = [
            rng.uniform(0.5, 2.0) for _ in range(groups_per_tenant)
        ]
        group_res = largest_remainder(tenant_res[t], group_weights)
        group_clients = largest_remainder(
            max(tenant_clients[t], groups_per_tenant), group_weights
        )
        groups = []
        for g in range(groups_per_tenant):
            name = f"g{g + 1}"
            limit = None
            burst = 0
            if g % 2 == 1:
                limit = int(group_res[g] * METERED_LIMIT_FACTOR)
                burst = int(limit * METERED_BURST_FACTOR)
            groups.append(ClientGroup(
                name=name,
                reservation=group_res[g],
                clients=max(1, group_clients[g]),
                limit=limit,
                burst=burst,
            ))
            demand_of[f"T{t + 1}/{name}"] = int(
                round(group_res[g] * rng.uniform(0.8, 2.2))
            )
        tname = f"T{t + 1}"
        limit = (int(tenant_res[t] * METERED_LIMIT_FACTOR)
                 if t % 2 == 1 else None)
        tenant_objs.append(Tenant(
            name=tname, reservation=tenant_res[t], groups=groups,
            limit=limit,
        ))
    hierarchy = TenantHierarchy(tenant_objs, capacity=capacity_tokens)
    return hierarchy, demand_of


def fluid_engine(hierarchy: TenantHierarchy, demand_map: dict,
                 config: HaechiConfig, plan: Optional[FaultPlan] = None):
    """A ledgered fluid engine over ``hierarchy``: one flow per group
    demanding ``demand_map["tenant/group"]`` tokens a period, the
    estimator profiled at the hierarchy's capacity."""
    capacity_tokens = hierarchy.capacity
    flows = flows_from_hierarchy(
        hierarchy,
        demand_of=lambda t, g: demand_map[f"{t.name}/{g.name}"],
    )
    estimator = AdaptiveCapacityEstimator.from_config(
        ProfiledCapacity(
            mean=float(capacity_tokens),
            stddev=PROFILE_RSD * capacity_tokens,
        ),
        config,
    )
    return FluidEngine(
        flows, config, estimator,
        physical_capacity=capacity_tokens, plan=plan, ledger=TokenLedger(),
    )


def build_fluid_scale(
    num_clients: int,
    tenants: int,
    groups_per_tenant: int,
    periods: int,
    seed: int,
    brownout: bool = True,
    token_conversion: bool = True,
):
    """The scale run before its first period: ``(hierarchy, engine,
    ledger, capacity_tokens)``.  With ``brownout``, a 60% capacity
    window over periods ``[periods//3, periods//3 + 3)``."""
    config = HaechiConfig.paper(token_conversion=token_conversion)
    rate = NICProfile.chameleon().onesided_saturation_rate()
    capacity_tokens = config.tokens_per_period(rate)
    hierarchy, demand_map = build_scale_hierarchy(
        num_clients, tenants=tenants,
        groups_per_tenant=groups_per_tenant,
        config=config, capacity_tokens=capacity_tokens, seed=seed,
    )
    plan = None
    if brownout:
        T = config.period
        start = (periods // 3) * T
        plan = FaultPlan(
            brownouts=(Brownout("server", start, start + 3 * T, 0.6),)
        )
    engine = fluid_engine(hierarchy, demand_map, config, plan)
    return hierarchy, engine, engine.ledger, capacity_tokens


def run_fluid_scale(
    num_clients: int = 100_000,
    tenants: int = 4,
    groups_per_tenant: int = 4,
    periods: int = 30,
    seed: int = 0,
    brownout: bool = True,
    resize: bool = True,
    token_conversion: bool = True,
) -> dict:
    """One scale run; returns a JSON-serializable, deterministic report.

    The control-plane schedule: the brownout of
    :func:`build_fluid_scale` and, at the two-thirds mark, a
    coordinator-style rebalance that shrinks the largest tenant by 20%
    and grows the smallest by the freed amount (decrease before
    increase, via the hierarchy's resize ops).
    """
    hierarchy, engine, ledger, capacity_tokens = build_fluid_scale(
        num_clients, tenants, groups_per_tenant, periods, seed,
        brownout=brownout, token_conversion=token_conversion,
    )

    resize_point = max(1, (2 * periods) // 3)
    engine.run(resize_point)
    resize_ops = []
    if resize:
        by_res = sorted(hierarchy.tenants, key=lambda t: t.reservation)
        largest, smallest = by_res[-1], by_res[0]
        shrink = int(largest.reservation * 0.2)
        resize_ops += hierarchy.resize_tenant(
            largest.name, largest.reservation - shrink
        )
        resize_ops += hierarchy.resize_tenant(
            smallest.name, smallest.reservation + shrink
        )
        engine.apply_hierarchy(hierarchy)
    engine.run(periods - resize_point)

    return {
        "num_clients": engine.total_clients,
        "tenants": len(hierarchy.tenants),
        "flows": len(engine.flows),
        "periods": engine.period_id,
        "total_reserved": engine.total_reserved,
        "capacity_tokens": capacity_tokens,
        "attainment": engine.attainment(),
        "tenant_rollup": engine.tenant_rollup(),
        "flow_completions": {
            name: counts
            for name, counts in sorted(engine.flow_completions.items())
        },
        "conversions": engine.conversions,
        "faa_batches": engine.faa_batches,
        "resize_ops": resize_ops,
        "resize_log": engine.resize_log,
        "clamp_events": hierarchy.clamp_events,
        "hierarchy_violations": hierarchy.conservation_violations(),
        "ledger_conservation": ledger.check_conservation(),
        "ledger_totals": ledger.totals(),
    }


@register_scenario("fluid-scale")
def _fluid_scale_cell(params: Mapping[str, Any], seed: int) -> dict:
    """Runner-cell wrapper: ``params`` override the keyword defaults."""
    return run_fluid_scale(
        num_clients=params.get("num_clients", 10_000),
        tenants=params.get("tenants", 4),
        groups_per_tenant=params.get("groups_per_tenant", 4),
        periods=params.get("periods", 30),
        seed=seed,
        brownout=params.get("brownout", True),
        resize=params.get("resize", True),
        token_conversion=params.get("token_conversion", True),
    )
