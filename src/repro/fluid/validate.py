"""Fluid-vs-exact-DES equivalence on down-scaled configurations.

The fluid engine earns its speed by dropping per-op events, so it must
prove it kept the *answers*: on a configuration small enough for the
exact DES, both modes run the same hierarchy, same demand, same
capacity profile, and the harness checks

- **who-wins relations** — for every pair of client classes, the sign
  of the attainment difference (with a tie band) must be identical:
  the fluid model may smooth magnitudes but must never reorder winners;
- **per-class attainment curves** — the absolute per-class error must
  stay inside the documented tolerance tier (``TOLERANCE_TIER``, also
  recorded in ``benchmarks/results/determinism_hashes.json`` next to
  the pinned fluid digests).

Down-scaling uses the same :class:`~repro.cluster.scale.SimScale`
machinery as every other test family, so the DES side is the ordinary
time-dilated cluster — nothing bespoke to validate against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.experiment import run_experiment
from repro.common.rng import make_rng
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import TEST_SCALE, qos_cluster
from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.cluster.calibration import CHAMELEON, DEFAULT_PROFILE_RSD
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import flows_from_hierarchy
from repro.globalqos.waterfill import largest_remainder
from repro.tenancy.binding import bind_hierarchy, leaf_plan
from repro.tenancy.hierarchy import ClientGroup, Tenant, TenantHierarchy

#: Documented attainment tolerance tier: max per-class |fluid - DES|.
#: Looser than the determinism guard's bit-exactness (the fluid model
#: is an approximation by design) but tight enough that a modelling
#: regression — wrong pool formula, broken conversion switch, lost
#: reservation guarantees — trips it immediately.
TOLERANCE_TIER = 0.30

#: Attainment differences inside this band count as a tie for the
#: who-wins relation (per-period integer effects at down-scaled token
#: counts make smaller differences noise in both modes).
TIE_BAND = 0.10


def build_validation_hierarchy(
    config, capacity_tokens: int, seed: int
) -> (TenantHierarchy, dict):
    """A small seeded hierarchy the exact DES can afford.

    Two tenants, two groups each, 1-2 clients per group (4-8 leaf
    clients), raised where a group's reservation needs more so that no
    client's share exceeds C_L, the per-client capacity the DES admits
    against; 70% of capacity reserved, demands 1.0-2.2x reservation —
    deliberately pushing aggregate demand past capacity so the pool is
    contended and the claim-phase water-fill is actually exercised.
    Burst buckets stay zero here: burst semantics are fluid-only (the
    DES engine has no burst knob), so equivalence configs exclude them.
    """
    # A private derived stream, not random.Random(seed): a bare seed
    # would collide with any other component seeded the same way and
    # silently couple their draw sequences (see repro.common.rng).
    rng = make_rng(seed, "fluid", "validate")
    local_tokens = int(CHAMELEON.client_limit(True) * config.period)
    reserved = int(0.7 * capacity_tokens)
    tenant_res = largest_remainder(
        reserved, [rng.uniform(0.7, 1.6) for _ in range(2)]
    )
    demand_of = {}
    tenants = []
    for t in range(2):
        group_res = largest_remainder(
            tenant_res[t], [rng.uniform(0.7, 1.6) for _ in range(2)]
        )
        groups = []
        for g in range(2):
            name = f"g{g + 1}"
            # Leaf shares split the group evenly, so ceil(res / C_L)
            # clients keep each within C_L; the draw is made either way.
            clients = max(rng.choice((1, 2)),
                          -(-group_res[g] // local_tokens))
            groups.append(ClientGroup(
                name=name, reservation=group_res[g], clients=clients,
            ))
            demand_of[f"T{t + 1}/{name}"] = int(
                round(group_res[g] * rng.uniform(1.0, 2.2))
            )
        tenants.append(Tenant(
            name=f"T{t + 1}", reservation=tenant_res[t], groups=groups,
        ))
    return TenantHierarchy(tenants, capacity=capacity_tokens), demand_of


def who_wins(attainment: Dict[str, float],
             tie_band: float = TIE_BAND) -> Dict[str, str]:
    """Pairwise win/tie relations over class attainments.

    ``{"a|b": ">" | "<" | "="}`` for every name pair (lexicographic),
    with differences inside ``tie_band`` collapsing to ``"="``.
    """
    names = sorted(attainment)
    out = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            diff = attainment[a] - attainment[b]
            if abs(diff) <= tie_band:
                out[f"{a}|{b}"] = "="
            else:
                out[f"{a}|{b}"] = ">" if diff > 0 else "<"
    return out


def _des_attainment(cluster, hierarchy, warmup: int) -> Dict[str, float]:
    """Per-class attainment from the DES run's measured window."""
    plan = leaf_plan(hierarchy)
    class_counts: Dict[str, List[int]] = {}
    for ctx, (tname, gname, _tokens) in zip(cluster.clients, plan):
        counts = cluster.metrics.clients[ctx.name].period_counts
        key = f"{tname}/{gname}"
        if key not in class_counts:
            class_counts[key] = list(counts)
        else:
            class_counts[key] = [
                a + b for a, b in zip(class_counts[key], counts)
            ]
    out = {}
    for tenant, group in hierarchy.groups():
        key = f"{tenant.name}/{group.name}"
        counts = class_counts.get(key, [])
        if not counts or group.reservation <= 0:
            out[key] = 0.0
        else:
            out[key] = (sum(counts) / len(counts)) / group.reservation
    return out


def run_equivalence(
    seed: int,
    scale: Optional[SimScale] = None,
    warmup: int = 2,
    periods: int = 8,
) -> dict:
    """Run both modes on one down-scaled config; return the report.

    The report carries both attainment maps, both who-wins relations,
    the per-class errors, and the boolean verdicts the pinned tests and
    the CI smoke job assert on.
    """
    scale = scale or TEST_SCALE
    config = scale.config()
    capacity_tokens = int(CHAMELEON.system_limit(True) * config.period)
    hierarchy, demand_map = build_validation_hierarchy(
        config, capacity_tokens, seed
    )

    # --- exact DES ---------------------------------------------------
    plan = leaf_plan(hierarchy)
    reservations_ops = [config.rate_of(tokens) for _, _, tokens in plan]
    demand_ops = []
    for tname, gname, _tokens in plan:
        tenant = hierarchy.tenant(tname)
        group = tenant.group(gname)
        share = demand_map[f"{tname}/{gname}"] / group.clients
        demand_ops.append(config.rate_of(share))
    cluster = qos_cluster(
        reservations=reservations_ops, demands=demand_ops,
        scale=scale, master_seed=seed,
    )
    bind_hierarchy(cluster, hierarchy)
    run_experiment(cluster, warmup_periods=warmup, measure_periods=periods)
    des_att = _des_attainment(cluster, hierarchy, warmup)

    # --- fluid -------------------------------------------------------
    profiled_mean = CHAMELEON.system_limit(True) * config.period
    estimator = AdaptiveCapacityEstimator.from_config(
        ProfiledCapacity(
            mean=profiled_mean,
            stddev=profiled_mean * DEFAULT_PROFILE_RSD,
        ),
        config,
    )
    flows = flows_from_hierarchy(
        hierarchy,
        demand_of=lambda t, g: demand_map[f"{t.name}/{g.name}"],
    )
    engine = FluidEngine(
        flows, config, estimator, physical_capacity=capacity_tokens,
    )
    engine.run(warmup + periods)
    fluid_att = {}
    for flow in engine.flows:
        counts = engine.flow_completions[flow.name][warmup:]
        if not counts or flow.reservation <= 0:
            fluid_att[flow.name] = 0.0
        else:
            fluid_att[flow.name] = (
                sum(counts) / len(counts) / flow.reservation
            )

    # --- compare -----------------------------------------------------
    errors = {
        name: abs(fluid_att[name] - des_att[name]) for name in des_att
    }
    des_wins = who_wins(des_att)
    fluid_wins = who_wins(fluid_att)
    # A pair where either mode sees a tie is order-compatible; only an
    # actual reversal (> vs <) is a who-wins violation.
    reversals = [
        pair for pair in des_wins
        if "=" not in (des_wins[pair], fluid_wins[pair])
        and des_wins[pair] != fluid_wins[pair]
    ]
    max_error = max(errors.values()) if errors else 0.0
    return {
        "seed": seed,
        "classes": sorted(des_att),
        "des_attainment": des_att,
        "fluid_attainment": fluid_att,
        "errors": errors,
        "max_error": max_error,
        "des_who_wins": des_wins,
        "fluid_who_wins": fluid_wins,
        "who_wins_reversals": reversals,
        "tolerance_tier": TOLERANCE_TIER,
        "tie_band": TIE_BAND,
        "who_wins_ok": not reversals,
        "attainment_ok": max_error <= TOLERANCE_TIER,
        "ok": (not reversals) and max_error <= TOLERANCE_TIER,
    }
