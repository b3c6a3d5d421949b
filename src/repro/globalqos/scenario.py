"""The skewed multi-node scenario the coordinator is judged on.

Modulo striping spreads contiguous key ranges evenly across nodes, so a
plain zipfian keyspace produces only weak *per-node* skew no matter how
hot its head is.  :class:`NodeBiasedKeys` composes the two axes
explicitly: a wrapped YCSB generator picks the within-node popularity,
and a biased coin routes ``hot_fraction`` of the ops to the client's
hot node.

The scenario itself exploits the one regime where per-node Haechi
cannot help and only a *cross-node* mechanism can.  Token conversion
makes each node work-conserving, so as long as a node has slack (an
under-subscribed pool, or donors with unused reservations) a client
whose static split is too small on its hot node simply buys the
difference from the pool and nothing is lost.  The gap opens when
admission is nearly fully subscribed and every other client claims the
pool too:

- two *entitled* clients (modest aggregate reservation, 90% of demand
  on one node — opposite nodes, so total node load is symmetric and no
  amount of global capacity shuffling helps);
- four *commodity* clients (large reservations, node-even demand well
  above reservation, so they donate nothing and strip the pool every
  period).

Statically each entitled client holds only half its reservation on its
hot node and the FCFS pool share covers a fraction of the rest: its
attainment lands well under 0.8.  The coordinator observes the demand
imbalance and moves the entitled reservation onto the hot node
(conserving the aggregate exactly); attainment recovers to ~1.0 while
the commodity clients — whose splits the water-filling leaves in place
(hysteresis) — keep everything they had.

:func:`run_skewed_comparison` runs the same seeded workload twice —
static even split vs. coordinator attached — and reports per-client
reservation attainment, the coordinator's shift telemetry, and the
token-ledger conservation audits.  Everything is deterministic in
(seed, scale), which is what lets the determinism guard pin digests.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.cluster.multinode import MultiNodeCluster, build_multinode_cluster
from repro.cluster.scale import SimScale
from repro.globalqos.coordinator import attach_coordinator, attach_standby
from repro.policy import load_policy
from repro.telemetry.hub import TelemetryConfig, attach_telemetry
from repro.workloads.ycsb import ZipfianGenerator

# The skew-comparison scale: 2 ms periods, 5x cheaper than the benches'
# default 10 ms, with the usual 100 protocol ticks per period.
SKEW_SCALE = SimScale(factor=500, interval_divisor=100)

NUM_NODES = 2

# The entitled/commodity class table lives in the committed policy
# document; the counts and reservations here are views into it, pinned
# against drift by tests/policy/test_builtin.py.  Per node the
# reservations sum to 2 x 170K + 6 x 190K = 1480K against the 1570K
# saturated capacity: ~94% subscribed, leaving a pool too thin to
# paper over a misplaced split.  Each client's *aggregate* stays under
# the 400K one-sided client ceiling C_L — on this topology that is the
# client NIC, a global constraint across nodes — and so does every
# per-node share, including the entitled client's post-rebalance hot
# share (0.9 x 340K = 306K).
SKEW_POLICY = load_policy("globalqos-skew")
_ENTITLED_CLASS = SKEW_POLICY.class_named("entitled")
_COMMODITY_CLASS = SKEW_POLICY.class_named("commodity")

NUM_ENTITLED = _ENTITLED_CLASS.count
NUM_COMMODITY = _COMMODITY_CLASS.count

# Ops/s, paper-comparable.  Demands and skew stay scenario-local: the
# policy promises reservations; offered load is the experiment's.
ENTITLED_RESERVATION_OPS = _ENTITLED_CLASS.reservation_ops
ENTITLED_DEMAND_OPS = 380_000.0
ENTITLED_HOT_FRACTION = 0.9
COMMODITY_RESERVATION_OPS = _COMMODITY_CLASS.reservation_ops
COMMODITY_DEMAND_OPS = 440_000.0


class NodeBiasedKeys:
    """Per-client node skew on top of a within-node YCSB generator.

    ``next()`` returns ``base * num_nodes + node`` so the modulo
    striping routes the op to ``node``: the hot node with probability
    ``hot_fraction``, else uniformly one of the others.  ``base`` comes
    from the wrapped generator (0 is its hottest key).
    """

    def __init__(self, num_nodes: int, hot_node: int, hot_fraction: float,
                 base_gen, seed: int, tag: int = 0):
        if not 0 <= hot_node < num_nodes:
            raise ConfigError(
                f"hot_node {hot_node} outside [0, {num_nodes})"
            )
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be in [0, 1], got {hot_fraction}"
            )
        self.num_nodes = num_nodes
        self.hot_node = hot_node
        self.hot_fraction = hot_fraction
        self.base_gen = base_gen
        self._rng = make_rng(seed, "nodebias", tag)

    def next(self) -> int:
        node = self.hot_node
        if self.num_nodes > 1 and self._rng.random() >= self.hot_fraction:
            other = self._rng.randrange(self.num_nodes - 1)
            node = other if other < self.hot_node else other + 1
        return self.base_gen.next() * self.num_nodes + node


def build_skewed_cluster(
    seed: int,
    coordinated: bool,
    scale: Optional[SimScale] = None,
    rebalance_periods: int = 2,
    fallback_after: int = 2,
    num_slots: int = 4096,
    telemetry: bool = True,
    standby: bool = False,
    takeover_after: int = 2,
    quarantine: bool = False,
    quarantine_recover_after: int = 2,
    tenant_of=None,
) -> MultiNodeCluster:
    """Build the entitled-vs-commodity scenario, un-started.

    Entitled client ``i`` directs 90% of its ops at node ``i % 2``
    (zipfian within the node); commodity clients spread evenly.  With
    ``coordinated`` the global coordinator is attached before
    telemetry, so its gauges land in the metric snapshots; ``standby``
    adds the warm-standby coordinator (requires ``coordinated``) and
    ``quarantine`` arms fail-slow detection on both coordinators.
    ``tenant_of`` (client index -> tenant name) switches the attached
    coordinator to tenant-granularity rebalancing.
    """
    scale = scale or SKEW_SCALE
    if standby and not coordinated:
        raise ConfigError("standby requires coordinated=True")
    reservations = (
        [ENTITLED_RESERVATION_OPS] * NUM_ENTITLED
        + [COMMODITY_RESERVATION_OPS] * NUM_COMMODITY
    )
    cluster = build_multinode_cluster(
        NUM_NODES, NUM_ENTITLED + NUM_COMMODITY,
        reservations, scale=scale, num_slots=num_slots,
    )
    if coordinated:
        attach_coordinator(
            cluster,
            rebalance_periods=rebalance_periods,
            fallback_after=fallback_after,
            quarantine=quarantine,
            recover_after=quarantine_recover_after,
            tenant_of=tenant_of,
        )
        if standby:
            attach_standby(
                cluster,
                takeover_after=takeover_after,
                fallback_after=fallback_after,
            )
    if telemetry:
        # Metrics snapshots + the token ledger the rebalance audit
        # writes to; spans off to keep the digest payload small.
        attach_telemetry(cluster, TelemetryConfig(sample_every=0))
    for i, client in enumerate(cluster.clients):
        entitled = i < NUM_ENTITLED
        base = ZipfianGenerator(num_slots, theta=0.99, seed=seed + 101 * i)
        gen = NodeBiasedKeys(
            NUM_NODES,
            hot_node=i % NUM_NODES,
            hot_fraction=ENTITLED_HOT_FRACTION if entitled else 0.5,
            base_gen=base,
            seed=seed, tag=i,
        )
        cluster.attach_burst_app(
            client,
            ENTITLED_DEMAND_OPS if entitled else COMMODITY_DEMAND_OPS,
            key_gen=gen,
        )
    return cluster


def measure_attainment(cluster: MultiNodeCluster,
                       warmup_periods: int) -> Dict[str, float]:
    """Mean per-period completions after warm-up, over the reservation."""
    out = {}
    for client in cluster.clients:
        counts = cluster.metrics.clients[client.name].period_counts
        window = counts[warmup_periods:]
        if not window:
            raise ConfigError(
                f"no measurement periods for {client.name} "
                f"(run longer than {warmup_periods} warm-up periods)"
            )
        mean = sum(window) / len(window)
        out[client.name] = mean / client.aggregate_reservation
    return out


def run_skewed(seed: int, coordinated: bool,
               scale: Optional[SimScale] = None,
               warmup_periods: int = 6,
               measure_periods: int = 10,
               **build_kwargs) -> dict:
    """One arm of the comparison: build, run, measure, audit."""
    duration = warmup_periods + measure_periods
    cluster = build_skewed_cluster(
        seed, coordinated, scale=scale, **build_kwargs,
    )
    cluster.start()
    cluster.sim.run(until=duration * cluster.config.period)
    cluster.flush_ledgers()
    attainment = measure_attainment(cluster, warmup_periods)
    entitled = {
        name: value for name, value in attainment.items()
        if int(name[1:]) <= NUM_ENTITLED
    }
    hub = getattr(cluster.sim, "telemetry", None)
    ledger = getattr(hub, "ledger", None)
    result = {
        "coordinated": coordinated,
        "attainment": attainment,
        "worst_attainment": min(attainment.values()),
        "worst_entitled_attainment": min(entitled.values()),
        "mean_attainment": (
            sum(attainment.values()) / len(attainment)
        ),
        "ledger_violations": (
            ledger.check_conservation() if ledger is not None else []
        ),
        "split_violations": (
            ledger.check_split_conservation() if ledger is not None else []
        ),
    }
    coordinator = cluster.coordinator
    if coordinator is not None:
        result["rebalances"] = coordinator.rebalances_computed
        result["tokens_shifted"] = coordinator.tokens_shifted
        result["rebalance_events"] = sum(
            len(node.monitor.rebalances) for node in cluster.nodes
        )
        result["fallbacks"] = sum(
            agent.fallbacks for agent in cluster.client_agents
        )
    standby = getattr(cluster, "standby", None)
    if standby is not None:
        # Only present in HA builds, so coordinator-only results (and
        # their committed digests) keep their exact key set.
        result["takeovers"] = standby.takeovers + coordinator.takeovers
        result["stepdowns"] = standby.stepdowns + coordinator.stepdowns
        result["updates_fenced"] = sum(
            agent.updates_fenced for agent in cluster.client_agents
        )
    result["_cluster"] = cluster
    return result


def run_skewed_comparison(seed: int,
                          scale: Optional[SimScale] = None,
                          warmup_periods: int = 6,
                          measure_periods: int = 10,
                          **build_kwargs) -> dict:
    """Static even split vs. coordinator, same seed and workload."""
    static = run_skewed(
        seed, False, scale=scale, warmup_periods=warmup_periods,
        measure_periods=measure_periods, **build_kwargs,
    )
    coordinated = run_skewed(
        seed, True, scale=scale, warmup_periods=warmup_periods,
        measure_periods=measure_periods, **build_kwargs,
    )
    static.pop("_cluster")
    coord_cluster = coordinated.pop("_cluster")
    return {
        "seed": seed,
        "static": static,
        "coordinated": coordinated,
        "worst_gain": (
            coordinated["worst_entitled_attainment"]
            - static["worst_entitled_attainment"]
        ),
        "_cluster": coord_cluster,
    }
