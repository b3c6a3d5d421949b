"""Fabric-model scenario family: incast, verb mixes, CC-vs-tokens.

The scenarios Haechi never tested, opened by the congestion-controlled
fabric (:mod:`repro.rdma.cc`, docs/FABRIC.md):

- **incast** — N clients hammering one data node's ingress port with
  4 KB READs; with DCQCN enabled the per-QP rates converge to the
  port's fair share (ECN marks -> CNPs -> multiplicative decrease),
  with it disabled PFC pause is the only thing keeping the port queue
  bounded.
- **verb mixes** — WRITE-heavy, CAS-heavy, and mixed-op-size READ
  workloads exercising the per-verb posting buckets (READ/WRITE/ATOMIC
  draw from different per-QP token buckets).
- **congestion vs. token throttling** — the same incast under Haechi
  QoS at two reservation levels: low reservations are token-bound
  (tokens run out long before the port queues; no CNPs), high
  reservations are fabric-bound (entitlement exceeds the port, DCQCN
  becomes the operative limiter under the token envelope).

Every scenario is deterministic for a given seed: drivers draw
verbs/sizes from private ``make_rng`` streams, ECN marks come from the
fabric's own per-port streams, and the ``fabric`` digest family
(:mod:`repro.cluster.determinism`) pins the full result payloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.common.types import OpType, QoSMode
from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.experiment import run_experiment
from repro.cluster.scale import SimScale
from repro.cluster.scenarios import TEST_SCALE, qos_cluster
from repro.policy import load_policy
from repro.rdma.cc import FabricModel
from repro.rdma.memory import Permissions
from repro.rdma.verbs import WorkRequest

#: Fan-in of the canonical incast: enough senders that aggregate issue
#: capacity (8 x 400 KIOPS) comfortably exceeds the 50 Gb/s port
#: (~1.5 M 4 KB ops/s), so the port — not the NICs — is the bottleneck.
INCAST_CLIENTS = 8

#: Canonical verb mixes, (weight, opcode) rows per kind.
VERB_MIXES: Dict[str, Tuple[Tuple[float, OpType], ...]] = {
    "read-only": ((1.0, OpType.READ),),
    "write-heavy": ((0.2, OpType.READ), (0.7, OpType.WRITE),
                    (0.1, OpType.FETCH_ADD)),
    "cas-heavy": ((0.3, OpType.READ), (0.2, OpType.WRITE),
                  (0.5, OpType.COMPARE_SWAP)),
}

#: Mixed-op-size distribution for the size-diversity scenario
#: ((weight, bytes) rows; weights sum to 1).
MIXED_SIZES: Tuple[Tuple[float, int], ...] = (
    (0.5, 512), (0.3, 4096), (0.2, 16384),
)


class MixedVerbDriver:
    """A window-gated driver posting a verb/size mix straight on a QP.

    Bypasses the KV/QoS layers on purpose: these scenarios characterize
    the *fabric*, so the driver speaks raw work requests (READ/WRITE
    timing-only against the store, atomics against 8-byte words of
    ``atomic_region`` — the store's own rkey grants no remote atomics)
    with a completion-gated window — the classic incast sender.  Verbs
    and sizes are drawn from a private seeded stream, so runs are
    bit-deterministic.
    """

    def __init__(self, sim, kv, name: str, total_ops: int, window: int,
                 atomic_region, mix=VERB_MIXES["read-only"],
                 sizes=((1.0, 4096),), seed: int = 0):
        if total_ops < 1 or window < 1:
            raise ConfigError("total_ops and window must be >= 1")
        self.sim = sim
        self.kv = kv
        self.name = name
        self.total = total_ops
        self.window = window
        self.mix = tuple(mix)
        self.sizes = tuple(sizes)
        self.atomic_region = atomic_region
        self._atomic_words = atomic_region.length // 8
        self._rng = make_rng(seed, "fabric-driver", name)
        layout = kv.layout
        max_size = max(size for _, size in self.sizes)
        # Keys cycle over a range whose largest access stays in-region.
        span_slots = -(-max_size // layout.slot_size)
        self._key_limit = max(1, layout.num_slots - span_slots)
        self.posted = 0
        self.completed = 0
        self.failed = 0
        self.finished_at: Optional[float] = None
        self.ops_by_verb = {"read": 0, "write": 0, "atomic": 0}

    def start(self) -> None:
        """Prime the window; the completion loop keeps it full."""
        for _ in range(min(self.window, self.total)):
            self._post()

    def _draw(self, table):
        r = self._rng.random()
        acc = 0.0
        for weight, value in table:
            acc += weight
            if r < acc:
                return value
        return table[-1][1]

    def _post(self) -> None:
        op = self._draw(self.mix)
        key = self.posted % self._key_limit
        self.posted += 1
        layout = self.kv.layout
        if op is OpType.READ:
            self.ops_by_verb["read"] += 1
            wr = WorkRequest(
                opcode=op, size=self._draw(self.sizes),
                remote_addr=layout.slot_addr(key), rkey=self.kv.data_rkey,
                touch_memory=False, on_completion=self._on_wc,
            )
        elif op is OpType.WRITE:
            self.ops_by_verb["write"] += 1
            wr = WorkRequest(
                opcode=op, size=self._draw(self.sizes),
                remote_addr=layout.slot_addr(key), rkey=self.kv.data_rkey,
                touch_memory=False, on_completion=self._on_wc,
            )
        else:  # FETCH_ADD / COMPARE_SWAP on a word of the atomic region
            self.ops_by_verb["atomic"] += 1
            region = self.atomic_region
            wr = WorkRequest(
                opcode=op, size=8,
                remote_addr=region.addr + 8 * (key % self._atomic_words),
                rkey=region.rkey, add_value=1, compare=0, swap=1,
                on_completion=self._on_wc,
            )
        self.kv.qp.post_send(wr)

    def _on_wc(self, wc) -> None:
        if wc.ok:
            self.completed += 1
        else:
            self.failed += 1
        if self.posted < self.total:
            self._post()
        elif self.completed + self.failed == self.total:
            self.finished_at = self.sim.now

    def summary(self) -> dict:
        """Deterministic per-driver result payload."""
        return {
            "posted": self.posted,
            "completed": self.completed,
            "failed": self.failed,
            "finished_at": self.finished_at,
            "ops_by_verb": dict(self.ops_by_verb),
        }


def _bare_fabric_cluster(num_clients: int, model: FabricModel,
                         seed: int, scale: Optional[SimScale] = None,
                         num_slots: int = 4096) -> Cluster:
    """A QoS-less cluster with the fabric model attached."""
    return build_cluster(
        num_clients=num_clients,
        qos_mode=QoSMode.BARE,
        scale=scale or TEST_SCALE,
        num_slots=num_slots,
        master_seed=seed,
        fabric_model=model,
    )


def _qp_rates(cluster: Cluster) -> List[dict]:
    """Final per-client DCQCN state, sorted by client name."""
    rows = []
    for ctx in cluster.clients:
        fab = ctx.kv.qp.fab
        if fab is None:
            continue
        row = {"client": ctx.name, "cnps_sent": fab.cnps_sent,
               "sq_stalls": fab.sq_stall_events,
               "single_posts": fab.single_posts,
               "chain_posts": fab.chain_posts,
               "chain_wrs": fab.chain_wrs}
        if fab.cc is not None:
            row["rate_bps"] = fab.cc.rate
            row["cnps_received"] = fab.cc.cnps_received
            row["rate_decreases"] = fab.cc.rate_decreases
        rows.append(row)
    return sorted(rows, key=lambda r: r["client"])


def mixed_verb_cell(seed: int, kind: str, cc_enabled: bool,
                    num_clients: int, ops_per_client: int, window: int,
                    sizes, horizon: float):
    """Build and run one bare fan-in cell; ``(cluster, drivers)``."""
    model = FabricModel.chameleon(cc_enabled=cc_enabled)
    cluster = _bare_fabric_cluster(num_clients, model, seed)
    atomic_region = cluster.server_host.memory.allocate_and_register(
        4096, Permissions.all()
    )
    drivers = []
    for ctx in cluster.clients:
        driver = MixedVerbDriver(
            cluster.sim, ctx.kv, ctx.name, ops_per_client, window,
            atomic_region, mix=VERB_MIXES[kind], sizes=sizes, seed=seed,
        )
        drivers.append(driver)
        driver.start()
    cluster.sim.run(until=horizon)
    return cluster, drivers


def run_mixed_verb(seed: int, kind: str = "read-only",
                   cc_enabled: bool = True,
                   num_clients: int = INCAST_CLIENTS,
                   ops_per_client: int = 1200,
                   window: int = 32,
                   sizes=((1.0, 4096),),
                   horizon: float = 0.25) -> dict:
    """Run one bare fan-in scenario and return its result payload.

    ``kind`` picks a row of :data:`VERB_MIXES`; ``sizes`` the op-size
    distribution.  All clients target the single data node, so the
    destination port congests exactly like a switch incast hotspot.
    """
    cluster, drivers = mixed_verb_cell(
        seed, kind, cc_enabled, num_clients, ops_per_client, window, sizes,
        horizon,
    )
    makespans = [d.finished_at for d in drivers]
    result = {
        "kind": kind,
        "cc_enabled": cc_enabled,
        "num_clients": num_clients,
        "ops_per_client": ops_per_client,
        "drivers": {d.name: d.summary() for d in drivers},
        "all_finished": all(m is not None for m in makespans),
        "makespan": max((m for m in makespans if m is not None),
                        default=None),
        "qps": _qp_rates(cluster),
        "cc": cluster.fabric.cc_summary(),
    }
    failed = sum(d.failed for d in drivers)
    if failed:
        # Only on a run with failures: a clean payload stays the one
        # the ``fabric`` digests pin.
        result["failed_ops"] = failed
    return result


def run_incast(seed: int, cc_enabled: bool = True,
               num_clients: int = INCAST_CLIENTS,
               ops_per_client: int = 1200, window: int = 32) -> dict:
    """The canonical 4 KB READ incast (see module docstring)."""
    result = run_mixed_verb(
        seed, "read-only", cc_enabled=cc_enabled, num_clients=num_clients,
        ops_per_client=ops_per_client, window=window,
    )
    result["kind"] = "incast"
    return result


#: Reservation levels for the CC-vs-token-throttling comparison, in
#: unscaled ops/s per client, loaded from the committed
#: ``fabric-throttle`` policy document (pinned against drift by
#: tests/policy/test_builtin.py).  ``low`` x 8 = 480 K ops/s — far
#: under the ~1.5 M ops/s port, so tokens bind.  ``high`` x 8 =
#: 1.52 M ops/s — right at the port knee, so the fabric binds under
#: the token envelope.
THROTTLE_POLICY = load_policy("fabric-throttle")
THROTTLE_LOW_OPS = THROTTLE_POLICY.class_named("token-bound").reservation_ops
THROTTLE_HIGH_OPS = THROTTLE_POLICY.class_named(
    "fabric-bound").reservation_ops


def run_throttle_vs_cc(seed: int, reservation_ops: int,
                       cc_enabled: bool = True,
                       num_clients: int = INCAST_CLIENTS,
                       warmup: int = 1, measure: int = 4) -> dict:
    """Haechi QoS + fabric model: who limits, tokens or the fabric?

    Returns per-client attainment (completions / reservation) plus the
    fabric's congestion counters; the ``fabric`` digest family pins one
    low- and one high-reservation run per seed.
    """
    model = FabricModel.chameleon(cc_enabled=cc_enabled)
    reservations = [reservation_ops] * num_clients
    demands = [reservation_ops * 2.0] * num_clients
    cluster = qos_cluster(
        reservations, demands, scale=TEST_SCALE, master_seed=seed,
        fabric_model=model,
    )
    result = run_experiment(
        cluster, warmup_periods=warmup, measure_periods=measure
    )
    config = cluster.config
    expected = config.tokens_per_period(reservation_ops)
    attainment = {
        name: round(
            (sum(counts) / len(counts) / expected) if counts else 0.0, 6
        )
        for name, counts in sorted(result.client_period_counts.items())
    }
    return {
        "kind": "throttle-vs-cc",
        "cc_enabled": cc_enabled,
        "reservation_ops": reservation_ops,
        "tokens_per_period": expected,
        "attainment": attainment,
        "total_kiops": round(result.total_kiops(), 3),
        "qps": _qp_rates(cluster),
        "cc": cluster.fabric.cc_summary(),
    }


def run_fabric_family(seed: int) -> dict:
    """Every fabric scenario for one seed (the digest payload)."""
    return {
        "incast_cc_on": run_incast(seed, cc_enabled=True),
        "incast_cc_off": run_incast(seed, cc_enabled=False),
        "write_heavy": run_mixed_verb(seed, "write-heavy"),
        "cas_heavy": run_mixed_verb(seed, "cas-heavy"),
        "mixed_size": run_mixed_verb(seed, "read-only", sizes=MIXED_SIZES),
        "throttle_low": run_throttle_vs_cc(seed, THROTTLE_LOW_OPS),
        "throttle_high": run_throttle_vs_cc(seed, THROTTLE_HIGH_OPS),
    }
