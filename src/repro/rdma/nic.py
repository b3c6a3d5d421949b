"""The RNIC model and its calibrated cost profile.

An RNIC has two serial pipelines:

- the **issue pipeline** serializes locally posted work requests
  (doorbell + WQE fetch + DMA of outbound data + completion handling),
- the **target pipeline** serializes inbound one-sided operations and
  SEND deliveries (the part a ConnectX-class NIC does in hardware
  without the host CPU).

Haechi's evaluation hinges on two capacity constants measured on
Chameleon (Sec. III-B): a single client saturates at ``C_L`` = 400
KIOPS of one-sided 4 KB reads while the data node saturates at ``C_G``
= 1570 KIOPS (four clients needed), and the two-sided path saturates at
327 KIOPS per client / 427 KIOPS per server.  :meth:`NICProfile.chameleon`
is calibrated so the simulated pipelines reproduce exactly those knees:

- one-sided 4 KB READ, initiator issue cost  = 2.500 us  -> 400 KIOPS
- one-sided 4 KB READ, target processing cost = 0.63694 us -> 1570 KIOPS
- two-sided request, initiator issue cost     = 3.0581 us -> 327 KIOPS
- two-sided request, server CPU service cost  = 2.3419 us -> 427 KIOPS
  (see :mod:`repro.rdma.cpu`)

All costs scale linearly with a :class:`~repro.cluster.scale.SimScale`
factor so experiments can run at reduced rates with identical shape.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.common.types import OpType
from repro.sim.resources import Pipeline
from repro.rdma.verbs import WorkRequest


@dataclasses.dataclass(frozen=True)
class NICProfile:
    """Per-operation service costs (seconds) for an RNIC.

    Data-plane costs are affine in the transfer size: ``base +
    size * per_byte``.  The *requester* side of a two-sided exchange
    pays a heavier per-request cost (``send_request_issue``) than the
    hardware-offloaded responder path (``send_response_issue_base``),
    matching the asymmetry measured in the paper's Experiment 1A.
    """

    # one-sided initiator (READ/WRITE)
    onesided_issue_base: float = 1.0e-6
    onesided_issue_per_byte: float = 0.36621e-9  # 1.5 us for 4096 B

    # one-sided target (READ/WRITE): 0.2 + 0.437 us at 4 KB = 0.63694 us
    onesided_target_base: float = 0.2e-6
    onesided_target_per_byte: float = 0.106674e-9

    # atomics (FAA / CAS): 8-byte, latency-bound
    atomic_issue_cost: float = 1.0e-6
    atomic_target_cost: float = 0.25e-6

    # two-sided
    send_request_issue: float = 3.0581e-6  # requester per-op serialization
    send_response_issue_base: float = 0.3e-6
    send_response_issue_per_byte: float = 0.106674e-9
    send_target_base: float = 0.3e-6
    send_target_per_byte: float = 0.05e-9

    # signalling scale factor (1.0 = full Chameleon speed)
    scale: float = 1.0

    def __post_init__(self):
        # Precomputed per-opcode affine cost tables, keyed by
        # (opcode, is_response) -> (base, per_byte), so the per-op hot
        # path is one dict lookup + one multiply-add instead of an
        # opcode branch chain.  The table entries reuse the field
        # values verbatim (flat ops get per_byte = 0.0, and
        # ``base + size * 0.0 == base`` exactly in IEEE-754), so costs
        # are bit-identical to the branching form this replaces.
        issue = {}
        target = {}
        for resp in (False, True):
            for op in (OpType.READ, OpType.WRITE):
                issue[(op, resp)] = (
                    self.onesided_issue_base, self.onesided_issue_per_byte
                )
                target[(op, resp)] = (
                    self.onesided_target_base, self.onesided_target_per_byte
                )
            for op in (OpType.FETCH_ADD, OpType.COMPARE_SWAP):
                issue[(op, resp)] = (self.atomic_issue_cost, 0.0)
                target[(op, resp)] = (self.atomic_target_cost, 0.0)
            target[(OpType.SEND, resp)] = (
                self.send_target_base, self.send_target_per_byte
            )
        issue[(OpType.SEND, False)] = (self.send_request_issue, 0.0)
        issue[(OpType.SEND, True)] = (
            self.send_response_issue_base, self.send_response_issue_per_byte
        )
        object.__setattr__(self, "issue_table", issue)
        object.__setattr__(self, "target_table", target)
        # Flat variants for the RNIC's per-op path, indexed by
        # ``opcode.index * 2 + is_response`` — a couple of list indexes
        # instead of a tuple hash (which would call Enum.__hash__, a
        # Python-level function, twice per op).  None marks opcodes
        # with no cost (RECV).
        n = len(OpType)
        issue_flat = [None] * (2 * n)
        target_flat = [None] * (2 * n)
        for (op, resp), pair in issue.items():
            issue_flat[op.index * 2 + resp] = pair
        for (op, resp), pair in target.items():
            target_flat[op.index * 2 + resp] = pair
        object.__setattr__(self, "issue_flat", tuple(issue_flat))
        object.__setattr__(self, "target_flat", tuple(target_flat))

    @classmethod
    def chameleon(cls, scale: float = 1.0) -> "NICProfile":
        """The profile calibrated to the paper's Chameleon measurements,
        optionally slowed down by ``scale`` (> 1)."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        base = cls()
        if scale == 1.0:
            return base
        return cls(
            **{
                f.name: (getattr(base, f.name) * scale if f.name != "scale" else scale)
                for f in dataclasses.fields(cls)
            }
        )

    def onesided_saturation_rate(self, size: int = 4096) -> float:
        """Target-pipeline saturation rate for one-sided ops (ops/s).

        The analytic knee of the data node's serial target pipeline:
        ``1 / (base + size * per_byte)``.  For the Chameleon profile at
        4 KB this is the paper's C_G (~1.57 M ops/s).  The fluid engine
        uses it as the physical capacity ceiling, so both execution
        modes derive their hardware limit from the same cost table.
        """
        cost = self.onesided_target_base + size * self.onesided_target_per_byte
        return 1.0 / cost

    # ------------------------------------------------------------------
    def issue_cost(self, wr: WorkRequest) -> float:
        """Initiator-side serialization cost of posting ``wr``."""
        try:
            base, per_byte = self.issue_table[(wr.opcode, wr.is_response)]
        except KeyError:
            raise ValueError(f"opcode {wr.opcode} cannot be issued")
        return base + wr.size * per_byte

    def target_cost(self, wr: WorkRequest) -> float:
        """Target-NIC processing cost of an inbound ``wr``."""
        try:
            base, per_byte = self.target_table[(wr.opcode, wr.is_response)]
        except KeyError:
            raise ValueError(f"opcode {wr.opcode} has no target cost")
        return base + wr.size * per_byte


class RNIC:
    """A simulated RNIC: one issue pipeline, one target pipeline.

    The target pipeline is where the data node's one-sided saturation
    capacity lives; one-sided ops never touch the owning host's CPU,
    which is the property Haechi is designed around.
    """

    __slots__ = ("sim", "name", "profile", "issue", "target",
                 "capacity_factor", "_brownout_factor", "_slowdown_factor",
                 "_issued_counts", "_handled_counts",
                 "control_issue_cost_total", "control_target_cost_total",
                 "_issue_flat", "_target_flat")

    def __init__(self, sim: "Simulator", name: str, profile: NICProfile):  # noqa: F821
        self.sim = sim
        self.name = name
        self.profile = profile
        # Cached table refs: the per-op path skips the profile hop.
        self._issue_flat = profile.issue_flat
        self._target_flat = profile.target_flat
        self.issue = Pipeline(sim, f"{name}.issue")
        self.target = Pipeline(sim, f"{name}.target")
        # Brownout hook: the fraction of nominal capacity available.
        # Fault injection lowers it temporarily; every op's service cost
        # is divided by it, which models a NIC processing ops slower
        # (pause storms, PCIe pressure) without reordering anything.
        # A fail-slow injection stacks on top as a cost *multiplier*;
        # the hot path reads the single combined ``capacity_factor``,
        # kept bit-identical to the brownout-only value whenever no
        # slowdown is active (see _recompute_factor).
        self.capacity_factor = 1.0
        self._brownout_factor = 1.0
        self._slowdown_factor = 1.0
        # op accounting, indexed by opcode.index, for overhead reporting
        # (see issued_ops/handled_ops for the dict view)
        self._issued_counts = [0] * len(OpType)
        self._handled_counts = [0] * len(OpType)
        self.control_issue_cost_total = 0.0
        self.control_target_cost_total = 0.0

    @property
    def issued_ops(self):
        """Per-opcode issued-op counts (dict view; cold path)."""
        return {op: self._issued_counts[op.index] for op in OpType}

    @property
    def handled_ops(self):
        """Per-opcode handled-op counts (dict view; cold path)."""
        return {op: self._handled_counts[op.index] for op in OpType}

    def submit_issue(self, wr: WorkRequest, at: float) -> float:
        """Serialize an outbound WR that reaches the NIC at time ``at``;
        returns absolute wire-entry time.

        ``at`` is the posting instant, or under the fabric model the
        end of the PCIe descriptor + doorbell timeline — possibly in
        the future relative to ``sim.now``, so the issue pipeline is
        driven in virtual time (as ``Pipeline.submit_at``).

        Control WRs (atomics, report words, QoS signals) are processed
        on a prioritized lane: they experience their service latency but
        consume no pipeline capacity in the simulation.  At the paper's
        scale their capacity share is 0.03-0.2% of the NIC (measured as
        negligible in the paper); under time dilation the same per-tick
        op frequency against a K-times shorter period would inflate
        that share K-fold, so the faithful choice is to model it as
        zero and report the *paper-scale* overhead analytically from
        the op counters (see ``control_overhead_fraction``).
        """
        op_index = wr.opcode.index
        self._issued_counts[op_index] += 1
        pair = self._issue_flat[op_index * 2 + wr.is_response]
        if pair is None:
            raise ValueError(f"opcode {wr.opcode} cannot be issued")
        base, per_byte = pair
        cost = base + wr.size * per_byte
        # x / 1.0 == x exactly, so skipping the common-case division is
        # free of behaviour change (and brownouts still divide).
        factor = self.capacity_factor
        if factor != 1.0:
            cost = cost / factor
        if wr.control:
            self.control_issue_cost_total += cost
            return at + cost
        # Inlined Pipeline.submit_at (cost is non-negative by
        # construction): one attribute hop per op instead of a call.
        pipe = self.issue
        free = pipe._free_at
        start = free if free > at else at
        finish = start + cost
        pipe._free_at = finish
        pipe._busy += cost
        return finish

    def submit_target(self, wr: WorkRequest,
                      at: Optional[float] = None) -> float:
        """Serialize an inbound WR that arrives at ``at`` (default: now);
        returns absolute processing-done time.

        ``at`` after ``sim.now`` is a data WR charged ahead of its
        arrival: the fabric port's FIFO does that at launch when no
        earlier arrival can overtake it (see :mod:`repro.rdma.qp`), and
        the result is the float this call returns at ``at`` with the
        same charges before it."""
        op_index = wr.opcode.index
        self._handled_counts[op_index] += 1
        pair = self._target_flat[op_index * 2 + wr.is_response]
        if pair is None:
            raise ValueError(f"opcode {wr.opcode} has no target cost")
        base, per_byte = pair
        cost = base + wr.size * per_byte
        factor = self.capacity_factor
        if factor != 1.0:
            cost = cost / factor
        if at is None:
            at = self.sim.now
        if wr.control:
            self.control_target_cost_total += cost
            return at + cost
        # Inlined Pipeline.submit_at (see submit_issue).
        pipe = self.target
        free = pipe._free_at
        start = free if free > at else at
        finish = start + cost
        pipe._free_at = finish
        pipe._busy += cost
        return finish

    def set_capacity_factor(self, factor: float) -> None:
        """Enter/leave a brownout: ``factor`` in (0, 1] scales capacity.

        1.0 restores nominal speed.  The change applies to ops submitted
        from now on; work already accepted by a pipeline keeps its
        original cost (a brownout does not rewrite history).
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"capacity factor must be in (0, 1], got {factor}")
        self._brownout_factor = factor
        self._recompute_factor()

    def set_slowdown(self, multiplier: float) -> None:
        """Enter/leave a fail-slow episode: every op cost is multiplied
        by ``multiplier`` (>= 1; 1.0 restores nominal speed).  Composes
        with a concurrent brownout; like a brownout, it never rewrites
        work a pipeline has already accepted.
        """
        if multiplier < 1.0:
            raise ValueError(
                f"slowdown multiplier must be >= 1, got {multiplier}"
            )
        self._slowdown_factor = multiplier
        self._recompute_factor()

    def _recompute_factor(self) -> None:
        # When no slowdown is active the combined factor must be the
        # brownout factor *verbatim* (not brownout / 1.0, which is equal
        # but would re-derive the float) so existing brownout-only runs
        # stay bit-identical.
        slow = self._slowdown_factor
        if slow == 1.0:
            self.capacity_factor = self._brownout_factor
        else:
            self.capacity_factor = self._brownout_factor / slow

    def control_overhead_fraction(self, periods: float,
                                  paper_period: float = 1.0) -> dict:
        """Paper-scale capacity share of control ops on this NIC.

        ``periods`` is how many QoS periods the accumulated counters
        cover.  The per-period control cost is divided by the *paper*
        period (1 s), because control-op frequency is per-tick (fixed
        count per period) while their service cost is physical — the
        quantity a real deployment would observe.  The dilated
        (simulated) period deliberately plays no role here: dividing by
        it would inflate the fraction K-fold under time dilation K.
        """
        if periods <= 0:
            raise ValueError(f"periods must be positive, got {periods}")
        return {
            "issue": self.control_issue_cost_total / periods / paper_period,
            "target": self.control_target_cost_total / periods / paper_period,
        }

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry.

        Callback gauges over the existing counters: registration adds
        no per-op cost (see repro.telemetry.registry).
        """
        items = []
        for op in OpType:
            items.append((f"nic_issued_ops_{op.name.lower()}",
                          lambda i=op.index: self._issued_counts[i]))
            items.append((f"nic_handled_ops_{op.name.lower()}",
                          lambda i=op.index: self._handled_counts[i]))
        items.extend([
            ("nic_control_issue_cost_seconds",
             lambda: self.control_issue_cost_total),
            ("nic_control_target_cost_seconds",
             lambda: self.control_target_cost_total),
            ("nic_capacity_factor", lambda: self.capacity_factor),
        ])
        return items

    def reset_accounting(self) -> None:
        """Zero utilization + op counters (measurement-window start)."""
        self.issue.reset_accounting()
        self.target.reset_accounting()
        self._issued_counts = [0] * len(OpType)
        self._handled_counts = [0] * len(OpType)
        self.control_issue_cost_total = 0.0
        self.control_target_cost_total = 0.0
