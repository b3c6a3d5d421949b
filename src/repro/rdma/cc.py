"""The congestion-controlled fabric model: verb buckets, PCIe posting
costs, a congestible port with ECN marking, DCQCN rate control, and PFC.

Haechi's evaluation assumes contention lives only at the NIC pipelines
(a single-data-node bottleneck); this module is the opt-in upgrade that
models the *fabric* between the NICs, following two concrete sources:

- the rdma-dm-sim NIC posting model (SNIPPETS.md, Snippet 1): per-QP
  per-verb token buckets, a bounded send queue, and PCIe descriptor +
  doorbell costs with doorbell batching — the mechanism that gives
  ``submit_burst``/``post_chain`` a *calibrated* cost advantage instead
  of a free one;
- the HPCC ns-3 ``rdma-hw`` attribute set (Snippets 2-3): DCQCN-style
  ECN/CNP rate control (EWMA ``alpha``, multiplicative decrease, fast
  recovery + additive/hyper-additive increase) with PFC pause as the
  lossless backstop.

Everything here is **disabled by default**: on a cluster built without
a :class:`FabricModel` the datapath skips every stage defined here — no
extra float operations, no extra events, no RNG draws — so every pinned
determinism digest stays byte-identical (the CC-disabled equivalence
guarantee, see docs/FABRIC.md).  The Chameleon knees in
``NICProfile.chameleon`` are untouched: the model's posting costs are
calibrated *under* the 2.5 us issue-pipeline cost, so the single-client
C_L = 400 KIOPS knee survives with the model enabled.

Topology simplification: the congestible resource is one ingress port
per destination host (the single-switch incast hotspot).  A READ's
response bytes physically travel the opposite direction, but in a
single-bottleneck topology the request and response share the same
contended egress/ingress pair, so charging each op's wire bytes at the
destination port models the aggregate correctly and keeps the model at
one deterministic arithmetic stage per op.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.sim.resources import Pipeline

#: Advance at most this many DCQCN timer rounds per lazy update; beyond
#: it the controller has long since recovered to line rate (and alpha
#: has decayed to ~(1-g)^64 ~= 1.6%), so truncating is exact in effect
#: while keeping the per-op cost bounded.
_MAX_TIMER_ROUNDS = 64


@dataclasses.dataclass(frozen=True)
class FabricModel:
    """Configuration of the verb-diverse NIC + congestion-controlled
    fabric.  All times are physical seconds, rates bytes/second or
    ops/second as named.

    The defaults are the calibrated "Chameleon fabric" (see
    :meth:`chameleon` and docs/FABRIC.md): posting costs sum to 1.0 us
    per single post — strictly under the 2.5 us issue-pipeline cost, so
    C_L is preserved — and the 50 Gb/s port sits just below C_G so
    incast (not a lone client) is what congests it.
    """

    # --- host posting (PCIe) ------------------------------------------
    #: MMIO descriptor write per WR (paid per WR, chained or not).
    pcie_desc_cost: float = 0.15e-6
    #: Doorbell ring (paid per post; amortized per batch by post_chain).
    pcie_doorbell_cost: float = 0.85e-6
    #: WRs covered by one doorbell in a chained post.
    doorbell_batch_limit: int = 16
    # --- send queue ----------------------------------------------------
    #: Bounded SQ depth: posts beyond it wait for a completion slot.
    sq_depth: int = 128
    # --- per-verb token buckets (per QP, ops/s) ------------------------
    read_bucket_ops: float = 2_000_000.0
    write_bucket_ops: float = 1_000_000.0
    atomic_bucket_ops: float = 500_000.0
    #: Bucket burst capacity, in ops.
    bucket_burst_ops: float = 64.0
    # --- the congestible port ------------------------------------------
    #: Port line rate; 50 Gb/s puts the port just under C_G at 4 KB.
    link_gbps: float = 50.0
    #: Per-op wire overhead (headers, CRC) added to the payload bytes.
    header_bytes: int = 64
    # --- ECN marking (RED-style, DCQCN's Kmin/Kmax/Pmax) ---------------
    ecn_kmin_bytes: float = 100_000.0
    ecn_kmax_bytes: float = 400_000.0
    ecn_pmax: float = 0.2
    # --- DCQCN reaction point ------------------------------------------
    #: Master switch for rate control; with it off the model still pays
    #: posting costs and PFC backstops the port (lossless fabric).
    cc_enabled: bool = True
    #: Minimum time between CNPs generated for one QP.
    cnp_interval: float = 50e-6
    #: EWMA gain for alpha (DCQCN's g = 1/16).
    dcqcn_g: float = 0.0625
    #: Shared alpha-decay / rate-increase timer (simplification: DCQCN's
    #: two timers collapsed into one; see docs/FABRIC.md).
    dcqcn_timer: float = 55e-6
    #: Fast-recovery rounds before additive increase begins.
    fast_recovery_rounds: int = 5
    #: Additive-increase rounds before hyper-additive kicks in.
    additive_rounds: int = 5
    #: Additive / hyper-additive target-rate increments (bytes/s).
    rate_ai_bps: float = 5e6
    rate_hai_bps: float = 50e6
    #: Rate floor (bytes/s): 0.1% of a 50 Gb/s line.
    min_rate_bps: float = 6.25e6
    # --- PFC (lossless backstop) ---------------------------------------
    pfc_pause_bytes: float = 600_000.0
    pfc_resume_bytes: float = 300_000.0

    def __post_init__(self):
        if self.doorbell_batch_limit < 1:
            raise ValueError("doorbell_batch_limit must be >= 1")
        if self.sq_depth < 1:
            raise ValueError("sq_depth must be >= 1")
        if self.link_gbps <= 0:
            raise ValueError("link_gbps must be positive")
        if not self.ecn_kmin_bytes < self.ecn_kmax_bytes:
            raise ValueError("need ecn_kmin_bytes < ecn_kmax_bytes")
        if not self.pfc_resume_bytes < self.pfc_pause_bytes:
            raise ValueError("need pfc_resume_bytes < pfc_pause_bytes")

    @classmethod
    def chameleon(cls, cc_enabled: bool = True) -> "FabricModel":
        """The calibrated profile matching the Chameleon NIC knees.

        Single-post host cost = desc + doorbell = 1.0 us < the 2.5 us
        issue-pipeline cost, so the C_L = 400 KIOPS single-client knee
        is set by the issue pipeline exactly as before; the READ bucket
        (2 M ops/s) never binds at that knee.  Chained posts pay
        ``desc + doorbell/16`` ~= 0.203 us per WR — the principled
        ~4.9x host-posting advantage ``submit_burst`` previously got
        for free.
        """
        return cls(cc_enabled=cc_enabled)

    @property
    def link_bytes_per_sec(self) -> float:
        """Port line rate in bytes/second."""
        return self.link_gbps * 1e9 / 8.0

    def single_post_cost(self) -> float:
        """Host posting cost of one un-chained WR (seconds)."""
        return self.pcie_desc_cost + self.pcie_doorbell_cost

    def chained_post_cost(self, n: int) -> float:
        """Total host posting cost of an ``n``-WR doorbell-batched chain."""
        batches = -(-n // self.doorbell_batch_limit)  # ceil
        return n * self.pcie_desc_cost + batches * self.pcie_doorbell_cost

    def burst_advantage(self, n: int) -> float:
        """Calibrated single-post vs chained per-WR posting cost ratio."""
        return n * self.single_post_cost() / self.chained_post_cost(n)


class DCQCNState:
    """Per-QP DCQCN reaction point: paced rate plus recovery machinery.

    The controller is evaluated *lazily*: instead of scheduling alpha
    and rate-increase timer events, :meth:`pace` advances the timers
    arithmetically to the pacing instant (bounded by
    ``_MAX_TIMER_ROUNDS``), so an idle QP costs nothing and the hot
    path stays event-free.  All state transitions are plain +,*,/
    float arithmetic — bit-deterministic across runs.
    """

    __slots__ = ("line_rate", "rate", "target", "alpha", "g", "min_rate",
                 "ai", "hai", "timer", "fast_rounds", "additive_rounds",
                 "stage", "last_timer", "next_free", "cnps_received",
                 "rate_decreases", "increase_rounds", "bytes_paced")

    def __init__(self, model: FabricModel):
        self.line_rate = model.link_bytes_per_sec
        self.rate = self.line_rate
        self.target = self.line_rate
        self.alpha = 1.0
        self.g = model.dcqcn_g
        self.min_rate = model.min_rate_bps
        self.ai = model.rate_ai_bps
        self.hai = model.rate_hai_bps
        self.timer = model.dcqcn_timer
        self.fast_rounds = model.fast_recovery_rounds
        self.additive_rounds = model.additive_rounds
        # Start beyond every recovery stage: an uncongested QP paces at
        # line rate and the increase rounds are clamped no-ops.
        self.stage = model.fast_recovery_rounds + model.additive_rounds + 1
        self.last_timer = 0.0
        self.next_free = 0.0
        self.cnps_received = 0
        self.rate_decreases = 0
        self.increase_rounds = 0
        self.bytes_paced = 0.0

    def _advance(self, t: float) -> None:
        """Apply every timer round that elapsed before ``t``."""
        elapsed = t - self.last_timer
        if elapsed < self.timer:
            return
        rounds = int(elapsed / self.timer)
        if rounds > _MAX_TIMER_ROUNDS:
            rounds = _MAX_TIMER_ROUNDS
            self.last_timer = t
        else:
            self.last_timer += rounds * self.timer
        line = self.line_rate
        for _ in range(rounds):
            # Alpha decays every round no CNP arrived in.
            self.alpha *= 1.0 - self.g
            self.stage += 1
            self.increase_rounds += 1
            if self.stage <= self.fast_rounds:
                pass  # fast recovery: target holds at the pre-cut rate
            elif self.stage <= self.fast_rounds + self.additive_rounds:
                self.target += self.ai
            else:
                self.target += self.hai
            if self.target > line:
                self.target = line
            self.rate = 0.5 * (self.rate + self.target)
            if self.rate >= line:
                self.rate = line
                self.target = line
                break  # fully recovered; further rounds are no-ops

    def on_cnp(self, t: float) -> None:
        """Congestion notification: cut the rate, reset recovery."""
        self._advance(t)
        self.cnps_received += 1
        self.rate_decreases += 1
        self.alpha = (1.0 - self.g) * self.alpha + self.g
        self.target = self.rate
        cut = self.rate * (1.0 - 0.5 * self.alpha)
        self.rate = cut if cut > self.min_rate else self.min_rate
        self.stage = 0
        self.last_timer = t

    def pace(self, nbytes: float, at: float) -> float:
        """Earliest wire-entry time for ``nbytes`` posted at ``at``."""
        if at - self.last_timer >= self.timer:
            # _advance's own early return, tested before the call.
            self._advance(at)
        start = at if at > self.next_free else self.next_free
        self.next_free = start + nbytes / self.rate
        self.bytes_paced += nbytes
        return start


class FabricPort:
    """A congestible ingress port: serial link, ECN marking, PFC pause.

    The link itself is a :class:`Pipeline` evaluated in virtual time
    (frames may be handed over at future instants by the posting
    chain).  ECN marks are drawn from a private seeded stream
    (``make_rng(seed, "fabric-ecn", name)``), so enabling the model
    never perturbs any other component's RNG.  PFC is the lossless
    backstop: when the queue crosses the pause threshold, upstream
    wire entry is held until the queue drains to the resume threshold
    — computable in closed form because the port drains at exactly the
    line rate.

    The port also fixes the order in which ops reach the host behind
    it: exit times strictly increase, so with one propagation delay
    (``prop_delay``, the fabric's) ops arrive in admission order.
    ``pending`` is the FIFO of admitted ops still to reach the target
    behind one whose arrival is an event, as ``(qp, wr, posted_at,
    arrive_at, fast)`` tuples, and ``charged_until`` the arrival instant
    of the last op charged to the target ahead of its arrival (see
    :mod:`repro.rdma.qp`).  ``prop_delay`` is None on a port that
    orders nothing: one built outside a fabric, or one a QP with
    another delay has used.
    """

    __slots__ = ("sim", "name", "model", "rate", "pipe", "_rng",
                 "paused_until", "ops_admitted", "bytes_admitted",
                 "ecn_marks", "pfc_pause_events", "pfc_pause_seconds",
                 "pfc_delayed_ops", "prop_delay", "pending",
                 "charged_until")

    def __init__(self, sim, name: str, model: FabricModel, seed: int,
                 prop_delay: Optional[float] = None):
        self.sim = sim
        self.name = name
        self.model = model
        self.rate = model.link_bytes_per_sec
        self.pipe = Pipeline(sim, f"{name}.port")
        self._rng = make_rng(seed, "fabric-ecn", name)
        self.prop_delay = prop_delay
        self.pending: deque = deque()
        self.charged_until = 0.0
        self.paused_until = 0.0
        self.ops_admitted = 0
        self.bytes_admitted = 0
        self.ecn_marks = 0
        self.pfc_pause_events = 0
        self.pfc_pause_seconds = 0.0
        self.pfc_delayed_ops = 0

    def admit(self, nbytes: float, entry: float):
        """Admit a frame reaching the wire at ``entry``.

        Returns ``(exit_time, ecn_marked)``: when the frame leaves the
        port toward the destination NIC, and whether it picked up an
        ECN mark from the queue it found on arrival.
        """
        model = self.model
        if entry < self.paused_until:
            # Upstream is PFC-paused: the frame waits at the sender.
            self.pfc_delayed_ops += 1
            entry = self.paused_until
        backlog = self.pipe._free_at - entry
        backlog_bytes = backlog * self.rate if backlog > 0.0 else 0.0
        marked = False
        if backlog_bytes >= model.ecn_kmax_bytes:
            marked = True
        elif backlog_bytes > model.ecn_kmin_bytes:
            p = model.ecn_pmax * (
                (backlog_bytes - model.ecn_kmin_bytes)
                / (model.ecn_kmax_bytes - model.ecn_kmin_bytes)
            )
            marked = self._rng.random() < p
        # Inlined Pipeline.submit_at (the cost is positive).
        pipe = self.pipe
        cost = nbytes / self.rate
        free = pipe._free_at
        exit_time = (free if free > entry else entry) + cost
        pipe._free_at = exit_time
        pipe._busy += cost
        self.ops_admitted += 1
        self.bytes_admitted += nbytes
        if marked:
            self.ecn_marks += 1
        # PFC assertion: queue (measured after enqueue) past the pause
        # threshold pauses upstream until it drains to the resume
        # threshold.  The port is a fixed-rate serial server, so the
        # resume instant is exact arithmetic, not an event.
        queue_bytes = (self.pipe._free_at - entry) * self.rate
        if queue_bytes >= model.pfc_pause_bytes and self.paused_until <= entry:
            resume_at = self.pipe._free_at - model.pfc_resume_bytes / self.rate
            if resume_at > entry:
                self.paused_until = resume_at
                self.pfc_pause_events += 1
                self.pfc_pause_seconds += resume_at - entry
        return exit_time, marked

    def in_flight(self) -> bool:
        """Whether an op through this port is still to reach the target
        after an op charged ahead of it or queued in ``pending``."""
        return bool(self.pending) or self.charged_until > self.sim.now

    def unorder(self) -> None:
        """Stop ordering arrivals: a QP whose delay differs from the
        port's launched through it, so arrivals need not follow
        admission order any more and every op takes its arrival event.
        Refused while ops charged ahead of their arrival are in flight:
        one arriving after this op's arrival would have been charged
        out of order."""
        if self.prop_delay is None:
            return
        if self.in_flight():
            raise ConfigError(
                f"port {self.name}: a QP with another propagation delay "
                f"launched while ops ordered by the port are in flight"
            )
        self.prop_delay = None

    @property
    def backlog_bytes(self) -> float:
        """Bytes queued at the port right now."""
        return self.pipe.backlog * self.rate

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        return [
            ("fabric_port_ops_admitted", lambda: self.ops_admitted),
            ("fabric_port_bytes_admitted", lambda: self.bytes_admitted),
            ("fabric_port_ecn_marks", lambda: self.ecn_marks),
            ("fabric_port_pfc_pause_events", lambda: self.pfc_pause_events),
            ("fabric_port_pfc_pause_seconds",
             lambda: self.pfc_pause_seconds),
            ("fabric_port_pfc_delayed_ops", lambda: self.pfc_delayed_ops),
            ("fabric_port_backlog_bytes", lambda: self.backlog_bytes),
        ]


class QPFabricState:
    """Per-QP fabric-model state: posting timeline, verb buckets, SQ
    slots, DCQCN controller, and CNP bookkeeping.

    Created by :meth:`Fabric.connect` when the fabric carries a
    :class:`FabricModel`; ``None`` on every QP otherwise (the datapath
    checks one attribute and skips its model-only stages).
    """

    __slots__ = ("model", "port", "post_ready_at", "buckets", "sq",
                 "sq_stall_events", "cc", "last_cnp_at",
                 "cnps_sent", "chain_posts", "chain_wrs", "single_posts")

    def __init__(self, sim, model: FabricModel, port: FabricPort):
        from repro.sim.resources import Semaphore, TokenBucket

        self.model = model
        self.port = port
        self.post_ready_at = 0.0
        burst = model.bucket_burst_ops
        self.buckets = (
            TokenBucket(model.read_bucket_ops, burst),
            TokenBucket(model.write_bucket_ops, burst),
            TokenBucket(model.atomic_bucket_ops, burst),
        )
        self.sq = Semaphore(sim, model.sq_depth)
        self.sq_stall_events = 0
        self.cc = DCQCNState(model) if model.cc_enabled else None
        self.last_cnp_at = -1.0
        self.cnps_sent = 0
        self.chain_posts = 0
        self.chain_wrs = 0
        self.single_posts = 0

    def post(self, now: float, n: int) -> float:
        """One host post of ``n`` WRs made at ``now``: ``n`` PCIe
        descriptor writes, then one doorbell, starting no earlier than
        the previous post finished.  Returns when the NIC sees the WRs.
        A single post is ``n == 1`` (``1 * desc == desc`` exactly).
        """
        model = self.model
        ready = self.post_ready_at
        if now > ready:
            ready = now
        ready += n * model.pcie_desc_cost + model.pcie_doorbell_cost
        self.post_ready_at = ready
        return ready

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            ("fabric_qp_single_posts", lambda: self.single_posts),
            ("fabric_qp_chain_posts", lambda: self.chain_posts),
            ("fabric_qp_chain_wrs", lambda: self.chain_wrs),
            ("fabric_qp_sq_stall_events", lambda: self.sq_stall_events),
            ("fabric_qp_sq_in_use", lambda: self.sq.in_use),
            ("fabric_qp_cnps_sent", lambda: self.cnps_sent),
        ]
        cc = self.cc
        if cc is not None:
            items.extend([
                ("fabric_qp_rate_bps", lambda: cc.rate),
                ("fabric_qp_alpha", lambda: cc.alpha),
                ("fabric_qp_rate_decreases", lambda: cc.rate_decreases),
                ("fabric_qp_cnps_received", lambda: cc.cnps_received),
            ])
        return items
