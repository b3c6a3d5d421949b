"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live fabric.

The injector is the single decision point for wire faults: every QP of
the fabric calls :meth:`on_post` for each posted work request and gets a
:class:`FaultVerdict` back (pass / drop / delay).  Scheduled faults
(brownouts, QP closes) are installed as simulator events; crash windows
are evaluated inline against the posting time.

Determinism: each link ``(src, dst)`` owns a private RNG derived from
``(seed, src, dst)`` via :func:`repro.common.rng.make_rng`, advanced
once per matching probabilistic rule.  For a fixed plan, seed, and
event order — which the DES guarantees — the fault sequence is
reproducible bit-for-bit, so a faulty run is exactly as replayable as a
clean one.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.faults.plan import FaultPlan
from repro.telemetry.records import record


@dataclasses.dataclass(frozen=True)
class FaultVerdict:
    """The injector's decision for one posted work request."""

    drop: bool = False
    delay: float = 0.0
    fail_after: float = 0.0
    reason: str = ""


_PASS = FaultVerdict()


class FaultInjector:
    """Deterministic, seeded fault application (see module docstring).

    Counters are kept per fault label so benches and the CLI can report
    exactly what a run suffered; every event is also a protocol record
    (:func:`~repro.telemetry.records.record`) under the ``fault``
    category.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.fabric = None
        self.sim = None
        self._link_rngs: Dict[Tuple[str, str], object] = {}
        # telemetry
        self.dropped = Counter()  # label -> count (includes "crash")
        self.delayed = Counter()  # label -> count
        self.delay_injected_total = 0.0
        self.brownouts_applied = 0
        self.qps_closed = 0
        self.qp_close_misses = 0
        self.partitions_cut = 0
        self.slowdowns_applied = 0

    # ------------------------------------------------------------------
    def install(self, fabric) -> "FaultInjector":
        """Attach to ``fabric`` and schedule the plan's timed faults."""
        if fabric.injector is not None:
            raise ConfigError("fabric already has a fault injector")
        # A port charges ops to their target ahead of arrival only while
        # the fabric has no injector; an op so charged that has not yet
        # arrived would miss a brownout or slowdown starting first.
        busy = sorted(name for name, port in fabric.ports.items()
                      if port.in_flight())
        if busy:
            raise ConfigError(
                f"cannot install a fault injector while ops ordered by "
                f"fabric ports {busy} are in flight"
            )
        missing = self.plan.hosts_named() - set(fabric.hosts)
        if missing:
            raise ConfigError(
                f"fault plan names unknown hosts: {sorted(missing)}"
            )
        fabric.injector = self
        self.fabric = fabric
        self.sim = sim = fabric.sim
        for b in self.plan.brownouts:
            sim.schedule_at(b.start, self._brownout_begin, b)
            sim.schedule_at(b.end, self._brownout_end, b)
        for q in self.plan.qp_closes:
            sim.schedule_at(q.time, self._close_qp, q)
        for s in self.plan.slowdowns:
            sim.schedule_at(s.start, self._slowdown_begin, s)
            sim.schedule_at(s.end, self._slowdown_end, s)
        return self

    # ------------------------------------------------------------------
    # The per-op decision point (called from QueuePair.post_send)
    # ------------------------------------------------------------------
    def on_post(self, qp, wr) -> FaultVerdict:
        """Decide the fate of ``wr`` posted on ``qp`` right now."""
        plan = self.plan
        now = qp.sim.now
        src = qp.src.name
        dst = qp.dst.name
        if plan.crashes and (
            self._crashed(src, now) or self._crashed(dst, now)
        ):
            self.dropped["crash"] += 1
            record(self.sim, "fault", "drop", src=src, dst=dst,
                   opcode=wr.opcode.name, reason="crash")
            return FaultVerdict(
                drop=True, fail_after=plan.drop_fail_after,
                reason=f"host crash window ({src}->{dst})",
            )
        # Partitions are deterministic cuts — no RNG draw, so adding a
        # partition to a plan never perturbs the drop/delay sequences.
        for rule in plan.partitions:
            if rule.matches(src, dst, now):
                self.partitions_cut += 1
                self.dropped[rule.label] += 1
                record(self.sim, "fault", "drop", src=src, dst=dst,
                       opcode=wr.opcode.name, reason=rule.label)
                return FaultVerdict(
                    drop=True, fail_after=plan.drop_fail_after,
                    reason=f"injected {rule.label} ({src}->{dst})",
                )
        for rule in plan.drops:
            if (rule.where.matches(src, dst, wr, now)
                    and self._rng(src, dst).random() < rule.rate):
                self.dropped[rule.label] += 1
                record(self.sim, "fault", "drop", src=src, dst=dst,
                       opcode=wr.opcode.name, reason=rule.label)
                return FaultVerdict(
                    drop=True, fail_after=plan.drop_fail_after,
                    reason=f"injected {rule.label} ({src}->{dst})",
                )
        extra = 0.0
        for rule in plan.delays:
            if (rule.where.matches(src, dst, wr, now)
                    and self._rng(src, dst).random() < rule.rate):
                spike = rule.delay
                if rule.jitter:
                    spike += self._rng(src, dst).random() * rule.jitter
                self.delayed[rule.label] += 1
                self.delay_injected_total += spike
                extra += spike
        if extra > 0.0:
            record(self.sim, "fault", "delay", src=src, dst=dst,
                   opcode=wr.opcode.name, extra=extra)
            return FaultVerdict(delay=extra)
        return _PASS

    # ------------------------------------------------------------------
    # Scheduled faults
    # ------------------------------------------------------------------
    def _brownout_begin(self, b) -> None:
        self.fabric.hosts[b.host].nic.set_capacity_factor(b.factor)
        self.brownouts_applied += 1
        record(self.sim, "fault", "brownout_begin", host=b.host,
               factor=b.factor)

    def _brownout_end(self, b) -> None:
        self.fabric.hosts[b.host].nic.set_capacity_factor(1.0)
        record(self.sim, "fault", "brownout_end", host=b.host)

    def _slowdown_begin(self, s) -> None:
        host = self.fabric.hosts[s.host]
        host.nic.set_slowdown(s.factor)
        cpu = getattr(host, "cpu", None)
        if cpu is not None:
            cpu.set_slowdown(s.factor)
        self.slowdowns_applied += 1
        record(self.sim, "fault", "slowdown_begin", host=s.host,
               factor=s.factor)

    def _slowdown_end(self, s) -> None:
        host = self.fabric.hosts[s.host]
        host.nic.set_slowdown(1.0)
        cpu = getattr(host, "cpu", None)
        if cpu is not None:
            cpu.set_slowdown(1.0)
        record(self.sim, "fault", "slowdown_end", host=s.host)

    def _close_qp(self, q) -> None:
        for qp_ab, qp_ba in self.fabric.connections:
            if qp_ab.src.name == q.src and qp_ab.dst.name == q.dst:
                qp_ab.close()
                qp_ba.close()
                self.qps_closed += 1
                record(self.sim, "fault", "qp_close", src=q.src, dst=q.dst)
                return
        self.qp_close_misses += 1

    # ------------------------------------------------------------------
    def _crashed(self, host: str, now: float) -> bool:
        for w in self.plan.crashes:
            if w.host == host and w.start <= now < w.end:
                return True
        return False

    def _rng(self, src: str, dst: str):
        key = (src, dst)
        rng = self._link_rngs.get(key)
        if rng is None:
            rng = make_rng(self.seed, "fault-link", src, dst)
            self._link_rngs[key] = rng
        return rng

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Flat counters for reporting (benches, CLI, tests)."""
        return {
            "dropped": dict(self.dropped),
            "dropped_total": sum(self.dropped.values()),
            "delayed_total": sum(self.delayed.values()),
            "delay_injected_seconds": self.delay_injected_total,
            "brownouts_applied": self.brownouts_applied,
            "qps_closed": self.qps_closed,
            "partitions_cut": self.partitions_cut,
            "slowdowns_applied": self.slowdowns_applied,
        }

    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry."""
        items = [
            ("faults_dropped_total", lambda: sum(self.dropped.values())),
            ("faults_delayed_total", lambda: sum(self.delayed.values())),
            ("faults_delay_injected_seconds",
             lambda: self.delay_injected_total),
            ("faults_brownouts_applied", lambda: self.brownouts_applied),
            ("faults_qps_closed", lambda: self.qps_closed),
            ("faults_qp_close_misses", lambda: self.qp_close_misses),
        ]
        # Gated on the plan so runs without the new fault families keep
        # their committed metric-row digests byte-identical.
        if self.plan.partitions or self.plan.slowdowns:
            items.extend([
                ("faults_partitions_cut", lambda: self.partitions_cut),
                ("faults_slowdowns_applied",
                 lambda: self.slowdowns_applied),
            ])
        return items
