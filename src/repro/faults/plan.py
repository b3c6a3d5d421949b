"""Declarative fault plans.

A :class:`FaultPlan` is a pure description of the anomalies a run should
experience — per-link op drops, delay spikes, NIC brownouts, abrupt QP
closes, and host crash/restart windows.  Plans carry no randomness and
no simulator state; the :class:`~repro.faults.injector.FaultInjector`
pairs a plan with a seed and applies it deterministically, so the same
(plan, seed) always produces the same fault sequence for a given event
order.

Times are absolute simulated seconds (i.e. already dilated); scenario
helpers convert from period indices.  Probabilities are per-op.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional, Tuple

from repro.common.codec import from_payload, to_payload
from repro.common.errors import ConfigError
from repro.common.types import OpType

# Bump when the serialized plan shape changes; ``FaultPlan.from_json``
# refuses versions it does not understand, so committed reproducer
# files fail loudly instead of silently mis-deserializing.  Version 2
# adds partitions and slowdowns; version-1 payloads (no such keys) are
# still readable, since every other field kept its shape.
PLAN_SCHEMA_VERSION = 2
_READABLE_SCHEMA_VERSIONS = (1, 2)


def overlap_fraction(w0: float, w1: float,
                     start: float, end: float) -> float:
    """Fraction of the window ``[w0, w1)`` covered by ``[start, end)``.

    The fluid engine's bridge from event windows to rate multipliers:
    a fault active for 40% of a period scales that period's flow by
    the corresponding factor instead of gating individual ops.
    """
    if w1 <= w0:
        raise ConfigError(f"empty window [{w0}, {w1})")
    covered = min(w1, end) - max(w0, start)
    return max(0.0, covered) / (w1 - w0)


def _union_fraction(w0: float, w1: float, intervals) -> float:
    """Fraction of ``[w0, w1)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(w0, s), min(w1, e)) for s, e in intervals if e > w0 and s < w1
    )
    covered = 0.0
    cursor = w0
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            covered += e - s
            cursor = e
    return covered / (w1 - w0)


def _check_window(start: float, end: float, what: str) -> None:
    if start < 0:
        raise ConfigError(f"{what} start must be >= 0, got {start}")
    if end <= start:
        raise ConfigError(f"{what} window is empty: [{start}, {end})")


def _check_rate(rate: float, what: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"{what} rate must be in [0, 1], got {rate}")


@dataclasses.dataclass(frozen=True)
class OpFilter:
    """Which posted work requests a probabilistic rule applies to.

    ``None`` fields match anything.  ``src``/``dst`` are host names (the
    initiator and target of the posting QP); ``control_only`` restricts
    the rule to control-plane ops (atomics, report words, QoS SENDs),
    which is how "control-message loss" plans are written.
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    control_only: bool = False
    opcodes: Optional[Tuple[OpType, ...]] = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "OpFilter")

    def matches(self, src: str, dst: str, wr, now: float) -> bool:
        """True when ``wr`` posted on link ``src -> dst`` at ``now`` is in scope."""
        if not self.start <= now < self.end:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.control_only and not wr.control:
            return False
        if self.opcodes is not None and wr.opcode not in self.opcodes:
            return False
        return True


@dataclasses.dataclass(frozen=True)
class DropRule:
    """Drop matching ops with probability ``rate`` (lost on the wire)."""

    rate: float
    where: OpFilter = OpFilter()
    label: str = "drop"

    def __post_init__(self) -> None:
        _check_rate(self.rate, "drop")


@dataclasses.dataclass(frozen=True)
class DelayRule:
    """Add ``delay`` (+ uniform ``jitter``) seconds to matching ops with
    probability ``rate`` — a propagation-delay spike, not a reorder: the
    op still serializes through both NIC pipelines in posting order."""

    rate: float
    delay: float
    jitter: float = 0.0
    where: OpFilter = OpFilter()
    label: str = "delay"

    def __post_init__(self) -> None:
        _check_rate(self.rate, "delay")
        if self.delay < 0 or self.jitter < 0:
            raise ConfigError(
                f"delay/jitter must be >= 0, got {self.delay}/{self.jitter}"
            )


@dataclasses.dataclass(frozen=True)
class Brownout:
    """Temporarily reduce a host's NIC capacity to ``factor`` of nominal."""

    host: str
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "Brownout")
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(
                f"brownout factor must be in (0, 1), got {self.factor}"
            )


@dataclasses.dataclass(frozen=True)
class PartitionRule:
    """Cut the directional ``src -> dst`` link during [start, end).

    Every op posted from ``src`` to ``dst`` in the window is lost on the
    wire (the initiator sees RETRY_EXC after ``drop_fail_after``), while
    the reverse ``dst -> src`` direction is untouched — so a pair of
    rules models a full partition and a single rule an *asymmetric* one,
    the control-plane poison where a deposed leader can still transmit
    but never hears anyone else (or vice versa).
    """

    src: str
    dst: str
    start: float = 0.0
    end: float = math.inf
    label: str = "partition"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "PartitionRule")
        if self.src == self.dst:
            raise ConfigError(
                f"partition src and dst must differ, got {self.src!r}"
            )

    def matches(self, src: str, dst: str, now: float) -> bool:
        """True when an op on link ``src -> dst`` at ``now`` is cut."""
        return (src == self.src and dst == self.dst
                and self.start <= now < self.end)


@dataclasses.dataclass(frozen=True)
class SlowdownRule:
    """Fail-slow a host during [start, end): every NIC issue/target cost
    and CPU RPC cost is multiplied by ``factor`` (> 1).

    Distinct from :class:`Brownout`, which cuts data-path *capacity* to
    a fraction of nominal: a slowdown is the gray-failure mode where the
    component still answers everything — just late — so only latency
    outliers betray it, not hard errors or lost capacity signals.
    """

    host: str
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "SlowdownRule")
        if not self.factor > 1.0:
            raise ConfigError(
                f"slowdown factor must be > 1, got {self.factor}"
            )


@dataclasses.dataclass(frozen=True)
class QPCloseFault:
    """Abruptly close the ``src -> dst`` connection (both directions) at
    ``time``.  In-flight WRs flush; later posts raise ``QPError``, which
    the hardened control plane absorbs as transport failures."""

    src: str
    dst: str
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"close time must be >= 0, got {self.time}")


@dataclasses.dataclass(frozen=True)
class CrashWindow:
    """A host is down during [start, end): every op posted from or to it
    is dropped.  ``end = inf`` models a crash with no restart; a finite
    window models crash + restart (the protocol re-syncs at the next
    period start, unless the monitor already evicted the client)."""

    host: str
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "CrashWindow")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule for one run.

    ``drop_fail_after`` is how long after wire entry a dropped op's
    initiator observes the RETRY_EXC completion — the simulated
    transport-retry budget.  Scenario helpers set it to one protocol
    tick so the control plane's backoff dominates recovery timing.
    """

    drops: Tuple[DropRule, ...] = ()
    delays: Tuple[DelayRule, ...] = ()
    brownouts: Tuple[Brownout, ...] = ()
    qp_closes: Tuple[QPCloseFault, ...] = ()
    crashes: Tuple[CrashWindow, ...] = ()
    partitions: Tuple[PartitionRule, ...] = ()
    slowdowns: Tuple[SlowdownRule, ...] = ()
    drop_fail_after: float = 50e-6

    def __post_init__(self) -> None:
        if self.drop_fail_after < 0:
            raise ConfigError(
                f"drop_fail_after must be >= 0, got {self.drop_fail_after}"
            )

    @property
    def empty(self) -> bool:
        """True when the plan schedules no faults at all."""
        return not (self.drops or self.delays or self.brownouts
                    or self.qp_closes or self.crashes
                    or self.partitions or self.slowdowns)

    def hosts_named(self) -> set:
        """Every host name the plan refers to (for install-time checks)."""
        names = set()
        for b in self.brownouts:
            names.add(b.host)
        for c in self.crashes:
            names.add(c.host)
        for q in self.qp_closes:
            names.add(q.src)
            names.add(q.dst)
        for p in self.partitions:
            names.add(p.src)
            names.add(p.dst)
        for s in self.slowdowns:
            names.add(s.host)
        return names

    # ------------------------------------------------------------------
    # Fluid-mode projections (see docs/SCALE.md): the fluid engine
    # evaluates flows per period, so event-granular windows project to
    # per-period rate multipliers.  Deterministic, pure arithmetic.
    # ------------------------------------------------------------------
    def fluid_capacity_factor(self, host: str, w0: float, w1: float) -> float:
        """Effective capacity multiplier for ``host`` over ``[w0, w1)``.

        Brownouts scale capacity by their factor for their overlap
        fraction, slowdowns by ``1/factor`` (a fail-slow host serves
        that much less per unit time), crash windows by zero.  Multiple
        overlapping windows compose multiplicatively — a conservative,
        deterministic approximation of their event-level interaction.
        """
        factor = 1.0
        for b in self.brownouts:
            if b.host == host:
                frac = overlap_fraction(w0, w1, b.start, b.end)
                factor *= 1.0 - frac * (1.0 - b.factor)
        for s in self.slowdowns:
            if s.host == host:
                frac = overlap_fraction(w0, w1, s.start, s.end)
                factor *= 1.0 - frac * (1.0 - 1.0 / s.factor)
        for c in self.crashes:
            if c.host == host:
                factor *= 1.0 - overlap_fraction(w0, w1, c.start, c.end)
        return factor

    def fluid_outage_fraction(self, host: str, peer: str,
                              w0: float, w1: float) -> float:
        """Fraction of ``[w0, w1)`` with no usable ``host <-> peer`` path.

        The union of partition windows cutting either direction and
        crash windows on either endpoint — one-sided I/O needs both the
        request and the completion direction alive.
        """
        intervals = []
        for p in self.partitions:
            if {p.src, p.dst} == {host, peer}:
                intervals.append((p.start, p.end))
        for c in self.crashes:
            if c.host in (host, peer):
                intervals.append((c.start, c.end))
        if not intervals:
            return 0.0
        return _union_fraction(w0, w1, intervals)

    # ------------------------------------------------------------------
    # Serialization: the repro.common.codec form (float times
    # bit-exact, open-ended ``inf`` windows, OpType enum members by
    # name) under a schema-version stamp, so reproducer files and
    # mutation logs can carry a plan as data.
    # ``plan == FaultPlan.from_json(plan.to_json())`` holds for every
    # valid plan.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"schema_version": PLAN_SCHEMA_VERSION, **to_payload(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        version = payload.get("schema_version")
        if version not in _READABLE_SCHEMA_VERSIONS:
            raise ConfigError(
                f"unsupported fault-plan schema version {version!r} "
                f"(this build reads versions {_READABLE_SCHEMA_VERSIONS})"
            )
        # Version-1 payloads predate these two rule families.
        return from_payload(cls, {"partitions": [], "slowdowns": [],
                                  **payload})

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json` (also accepts indented JSON)."""
        return cls.from_dict(json.loads(text))
