"""The chaos spine: one seeded harness, one declaration per scenario.

Every chaos scenario in the repo has the same shape — build a cluster,
draw a seeded fault plan, inject it, arm anything scenario-specific,
start the PUT drivers, run ``periods`` QoS periods, flush the engines'
open ledger accounts, evaluate the oracles, report.  :func:`run` is
that shape, written once.  What differs lives in a
:class:`ChaosScenario` declaration next to the subsystem it stresses
(``recovery/chaos.py``, ``globalqos/chaos.py``, ``policy/chaos.py``,
and one per hunt DES candidate in ``hunt/scenario.py``): the cluster
builder, the plan function, an optional ``arm`` hook, the *names* of
the shared oracles it wants from :data:`repro.core.oracles.ORACLES`,
its scenario-specific checks, its counters, and its CLI table columns.

The evidence each shared oracle consumes (acked-PUT durability rows,
final-period reservation rows, the ledger) is extracted by a
:class:`ClusterKind` — written once per cluster class, not once per
scenario — and :func:`judge` is the one loop that evaluates oracles,
for every chaos run and every hunt candidate, fluid ones included.

Same seed, same schedule, same verdict: failures are replayable.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.core.oracles import ORACLES
from repro.core.violations import Violation
from repro.faults.plan import FaultPlan
from repro.telemetry import TelemetryConfig, attach_telemetry, write_perfetto

# Fault-free tail every plan leaves so "eventually met" has a clean
# window to converge in.
SETTLE_PERIODS = 3

# A builder that brings no hub of its own gets a ledger-only one (no
# spans): it costs the data path nothing and lets the conservation
# oracles audit token flow through the fault schedule.
LEDGER_ONLY = TelemetryConfig(sample_every=0, control_spans=False)


@dataclasses.dataclass
class ChaosReport:
    """One chaos run's verdict and headline counters."""

    seed: int
    periods: int
    findings: List[Violation]
    counters: Dict[str, Any]
    # Aggregate token flow from the telemetry ledger.
    ledger_totals: dict = dataclasses.field(default_factory=dict)

    @property
    def violations(self) -> List[str]:
        return [str(v) for v in self.findings]

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict:
        """The flat payload the digests and ``chaos_pin_*`` files hash:
        the counters sit beside seed/periods/violations, not under a
        key of their own."""
        return {
            "seed": self.seed,
            "periods": self.periods,
            "violations": self.violations,
            **self.counters,
            "ledger_totals": dict(self.ledger_totals),
        }


@dataclasses.dataclass
class ChaosRun:
    """The evidence a finished run hands to checks, counters and
    oracle-input adapters."""

    cluster: Any
    plan: FaultPlan
    #: Whatever the scenario's ``arm`` hook returned (None without one).
    armed: Any
    #: Whatever the cluster kind's ``drive`` returned.
    drivers: Any
    ledger: Any


@dataclasses.dataclass(frozen=True)
class ClusterKind:
    """What the spine needs to know about one cluster class."""

    name: str
    #: ``(cluster, seed, stop_time) -> drivers``: start the paced PUT
    #: streams (and any GET load the builder left out).
    drive: Callable[[Any, int, float], Any]
    #: Oracle name -> ``run -> positional args`` for that oracle.
    evidence: Dict[str, Callable[[ChaosRun], tuple]]


@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One chaos harness, declared.  Construction is validation: a
    declaration naming an oracle the registry (or its cluster kind)
    does not have is a :class:`ConfigError`, not a late ``KeyError``
    after a multi-second run."""

    name: str
    #: One line for the CLI trailer: which faults the plan draws.
    summary: str
    #: The documented seeds; every one must produce zero violations.
    seeds: Tuple[int, ...]
    #: Default run length in QoS periods.
    periods: int
    kind: ClusterKind
    #: ``seed -> un-started cluster``.
    build: Callable[[int], Any]
    #: ``(seed, cluster, periods) -> FaultPlan``; raises ConfigError
    #: when ``periods`` cannot fit the schedule plus its settle tail.
    plan: Callable[[int, Any, int], FaultPlan]
    #: Shared oracles to evaluate, by ``ORACLES`` name.
    oracles: Tuple[str, ...]
    #: ``run -> violation strings`` for what only this scenario knows.
    checks: Callable[[ChaosRun], Iterable[str]]
    #: ``run -> counters`` (insertion order is the report's).
    counters: Callable[[ChaosRun], Dict[str, Any]]
    #: Counters that must be non-zero for the run to have exercised
    #: the machinery under test; a zero is a violation, so a quiet
    #: cluster cannot pass by doing nothing.
    exercised: Tuple[str, ...]
    #: Counters the CLI verdict table shows, in order.
    columns: Tuple[str, ...]
    #: ``(cluster, plan) -> anything``, after injection and before the
    #: drivers start; the result is kept as ``run.armed``.
    arm: Optional[Callable[[Any, FaultPlan], Any]] = None

    def __post_init__(self):
        for oracle in self.oracles:
            if oracle not in ORACLES:
                raise ConfigError(
                    f"chaos scenario {self.name!r} names unknown oracle "
                    f"{oracle!r} (registered: {', '.join(sorted(ORACLES))})"
                )
            if oracle not in self.kind.evidence:
                raise ConfigError(
                    f"chaos scenario {self.name!r}: cluster kind "
                    f"{self.kind.name!r} has no evidence adapter for "
                    f"oracle {oracle!r}"
                )


def scenarios() -> Dict[str, ChaosScenario]:
    """Every registered scenario by name, in documented order."""
    # Imported here: the declaring modules import this one.
    from repro.globalqos.chaos import COORD_CRASH, PARTITION
    from repro.policy.chaos import POLICY_FLIP
    from repro.recovery.chaos import RECOVERY

    return {
        scenario.name: scenario
        for scenario in (RECOVERY, COORD_CRASH, PARTITION, POLICY_FLIP)
    }


def judge(evidence: Dict[str, Callable], run: Any) -> List[Violation]:
    """The one oracle loop: each :data:`ORACLES` entry ``evidence``
    names, in order, over the positional args its adapter extracts
    from ``run``."""
    return [violation for name, adapter in evidence.items()
            for violation in ORACLES[name].check(*adapter(run))]


def run(
    scenario: ChaosScenario,
    seed: int,
    periods: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
    trace_path: Optional[str] = None,
) -> Tuple[ChaosReport, Any]:
    """One seeded chaos run: ``(verdict, the cluster it ran on)``.

    ``telemetry`` configures span sampling on scenarios whose builder
    attaches no hub of its own, and ``trace_path`` writes the sampled
    spans out as a Perfetto trace.
    """
    if periods is None:
        periods = scenario.periods
    cluster = scenario.build(seed)
    hub = cluster.sim.telemetry
    if hub is None:
        hub = attach_telemetry(cluster, telemetry or LEDGER_ONLY)
    elif telemetry is not None:
        raise ConfigError(
            f"chaos scenario {scenario.name!r} attaches its own "
            "telemetry; span sampling cannot be reconfigured"
        )
    T = cluster.config.period
    plan = scenario.plan(seed, cluster, periods)
    if not plan.empty:
        cluster.inject_faults(plan, seed=seed)
    armed = scenario.arm(cluster, plan) if scenario.arm else None
    # PUT streams stop one period before the end so every ack (or
    # retry budget) resolves inside the run.
    drivers = scenario.kind.drive(cluster, seed, (periods - 1) * T)

    cluster.start()
    cluster.sim.run(until=periods * T + T * 1e-6)

    # Close every engine's open ledger account before auditing.
    cluster.flush_ledgers()

    chaos_run = ChaosRun(cluster=cluster, plan=plan, armed=armed,
                         drivers=drivers, ledger=hub.ledger)
    counters = scenario.counters(chaos_run)
    findings = [Violation(kind="scenario-check", message=text)
                for text in scenario.checks(chaos_run)]
    findings += judge({name: scenario.kind.evidence[name]
                       for name in scenario.oracles}, chaos_run)
    findings += [Violation(
        kind="unexercised",
        message=f"{name} is 0: the run never exercised the machinery "
                f"the {scenario.name} scenario exists to test",
    ) for name in scenario.exercised if not counters[name]]
    report = ChaosReport(
        seed=seed, periods=periods, findings=findings, counters=counters,
        ledger_totals=(hub.ledger.totals()
                       if hub.ledger is not None else {}),
    )
    if trace_path is not None:
        write_perfetto(trace_path, hub.spans, hub.spans.export())
    return report, cluster
