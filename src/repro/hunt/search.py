"""The budgeted anomaly-search loop (Collie-style, fully seeded).

A campaign spends a fixed *budget* of candidate runs.  Candidates are
drawn two ways: uniform random samples of the scenario space, and —
once something has been found — mutation/crossover of the *frontier*
(specs that already violated an oracle), biasing the search toward the
neighborhood where the space misbehaves.  Every candidate executes
through :mod:`repro.cluster.runner` cells (parallel fan-out, on-disk
result cache), and every distinct violation *kind* becomes one
:class:`Finding`, delta-debugged to a minimal spec after the search
phase.

Everything is derived from the campaign seed: candidate generation
uses one named RNG stream, per-candidate simulation seeds come from
:func:`~repro.common.rng.derive_seed`, and the report carries no
wall-clock — so the same ``(seed, budget)`` yields a byte-identical
campaign report JSON on any machine and any worker count.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, Optional

from repro.common.rng import derive_seed, make_rng
from repro.cluster.runner import Cell, run_cells
from repro.core.oracles import kind_to_oracle
from repro.hunt import scenario as _scenario  # noqa: F401 - registers cells
from repro.hunt.minimize import minimize_spec
from repro.hunt.scenario import run_spec
from repro.hunt.space import ScenarioSpec, crossover, mutate, random_spec

CAMPAIGN_SCHEMA_VERSION = 1


@dataclasses.dataclass
class HuntConfig:
    """One campaign's knobs (all echoed into the report)."""

    budget: int = 40          # candidate runs in the search phase
    seed: int = 0             # campaign master seed
    batch: int = 8            # candidates per runner fan-out
    mutation_bias: float = 0.6  # P(candidate mutates the frontier)
    minimize: bool = True     # delta-debug findings after the search
    max_minimize_steps: int = 200  # probe budget per finding
    workers: int = 1          # runner worker processes
    cache_dir: Optional[str] = None  # runner result cache

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload.pop("cache_dir")  # host path: not part of the verdict
        payload.pop("workers")    # any count yields identical results
        return payload


@dataclasses.dataclass
class Finding:
    """One distinct violation kind the campaign surfaced."""

    kind: str
    oracle: Optional[str]     # owning registry entry (ORACLES name)
    seed: int                 # simulation seed of the finding run
    found_at: int             # candidate index that first showed it
    spec: ScenarioSpec        # the config as found
    violation: dict           # first Violation record of this kind
    sightings: int = 1        # candidates that showed this kind
    minimized_spec: Optional[ScenarioSpec] = None
    minimize_steps: int = 0
    unminimizable: bool = False  # replay failed to reproduce (a red flag)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "oracle": self.oracle,
            "seed": self.seed,
            "found_at": self.found_at,
            "spec": self.spec.to_dict(),
            "violation": self.violation,
            "sightings": self.sightings,
            "minimized_spec": (None if self.minimized_spec is None
                               else self.minimized_spec.to_dict()),
            "minimize_steps": self.minimize_steps,
            "unminimizable": self.unminimizable,
        }


@dataclasses.dataclass
class Campaign:
    """A finished hunt: findings plus headline counters.

    Contains no timestamps or host state: ``to_json()`` is the
    determinism contract (same config, same bytes).
    """

    config: HuntConfig
    findings: List[Finding]
    counters: Dict[str, int]

    @property
    def ok(self) -> bool:
        """No finding failed to re-reproduce during minimization."""
        return not any(f.unminimizable for f in self.findings)

    def to_dict(self) -> dict:
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "findings": [f.to_dict()
                         for f in sorted(self.findings,
                                         key=lambda f: f.kind)],
            "counters": dict(sorted(self.counters.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def install_metrics(self, registry) -> None:
        """Expose the campaign counters as telemetry gauges."""
        for name in sorted(self.counters):
            registry.gauge(f"hunt_{name}",
                           callback=lambda name=name: self.counters[name])


def candidate_seed(campaign_seed: int, index: int) -> int:
    """The simulation seed for candidate ``index`` (stable contract:
    reproducers record it, replay re-derives nothing)."""
    return derive_seed(campaign_seed, "hunt-candidate", index)


def _next_spec(rng, frontier: List[ScenarioSpec],
               mutation_bias: float) -> ScenarioSpec:
    """Draw one candidate: frontier neighborhood or fresh sample."""
    if frontier and rng.random() < mutation_bias:
        if len(frontier) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(frontier, 2)
            return crossover(a, b, rng)
        return mutate(rng.choice(frontier), rng)
    return random_spec(rng)


def run_hunt(config: HuntConfig,
             log: Optional[Callable[[str], None]] = None) -> Campaign:
    """Execute one full campaign: search, then minimize each finding."""
    emit = log or (lambda _msg: None)
    rng = make_rng(config.seed, "hunt-generator")
    frontier: List[ScenarioSpec] = []
    findings: Dict[str, Finding] = {}
    counters = {
        "candidates": 0,
        "violating_candidates": 0,
        "findings": 0,
        "minimize_steps": 0,
        "unminimizable": 0,
    }

    index = 0
    while index < config.budget:
        batch = min(config.batch, config.budget - index)
        specs = [_next_spec(rng, frontier, config.mutation_bias)
                 for _ in range(batch)]
        cells = [
            Cell("hunt-candidate", {"spec": spec.to_dict()},
                 seed=candidate_seed(config.seed, index + i))
            for i, spec in enumerate(specs)
        ]
        report = run_cells(cells, workers=config.workers,
                           cache_dir=config.cache_dir)
        for i, (spec, result) in enumerate(zip(specs, report.results)):
            counters["candidates"] += 1
            if not result["kinds"]:
                continue
            counters["violating_candidates"] += 1
            frontier.append(spec)
            for kind in result["kinds"]:
                if kind in findings:
                    findings[kind].sightings += 1
                    continue
                violation = next(v for v in result["violations"]
                                 if v["kind"] == kind)
                findings[kind] = Finding(
                    kind=kind,
                    oracle=kind_to_oracle(kind),
                    seed=candidate_seed(config.seed, index + i),
                    found_at=index + i,
                    spec=spec,
                    violation=violation,
                )
                emit(f"candidate {index + i}: new finding {kind!r}")
        index += batch
        emit(f"searched {index}/{config.budget} candidates, "
             f"{len(findings)} finding kind(s)")

    counters["findings"] = len(findings)
    if config.minimize:
        for kind in sorted(findings):
            finding = findings[kind]
            result = minimize_spec(
                finding.spec,
                lambda s, k=kind, seed=finding.seed:
                    k in run_spec(s, seed)["kinds"],
                max_steps=config.max_minimize_steps,
            )
            finding.minimized_spec = result.spec
            finding.minimize_steps = result.steps
            finding.unminimizable = not result.reproduced
            if result.reproduced:
                # Refresh the violation record from the minimal spec so
                # the reproducer file describes what its own replay
                # shows, not the original (larger) sighting.
                confirm = run_spec(result.spec, finding.seed)
                finding.violation = next(
                    v for v in confirm["violations"] if v["kind"] == kind
                )
            counters["minimize_steps"] += result.steps
            emit(f"minimized {kind!r} in {result.steps} step(s)")
    counters["unminimizable"] = sum(
        1 for f in findings.values() if f.unminimizable
    )
    return Campaign(config=config, findings=list(findings.values()),
                    counters=counters)
