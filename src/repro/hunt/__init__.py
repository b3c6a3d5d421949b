"""Automated anomaly hunting over the scenario space (docs/HUNT.md).

Collie-style search: sample and mutate points of a typed scenario
genome (:mod:`~repro.hunt.space`), execute each through the exact DES
(:mod:`~repro.hunt.scenario`) against the unified oracle registry
(:mod:`~repro.core.oracles`), delta-debug every finding to a minimal
reproducing config (:mod:`~repro.hunt.minimize`), and emit
self-contained JSON reproducers (:mod:`~repro.hunt.reproducer`) that
replay bit-identically — the keepers live under ``tests/regress/`` as
permanent regression scenarios.
"""

from repro.hunt.minimize import (
    MinimizeResult,
    ddmin,
    minimize_spec,
    shrink_float,
    shrink_int,
)
from repro.core.oracles import ORACLES, Oracle, kind_to_oracle
from repro.hunt.reproducer import (
    REPRO_SCHEMA_VERSION,
    ReplayResult,
    check_regression,
    load_reproducer,
    replay,
    replay_file,
    reproducer_dict,
    write_reproducer,
    write_reproducers,
)
from repro.hunt.scenario import HUNT_SCALE, run_spec, spec_workload
from repro.hunt.search import (
    CAMPAIGN_SCHEMA_VERSION,
    Campaign,
    Finding,
    HuntConfig,
    candidate_seed,
    run_hunt,
)
from repro.hunt.space import (
    SPEC_SCHEMA_VERSION,
    FaultGene,
    ScenarioSpec,
    clamp_spec,
    crossover,
    mutate,
    random_spec,
)

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "Campaign",
    "FaultGene",
    "Finding",
    "HUNT_SCALE",
    "HuntConfig",
    "MinimizeResult",
    "ORACLES",
    "Oracle",
    "REPRO_SCHEMA_VERSION",
    "ReplayResult",
    "SPEC_SCHEMA_VERSION",
    "ScenarioSpec",
    "candidate_seed",
    "check_regression",
    "clamp_spec",
    "crossover",
    "ddmin",
    "kind_to_oracle",
    "load_reproducer",
    "minimize_spec",
    "mutate",
    "random_spec",
    "replay",
    "replay_file",
    "reproducer_dict",
    "run_hunt",
    "run_spec",
    "shrink_float",
    "shrink_int",
    "spec_workload",
    "write_reproducer",
    "write_reproducers",
]
