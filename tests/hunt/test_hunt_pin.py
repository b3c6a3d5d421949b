"""Pin test: hunt output is byte-stable across refactors of its executor.

``tests/data/hunt_pin.json`` holds three kinds of evidence captured
from the candidate executor before it was rebuilt on the
:mod:`repro.cluster.chaos` spine:

- the sha256 of a small fixed campaign's ``to_json()`` (the
  ``test_search.py`` config), which covers every search, dedupe and
  frontier decision downstream of the verdicts;
- the full verdict of each committed ``tests/regress/repro-*.json``
  replay — violation text, subjects and counters, not just the kind;
- the verdict of one fixed spec per ``run_spec`` branch: fluid,
  fabric, tenancy, and a mid-run policy hot-swap.

Equality with the pin proves a change to how candidates are built,
faulted or judged left every verdict as it was.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.hunt.reproducer import replay_file
from repro.hunt.scenario import run_spec
from repro.hunt.search import HuntConfig, run_hunt
from repro.hunt.space import FaultGene, ScenarioSpec, clamp_spec

HERE = Path(__file__).parent
PIN = HERE.parent / "data" / "hunt_pin.json"
REPRODUCERS = sorted((HERE.parent / "regress").glob("repro-*.json"))

SMALL = HuntConfig(budget=10, seed=7, batch=5, minimize=False)

#: One spec per ``run_spec`` branch, with the seed it is pinned at.
BRANCH_SPECS = {
    "fluid": (clamp_spec(ScenarioSpec(
        num_clients=1_000, tenant_count=3, fluid_mode=True, periods=8,
        faults=(FaultGene(kind="client-crash", start=2.0, duration=1.5,
                          client=4),
                FaultGene(kind="fail-slow", start=1.0, duration=4.0,
                          factor=0.1)),
    )), 11),
    "fabric": (clamp_spec(ScenarioSpec(
        num_clients=3, fabric_mode=True, periods=8,
        faults=(FaultGene(kind="control-drop", start=1.5, rate=0.3),
                FaultGene(kind="qp-close", start=2.0, client=1)),
    )), 11),
    "tenancy": (clamp_spec(ScenarioSpec(
        num_clients=4, tenant_count=2, periods=8,
        faults=(FaultGene(kind="client-crash", start=2.0, duration=1.0,
                          client=1),
                FaultGene(kind="qp-close", start=2.5, client=2)),
    )), 11),
    "policy": (clamp_spec(ScenarioSpec(
        num_clients=3, policy_version=2, periods=8, demand_factor=2.0,
        faults=(FaultGene(kind="qp-close", start=2.0, client=0),),
    )), 23),
}


def _pin():
    with open(PIN) as fh:
        return json.load(fh)


def campaign_digest() -> str:
    return hashlib.sha256(run_hunt(SMALL).to_json().encode()).hexdigest()


def test_small_campaign_bytes_are_pinned():
    assert campaign_digest() == _pin()["campaign_sha256"]


def test_every_reproducer_is_pinned():
    assert [p.stem for p in REPRODUCERS] == sorted(_pin()["reproducers"])


@pytest.mark.parametrize(
    "path", REPRODUCERS, ids=[p.stem for p in REPRODUCERS]
)
def test_reproducer_verdicts_are_pinned(path):
    assert replay_file(path).result == _pin()["reproducers"][path.stem]


@pytest.mark.parametrize("branch", sorted(BRANCH_SPECS))
def test_branch_verdicts_are_pinned(branch):
    spec, seed = BRANCH_SPECS[branch]
    assert run_spec(spec, seed) == _pin()["branches"][branch]
