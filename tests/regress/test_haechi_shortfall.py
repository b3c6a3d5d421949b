"""The seed-180 shortfall, pinned so it cannot change unseen.

On the fluid validation config of seed 180 (``TEST_SCALE``, 2 warm-up
and 8 measured periods), Haechi serves less than Basic Haechi, which
serves less than Bare, and Haechi's total falls every period.  The
feasible total is min(C_G, sum of min(demand, clients x C_L)) = 1 531,
which Bare reaches.  This is a known shortfall whose cause is not yet
explained (ROADMAP item 2: Algorithm 1 following the under-delivery
down, pool claims a C_L-bound client cannot spend, or conversion under
an all-at-once backlog are the candidates).  The totals below are what
the simulator does today, not what it should do: the change that
explains the shortfall (item 2(c)) updates them on purpose, and says
why.
"""

import pytest

from repro.cluster.calibration import CHAMELEON
from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import TEST_SCALE, qos_cluster
from repro.common.types import QoSMode
from repro.fluid.validate import build_validation_hierarchy
from repro.tenancy.binding import leaf_plan

SEED = 180


@pytest.fixture(scope="module")
def workload():
    """Per-client reservation and demand rates of the seed-180 config,
    built as ``run_equivalence`` builds its DES side."""
    config = TEST_SCALE.config()
    capacity = int(CHAMELEON.system_limit(True) * config.period)
    hierarchy, demand_of = build_validation_hierarchy(config, capacity, SEED)
    reservations, demands = [], []
    for tenant, group, tokens in leaf_plan(hierarchy):
        clients = hierarchy.tenant(tenant).group(group).clients
        reservations.append(config.rate_of(tokens))
        demands.append(config.rate_of(
            demand_of[f"{tenant}/{group}"] / clients))
    return reservations, demands


@pytest.mark.parametrize("mode,totals", [
    (QoSMode.BARE, [1532] * 8),
    (QoSMode.BASIC_HAECHI, [1328, 1308, 1295, 1294, 1295, 1294, 1295, 1294]),
    (QoSMode.HAECHI, [1273, 1238, 1207, 1186, 1171, 1162, 1154, 1153]),
])
def test_seed_180_period_totals(workload, mode, totals):
    reservations, demands = workload
    cluster = qos_cluster(reservations=reservations, demands=demands,
                          qos_mode=mode, scale=TEST_SCALE, master_seed=SEED)
    result = run_experiment(cluster, warmup_periods=2, measure_periods=8)
    assert result.period_totals == totals
