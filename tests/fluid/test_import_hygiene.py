"""numpy is paid for by fluid runs only.

``import numpy`` costs ~16 MB of resident memory and ~0.14 s; the DES
workloads import ``repro.fluid`` and the ledger too (through the
builder and the benchmark harness) and must not pay it.  A fresh
interpreter is the only place ``sys.modules`` can be trusted.
"""

import os
import subprocess
import sys

import repro

PROBE = """
import sys
import repro.cluster.builder, repro.fluid.engine, repro.telemetry.ledger
import repro.globalqos.waterfill, repro.fluid
assert "numpy" not in sys.modules, "numpy imported at module import time"

from repro.core.capacity import AdaptiveCapacityEstimator, ProfiledCapacity
from repro.core.config import HaechiConfig
from repro.fluid.engine import FluidEngine
from repro.fluid.flows import FlowClass
from repro.telemetry.ledger import TokenLedger

config = HaechiConfig.paper()
estimator = AdaptiveCapacityEstimator(
    profiled=ProfiledCapacity(mean=10_000.0, stddev=0.0),
    eta=config.eta, history_window=config.history_window,
    saturation_tolerance=config.saturation_tolerance,
)
flow = FlowClass(name="T/g", tenant="T", group="g", clients=4,
                 reservation=3_000, demand=5_000)
ledger = TokenLedger()
assert "numpy" not in sys.modules, "numpy imported before the engine"
engine = FluidEngine([flow], config, estimator, ledger=ledger)
assert "numpy" in sys.modules, "the engine did not bring numpy"
engine.run(2)
assert ledger.check_conservation() == []
print("ok")
"""


def test_numpy_arrives_with_the_first_fluid_engine():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
