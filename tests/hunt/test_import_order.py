"""The chaos spine and the hunt import in either order.

``repro.cluster.chaos`` reads the oracle registry and
``repro.hunt.scenario`` declares its candidates on the spine, so the two
must not import each other through ``repro.hunt``'s package
``__init__``.  pytest imports ``repro.hunt`` early and would hide such
a cycle; a fresh interpreter does not.
"""

import os
import subprocess
import sys

import pytest

import repro


@pytest.mark.parametrize("first, second", [
    ("repro.cluster.chaos", "repro.hunt.scenario"),
    ("repro.hunt.scenario", "repro.cluster.chaos"),
])
def test_a_fresh_interpreter_imports_both(first, second):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", f"import {first}; import {second}"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
