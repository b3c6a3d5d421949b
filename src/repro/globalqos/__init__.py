"""Global QoS coordination across data nodes (docs/GLOBALQOS.md).

The multi-node deployment in :mod:`repro.cluster.multinode` splits each
client's aggregate reservation evenly across nodes — the crudest
policy, and the wrong one under any skew: a client starves on its hot
node while reserved tokens idle on cold ones.  This package adds a
coordinator that closes the loop: clients and nodes push per-epoch
demand/headroom reports over the existing two-sided RPC path, the
coordinator water-fills demand against each node's admission headroom,
and the resulting splits — each client's aggregate reservation
conserved exactly — are applied mid-stream through the monitors'
rejoin-style resize and the engines' ``rebind`` machinery.

Degradation is explicit: a crashed coordinator (or a lossy control
plane) freezes the last applied split and, after ``fallback_after``
silent epochs, the client agents revert to the static even split on
their own.  Everything is deterministic: reports, recomputation, and
application all ride simulator events with no wall-clock input.
"""

from repro.globalqos.coordinator import (
    COORD_HOST_NAME,
    STANDBY_HOST_NAME,
    GlobalCoordinator,
    attach_coordinator,
    attach_standby,
)
from repro.globalqos.waterfill import (
    even_split,
    largest_remainder,
    waterfill_splits,
)

# The scenario layer imports repro.cluster.multinode, which itself
# imports this package (for even_split) — resolve lazily to avoid the
# cycle.
_LAZY = {
    "build_skewed_cluster": "repro.globalqos.scenario",
    "run_skewed": "repro.globalqos.scenario",
    "run_skewed_comparison": "repro.globalqos.scenario",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module), name)

__all__ = [
    "COORD_HOST_NAME",
    "GlobalCoordinator",
    "STANDBY_HOST_NAME",
    "attach_coordinator",
    "attach_standby",
    "build_skewed_cluster",
    "even_split",
    "largest_remainder",
    "run_skewed",
    "run_skewed_comparison",
    "waterfill_splits",
]
