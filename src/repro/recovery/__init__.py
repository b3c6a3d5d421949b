"""Data-path recovery: replication, client failover, chaos testing.

Extends the Haechi reproduction with the fault-*recovery* half of
robustness (PR 1 added fault *tolerance*): a warm-standby replica data
node, a client-side failover state machine that re-registers QoS state
with the replica's monitor, and a seeded chaos scenario
(:mod:`repro.recovery.chaos`, run through the :mod:`repro.cluster.chaos`
spine) that checks end-to-end safety and liveness invariants under
randomized fault schedules.  See docs/RECOVERY.md.
"""

from repro.recovery.cluster import ReplicatedCluster, build_replicated_cluster
from repro.recovery.config import RecoveryConfig
from repro.recovery.failover import FailoverManager, FailoverState

__all__ = [
    "FailoverManager",
    "FailoverState",
    "RecoveryConfig",
    "ReplicatedCluster",
    "build_replicated_cluster",
]
