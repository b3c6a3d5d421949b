"""Hierarchical tenant QoS: tenant -> client-group -> client.

The Haechi paper expresses every guarantee per client; serving millions
of users needs guarantees expressed per *tenant* (the software-defined
HPC QoS framework in PAPERS.md) with state aggregated across many
endpoints (RDMAvisor).  This package provides the hierarchy objects —
:class:`~repro.tenancy.hierarchy.Tenant` and
:class:`~repro.tenancy.hierarchy.ClientGroup` with nesting
reservation / limit / burst semantics — plus the leaf-enforcement
binding that lowers a hierarchy onto the existing per-client machinery
(:mod:`repro.tenancy.binding`) and the tenant-level water-filling the
global coordinator rebalances with (:mod:`repro.tenancy.rebalance`).

See ``docs/SCALE.md`` for the semantics and the validation story.
"""

from repro.tenancy.binding import (  # noqa: F401
    HierarchyBinding,
    bind_hierarchy,
    leaf_plan,
    leaf_reservations_ops,
)
from repro.tenancy.hierarchy import (  # noqa: F401
    ClientGroup,
    Tenant,
    TenantHierarchy,
)
from repro.tenancy.rebalance import tenant_splits  # noqa: F401
