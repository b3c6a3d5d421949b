"""The tenant -> client-group -> client QoS hierarchy.

Every level carries the same three knobs the flat protocol already has:

- **reservation** — guaranteed tokens/period, *nesting*: the sum of the
  children's reservations can never exceed the parent's, at any level,
  at any time.  Construction clamps violating children proportionally
  (largest-remainder, never above what a child asked for); runtime
  resizes apply the decrease-before-increase discipline PR 5
  established for coordinator splits, so the invariant holds at every
  intermediate step, not just at the boundaries.
- **limit** — optional tokens/period ceiling on the subtree's total
  usage.  A child with no explicit limit inherits a proportional share
  of the nearest ancestor limit (apportioned by reservation).
- **burst** — extra tokens a subtree may spend above its limit,
  refilled from unused limit headroom (a deterministic token bucket;
  exercised by the fluid engine, where per-period usage is explicit).

All arithmetic is integer-exact: apportionments go through the global
coordinator's largest-remainder helpers, so child shares always sum to
the parent total exactly and the ``hierarchy-conservation`` oracle can
assert the nesting invariant per epoch without tolerances.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.globalqos.waterfill import bounded_apportion, largest_remainder


@dataclasses.dataclass
class ClientGroup:
    """A leaf-level class of identical clients under one tenant.

    ``reservation`` is the *group total* (tokens/period); the per-client
    leaf grants are an even largest-remainder split over ``clients``.
    ``requested`` records what the group asked for before any clamping,
    so audits can tell a clamped group from a satisfied one.
    """

    name: str
    reservation: int
    clients: int = 1
    limit: Optional[int] = None
    burst: int = 0
    requested: int = dataclasses.field(default=-1)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigError(
                f"group {self.name!r}: clients must be >= 1, "
                f"got {self.clients}"
            )
        if self.reservation < 0:
            raise ConfigError(
                f"group {self.name!r}: reservation must be >= 0, "
                f"got {self.reservation}"
            )
        if self.limit is not None and self.limit < self.reservation:
            raise ConfigError(
                f"group {self.name!r}: limit {self.limit} below "
                f"reservation {self.reservation}"
            )
        if self.burst < 0:
            raise ConfigError(
                f"group {self.name!r}: burst must be >= 0, got {self.burst}"
            )
        if self.requested < 0:
            self.requested = self.reservation

    def leaf_reservations(self) -> List[int]:
        """Per-client grants; sums to ``reservation`` exactly."""
        return largest_remainder(self.reservation, [1.0] * self.clients)


@dataclasses.dataclass
class Tenant:
    """One tenant: a reservation envelope over its client groups."""

    name: str
    reservation: int
    groups: List[ClientGroup] = dataclasses.field(default_factory=list)
    limit: Optional[int] = None
    burst: int = 0
    requested: int = dataclasses.field(default=-1)

    def __post_init__(self) -> None:
        if self.reservation < 0:
            raise ConfigError(
                f"tenant {self.name!r}: reservation must be >= 0, "
                f"got {self.reservation}"
            )
        if self.limit is not None and self.limit < self.reservation:
            raise ConfigError(
                f"tenant {self.name!r}: limit {self.limit} below "
                f"reservation {self.reservation}"
            )
        if self.burst < 0:
            raise ConfigError(
                f"tenant {self.name!r}: burst must be >= 0, got {self.burst}"
            )
        if not self.groups:
            raise ConfigError(f"tenant {self.name!r} has no client groups")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"tenant {self.name!r}: duplicate group names {names}"
            )
        if self.requested < 0:
            self.requested = self.reservation

    @property
    def child_sum(self) -> int:
        return sum(g.reservation for g in self.groups)

    @property
    def total_clients(self) -> int:
        return sum(g.clients for g in self.groups)

    def group(self, name: str) -> ClientGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise ConfigError(f"tenant {self.name!r} has no group {name!r}")


class TenantHierarchy:
    """The full hierarchy, with clamping, resizing, and auditing.

    ``capacity`` is the root envelope (tokens/period) — typically the
    admission controller's global capacity.  Construction clamps, in
    order, (1) each tenant's group sums against the tenant reservation
    and (2) the tenant sums against ``capacity``; a tenant clamp
    cascades back down to its groups.  Every clamp is recorded in
    ``clamp_events`` with the level, subject, requested, and granted
    values, so "who did not get what they asked for" is auditable.
    """

    def __init__(self, tenants: List[Tenant],
                 capacity: Optional[int] = None):
        if not tenants:
            raise ConfigError("hierarchy needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names {names}")
        if capacity is not None and capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.tenants = list(tenants)
        self.capacity = capacity
        self.clamp_events: List[dict] = []
        self.resize_events: List[dict] = []
        self.epoch = 0

        for tenant in self.tenants:
            self._clamp_groups(tenant, at="construction")
        if capacity is not None:
            total = sum(t.reservation for t in self.tenants)
            if total > capacity:
                shares = bounded_apportion(
                    capacity,
                    [float(t.reservation) for t in self.tenants],
                    [t.reservation for t in self.tenants],
                )
                for tenant, share in zip(self.tenants, shares):
                    if share < tenant.reservation:
                        self.clamp_events.append({
                            "at": "construction", "level": "tenant",
                            "subject": tenant.name,
                            "requested": tenant.reservation,
                            "granted": share,
                        })
                        tenant.reservation = share
                        self._clamp_groups(tenant, at="construction")

    # ------------------------------------------------------------------
    def _clamp_groups(self, tenant: Tenant, at: str) -> List[Tuple]:
        """Shrink ``tenant``'s groups until their sum fits its
        reservation (proportional, never above a group's current
        value).  Returns the ``(group, old, new)`` decrease ops."""
        ops: List[Tuple] = []
        if tenant.child_sum <= tenant.reservation:
            return ops
        shares = bounded_apportion(
            tenant.reservation,
            [float(g.reservation) for g in tenant.groups],
            [g.reservation for g in tenant.groups],
        )
        for group, share in zip(tenant.groups, shares):
            if share < group.reservation:
                ops.append((group.name, group.reservation, share))
                self.clamp_events.append({
                    "at": at, "level": "group",
                    "subject": f"{tenant.name}/{group.name}",
                    "requested": group.reservation, "granted": share,
                })
                group.reservation = share
        return ops

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> Tenant:
        for t in self.tenants:
            if t.name == name:
                return t
        raise ConfigError(f"no tenant named {name!r}")

    @property
    def total_reserved(self) -> int:
        return sum(t.reservation for t in self.tenants)

    @property
    def total_clients(self) -> int:
        return sum(t.total_clients for t in self.tenants)

    def groups(self):
        """Iterate ``(tenant, group)`` pairs in hierarchy order."""
        for tenant in self.tenants:
            for group in tenant.groups:
                yield tenant, group

    def effective_limit(self, tenant: Tenant,
                        group: ClientGroup) -> Optional[int]:
        """The group's usage ceiling after ancestor limits.

        An explicit group limit wins; otherwise the nearest ancestor
        limit is apportioned over that ancestor's children by
        reservation (largest remainder), so sibling ceilings sum to the
        ancestor's exactly.  ``None`` when no level caps the group.
        """
        if group.limit is not None:
            if tenant.limit is None:
                return group.limit
            return min(group.limit, tenant.limit)
        if tenant.limit is None:
            return None
        shares = largest_remainder(
            tenant.limit, [float(g.reservation) for g in tenant.groups]
        )
        return shares[tenant.groups.index(group)]

    # ------------------------------------------------------------------
    # Runtime resize (the coordinator's apply path)
    # ------------------------------------------------------------------
    def resize_tenant(self, name: str, reservation: int) -> List[dict]:
        """Resize a tenant's envelope, decrease-before-increase.

        Returns the ordered op list the caller must apply to the leaf
        enforcement (monitors / fluid flows) **in order**:

        - shrinking: group decreases first (clamped proportionally so
          the child sum fits the new envelope), then the tenant-level
          change — the nesting invariant holds at every step;
        - growing: the tenant-level change first, then nothing — groups
          keep their grants and the caller may grow them afterwards
          through :meth:`resize_group` (each checked on entry).

        Every op is ``{"level", "subject", "old", "new"}``.
        """
        if reservation < 0:
            raise ConfigError(
                f"reservation must be >= 0, got {reservation}"
            )
        tenant = self.tenant(name)
        old = tenant.reservation
        ops: List[dict] = []
        if reservation < old:
            tenant.reservation = reservation
            for gname, gold, gnew in self._clamp_groups(
                    tenant, at=f"resize@{self.epoch}"):
                ops.append({
                    "level": "group", "subject": f"{name}/{gname}",
                    "old": gold, "new": gnew,
                })
            ops.append({
                "level": "tenant", "subject": name,
                "old": old, "new": reservation,
            })
        else:
            if self.capacity is not None:
                others = self.total_reserved - old
                if others + reservation > self.capacity:
                    reservation = self.capacity - others
            tenant.reservation = reservation
            ops.append({
                "level": "tenant", "subject": name,
                "old": old, "new": reservation,
            })
        self.resize_events.append({
            "epoch": self.epoch, "tenant": name,
            "old": old, "new": reservation, "ops": list(ops),
        })
        return ops

    def resize_group(self, tenant_name: str, group_name: str,
                     reservation: int) -> dict:
        """Resize one group within its tenant envelope (clamped, never
        rejected — the rejoin/rebalance idiom)."""
        if reservation < 0:
            raise ConfigError(
                f"reservation must be >= 0, got {reservation}"
            )
        tenant = self.tenant(tenant_name)
        group = tenant.group(group_name)
        old = group.reservation
        headroom = tenant.reservation - (tenant.child_sum - old)
        granted = min(reservation, max(0, headroom))
        if granted < reservation:
            self.clamp_events.append({
                "at": f"resize@{self.epoch}", "level": "group",
                "subject": f"{tenant_name}/{group_name}",
                "requested": reservation, "granted": granted,
            })
        group.reservation = granted
        op = {
            "level": "group", "subject": f"{tenant_name}/{group_name}",
            "old": old, "new": granted,
        }
        self.resize_events.append({
            "epoch": self.epoch, "tenant": tenant_name,
            "group": group_name, "old": old, "new": granted,
            "ops": [op],
        })
        return op

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def conservation_violations(self) -> List[str]:
        """The nesting invariant, checked at every level right now.

        Empty list = healthy.  The ``hierarchy-conservation`` oracle
        runs this per epoch over recorded snapshots.
        """
        problems: List[str] = []
        if (self.capacity is not None
                and self.total_reserved > self.capacity):
            problems.append(
                f"tenant reservations sum to {self.total_reserved} > "
                f"capacity {self.capacity}"
            )
        for tenant in self.tenants:
            if tenant.child_sum > tenant.reservation:
                problems.append(
                    f"tenant {tenant.name}: group reservations sum to "
                    f"{tenant.child_sum} > envelope {tenant.reservation}"
                )
            for group in tenant.groups:
                leaves = group.leaf_reservations()
                if sum(leaves) != group.reservation:
                    problems.append(
                        f"group {tenant.name}/{group.name}: leaf grants "
                        f"sum to {sum(leaves)} != {group.reservation}"
                    )
        return problems

    def snapshot(self) -> dict:
        """One epoch's audit record (JSON-serializable)."""
        return {
            "epoch": self.epoch,
            "capacity": self.capacity,
            "total_reserved": self.total_reserved,
            "tenants": {
                t.name: {
                    "reservation": t.reservation,
                    "limit": t.limit,
                    "burst": t.burst,
                    "child_sum": t.child_sum,
                    "groups": {
                        g.name: {
                            "reservation": g.reservation,
                            "limit": g.limit,
                            "burst": g.burst,
                            "clients": g.clients,
                        }
                        for g in t.groups
                    },
                }
                for t in self.tenants
            },
        }

    # ------------------------------------------------------------------
    def metrics_items(self):
        """``(name, getter)`` pairs for the telemetry metrics registry.

        Registered only for hierarchy-bound clusters (the PR 5 idiom:
        hierarchy-free runs keep their metric streams byte-stable).
        """
        return [
            ("tenancy_tenants", lambda: len(self.tenants)),
            ("tenancy_clients", lambda: self.total_clients),
            ("tenancy_total_reserved", lambda: self.total_reserved),
            ("tenancy_clamp_events", lambda: len(self.clamp_events)),
            ("tenancy_resize_events", lambda: len(self.resize_events)),
            ("tenancy_conservation_violations",
             lambda: len(self.conservation_violations())),
        ]

