"""Lowering a :class:`TenantHierarchy` onto the per-client DES machinery.

The hierarchy is a control-plane object; the simulated cluster only
knows flat per-client reservations.  This module is the bridge:

- :func:`leaf_plan` flattens the hierarchy into the deterministic
  ``(tenant, group, leaf_tokens)`` sequence clients are built from,
  and :func:`leaf_reservations_ops` converts it to the ops/s list
  ``build_cluster`` accepts (the token round-trip is exact).
- :class:`HierarchyBinding` attaches the hierarchy to a built cluster:
  it stamps each :class:`~repro.cluster.builder.ClientContext` with its
  ``tenant``/``group``, installs the monitor-side *leaf enforcement
  guard* (a coordinator resize can never push a group's member sum past
  the group's effective limit), and exposes the per-tenant rollup the
  metrics facade's ``tenancy`` block reads.

Rollups are integer-exact by construction: the per-tenant completed
counts are sums over the monitor's own per-period records, so the
tenant view and the per-client view can never disagree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.tenancy.hierarchy import TenantHierarchy


def leaf_plan(hierarchy: TenantHierarchy) -> List[Tuple[str, str, int]]:
    """Flatten to ``(tenant_name, group_name, leaf_tokens)`` triples.

    Hierarchy order (tenants, then groups, then leaf index) — the same
    order client indices are assigned in, so triple *i* describes
    client *i*.
    """
    plan: List[Tuple[str, str, int]] = []
    for tenant, group in hierarchy.groups():
        for tokens in group.leaf_reservations():
            plan.append((tenant.name, group.name, tokens))
    return plan


def leaf_reservations_ops(hierarchy: TenantHierarchy, config) -> List[float]:
    """The per-client ops/s list ``build_cluster`` needs.

    ``config.tokens_per_period`` rounds ``rate * period``; feeding it
    ``tokens / period`` returns exactly ``tokens``, so the built
    cluster's grants match the hierarchy's leaves token-for-token.
    """
    return [config.rate_of(tokens) for _, _, tokens in leaf_plan(hierarchy)]


class HierarchyBinding:
    """A hierarchy attached to one built single-node cluster."""

    def __init__(self, cluster, hierarchy: TenantHierarchy):
        if len(cluster.clients) != hierarchy.total_clients:
            raise ConfigError(
                f"hierarchy describes {hierarchy.total_clients} clients, "
                f"cluster has {len(cluster.clients)}"
            )
        self.cluster = cluster
        self.hierarchy = hierarchy
        plan = leaf_plan(hierarchy)
        self.tenant_of: Dict[int, str] = {}
        self.group_of: Dict[int, str] = {}
        self._members: Dict[Tuple[str, str], List[int]] = {}
        for ctx, (tname, gname, tokens) in zip(cluster.clients, plan):
            self.tenant_of[ctx.index] = tname
            self.group_of[ctx.index] = gname
            ctx.tenant = tname
            ctx.group = gname
            ctx.kv.tenant = tname
            self._members.setdefault((tname, gname), []).append(ctx.index)
        if cluster.monitor is not None:
            cluster.monitor.reservation_guard = self.guard
        cluster.tenancy = self

    # ------------------------------------------------------------------
    # Leaf enforcement (the monitor's resize guard)
    # ------------------------------------------------------------------
    def guard(self, client_id: int, requested: int) -> int:
        """Cap a client resize so its group stays within its ceiling.

        The ceiling is the group's effective limit when one applies,
        otherwise the group's reservation envelope; the other members'
        *current* monitor grants fill it first.  Clamped, never
        rejected — the established rebalance idiom.
        """
        tname = self.tenant_of.get(client_id)
        if tname is None:
            return requested
        tenant = self.hierarchy.tenant(tname)
        group = tenant.group(self.group_of[client_id])
        cap = self.hierarchy.effective_limit(tenant, group)
        if cap is None:
            cap = group.reservation
        monitor = self.cluster.monitor
        others = 0
        for member in self._members[(tname, group.name)]:
            if member == client_id:
                continue
            slot = monitor._clients.get(member)
            if slot is not None:
                others += slot.reservation
        return min(requested, max(0, cap - others))

    # ------------------------------------------------------------------
    # Rollups (the facade's tenancy block)
    # ------------------------------------------------------------------
    def members(self, tenant_name: str) -> List[int]:
        """Client indices belonging to ``tenant_name``."""
        return [
            cid for cid, t in sorted(self.tenant_of.items())
            if t == tenant_name
        ]

    def tenant_rollup(self) -> Dict[str, dict]:
        """Per-tenant reservation, completions, and attainment.

        ``completed`` sums the monitor's own per-period ``per_client``
        records over the tenant's members, so the rollup and the flat
        per-client telemetry are the same numbers by construction.
        ``attainment`` is mean per-period completions over the tenant
        envelope, matching ``globalqos.scenario.measure_attainment``.
        """
        monitor = self.cluster.monitor
        records = monitor.period_records if monitor is not None else []
        out: Dict[str, dict] = {}
        for tenant in self.hierarchy.tenants:
            ids = set(self.members(tenant.name))
            completed = 0
            for record in records:
                completed += sum(
                    count for cid, count in record["per_client"].items()
                    if cid in ids
                )
            periods = len(records)
            attainment = None
            if periods and tenant.reservation > 0:
                attainment = (completed / periods) / tenant.reservation
            out[tenant.name] = {
                "reservation": tenant.reservation,
                "clients": len(ids),
                "completed": completed,
                "attainment": attainment,
            }
        return out

    def rollup_conservation(self) -> List[str]:
        """Nesting invariant *as enforced*, not just as configured.

        On top of the hierarchy's own structural check, verifies that
        the monitor's live member grants still fit each group's ceiling
        (the property the resize guard maintains).
        """
        problems = list(self.hierarchy.conservation_violations())
        monitor = self.cluster.monitor
        if monitor is None:
            return problems
        for tenant, group in self.hierarchy.groups():
            cap = self.hierarchy.effective_limit(tenant, group)
            if cap is None:
                cap = group.reservation
            live = sum(
                monitor._clients[m].reservation
                for m in self._members[(tenant.name, group.name)]
                if m in monitor._clients
            )
            if live > cap:
                problems.append(
                    f"group {tenant.name}/{group.name}: live grants sum "
                    f"to {live} > ceiling {cap}"
                )
        return problems

    # ------------------------------------------------------------------
    def metrics_items(self):
        """Gauges for hierarchy-bound clusters (conditional: the PR 5
        idiom keeps hierarchy-free metric streams byte-stable)."""
        items = list(self.hierarchy.metrics_items())
        monitor = self.cluster.monitor
        if monitor is not None:
            items.append((
                "tenancy_hierarchy_clamped",
                lambda: monitor.hierarchy_clamped,
            ))
        items.append((
            "tenancy_rollup_violations",
            lambda: len(self.rollup_conservation()),
        ))
        return items


def bind_hierarchy(cluster, hierarchy: TenantHierarchy) -> HierarchyBinding:
    """Attach ``hierarchy`` to ``cluster`` (see :class:`HierarchyBinding`)."""
    return HierarchyBinding(cluster, hierarchy)
