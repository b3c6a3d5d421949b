"""Lowering the hierarchy onto the DES: guard, rollups, tenancy gauges."""

import pytest

from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import TEST_SCALE, qos_cluster
from repro.common.errors import ConfigError
from repro.tenancy.binding import (
    bind_hierarchy,
    leaf_plan,
    leaf_reservations_ops,
)
from repro.tenancy.hierarchy import ClientGroup, Tenant, TenantHierarchy

from tests.conftest import cluster_registry


def small_hierarchy(config):
    tokens = config.tokens_per_period
    return TenantHierarchy([
        Tenant(
            name="T1", reservation=tokens(400_000),
            groups=[
                ClientGroup(name="g1", reservation=tokens(250_000),
                            clients=2),
                ClientGroup(name="g2", reservation=tokens(150_000),
                            clients=1),
            ],
        ),
        Tenant(
            name="T2", reservation=tokens(300_000),
            groups=[
                ClientGroup(name="g1", reservation=tokens(300_000),
                            clients=2),
            ],
        ),
    ])


def bound_cluster(periods=0):
    config = TEST_SCALE.config()
    hierarchy = small_hierarchy(config)
    cluster = qos_cluster(
        reservations=leaf_reservations_ops(hierarchy, config),
        demands=[500_000.0] * hierarchy.total_clients,
        scale=TEST_SCALE,
    )
    binding = bind_hierarchy(cluster, hierarchy)
    if periods:
        run_experiment(cluster, warmup_periods=1, measure_periods=periods)
    return cluster, binding


def test_leaf_plan_order_and_token_roundtrip():
    config = TEST_SCALE.config()
    hierarchy = small_hierarchy(config)
    plan = leaf_plan(hierarchy)
    assert [(t, g) for t, g, _ in plan] == [
        ("T1", "g1"), ("T1", "g1"), ("T1", "g2"), ("T2", "g1"),
        ("T2", "g1"),
    ]
    # ops/s -> tokens is exact: the built cluster's grants match the
    # hierarchy's leaves token-for-token.
    ops = leaf_reservations_ops(hierarchy, config)
    assert [config.tokens_per_period(r) for r in ops] == [
        tokens for _, _, tokens in plan
    ]


def test_binding_rejects_client_count_mismatch():
    config = TEST_SCALE.config()
    hierarchy = small_hierarchy(config)  # 5 clients
    cluster = qos_cluster(
        reservations=[100_000.0] * 3, demands=[100_000.0] * 3,
        scale=TEST_SCALE,
    )
    with pytest.raises(ConfigError):
        bind_hierarchy(cluster, hierarchy)


def test_binding_stamps_contexts_and_kv_clients():
    cluster, binding = bound_cluster()
    assert [ctx.tenant for ctx in cluster.clients] == \
        ["T1", "T1", "T1", "T2", "T2"]
    assert [ctx.kv.tenant for ctx in cluster.clients] == \
        [ctx.tenant for ctx in cluster.clients]
    assert binding.members("T2") == [3, 4]


def test_guard_clamps_midstream_resize_to_group_ceiling():
    cluster, binding = bound_cluster()
    monitor = cluster.monitor
    hierarchy = binding.hierarchy
    group = hierarchy.tenant("T1").group("g2")  # client 2, alone
    assert monitor.hierarchy_clamped == 0

    # A coordinator-style resize far past the group envelope: the
    # guard caps it at the ceiling, never rejects.
    grant = monitor.update_reservation(2, group.reservation * 10)
    assert grant["reservation"] == group.reservation
    assert monitor.hierarchy_clamped == 1
    assert binding.rollup_conservation() == []

    # Within the envelope passes through untouched.
    grant = monitor.update_reservation(2, group.reservation // 2)
    assert grant["reservation"] == group.reservation // 2
    assert monitor.hierarchy_clamped == 1


def test_guard_counts_sibling_grants_against_the_ceiling():
    cluster, binding = bound_cluster()
    monitor = cluster.monitor
    group = binding.hierarchy.tenant("T1").group("g1")  # clients 0, 1
    slot0 = monitor._clients[0].reservation
    grant = monitor.update_reservation(1, group.reservation)
    assert grant["reservation"] == group.reservation - slot0
    assert binding.rollup_conservation() == []


def test_tenant_rollup_matches_flat_telemetry():
    cluster, binding = bound_cluster(periods=3)
    rollup = binding.tenant_rollup()
    assert sorted(rollup) == ["T1", "T2"]
    records = cluster.monitor.period_records
    for tenant in binding.hierarchy.tenants:
        ids = set(binding.members(tenant.name))
        expected = sum(
            count for record in records
            for cid, count in record["per_client"].items() if cid in ids
        )
        entry = rollup[tenant.name]
        assert entry["completed"] == expected
        assert entry["clients"] == len(ids)
        assert entry["attainment"] == pytest.approx(
            expected / len(records) / tenant.reservation
        )


def test_facade_tenancy_block_pinned():
    cluster, binding = bound_cluster(periods=3)
    registry = cluster_registry(cluster)
    items = binding.metrics_items()
    assert items
    for name, getter in items:
        assert name.startswith("tenancy_")
        assert registry.value(name) == getter()
    assert registry.value("tenancy_tenants") == 2
    assert registry.value("tenancy_rollup_violations") == 0
    assert binding.rollup_conservation() == []


def test_facade_block_absent_without_hierarchy():
    cluster = qos_cluster(
        reservations=[100_000.0] * 2, demands=[150_000.0] * 2,
        scale=TEST_SCALE,
    )
    run_experiment(cluster, warmup_periods=1, measure_periods=2)
    rows = cluster_registry(cluster).collect()
    assert not any(name.startswith("tenancy_") for name, _, _ in rows)
