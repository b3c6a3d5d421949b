"""The scalar fluid engine, kept as the oracle for the array one.

This is ``FluidEngine`` as it was before its period step moved onto
numpy arrays: a per-flow Python loop over dicts keyed by flow name, the
list ``bounded_apportion``, and three ledger calls (``open`` /
``pool_claim`` / ``close``) per flow per period.  It shares nothing
with the array engine but the inputs, so ``test_differential.py`` can
require the two to agree exactly — same integers, same ledger bytes.
Readouts the differential test does not compare are left out.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.core.capacity import AdaptiveCapacityEstimator
from repro.core.config import HaechiConfig
from repro.fluid.flows import FlowClass, sync_flows
from repro.globalqos.waterfill import bounded_apportion
from repro.tenancy.hierarchy import TenantHierarchy


class ReferenceFluidEngine:
    """The scalar engine: one Python iteration per flow per period."""

    def __init__(
        self,
        flows: List[FlowClass],
        config: HaechiConfig,
        estimator: AdaptiveCapacityEstimator,
        physical_capacity: Optional[int] = None,
        plan=None,
        ledger=None,
        server_host: str = "server",
    ):
        if not flows:
            raise ConfigError("fluid engine needs at least one flow")
        names = [f.name for f in flows]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate flow names {names}")
        self.flows = list(flows)
        self.config = config
        self.estimator = estimator
        # Physical ceiling (tokens/period): what the hardware absorbs
        # regardless of the estimator's optimism.  Defaults to 2x the
        # profiled mean — generous, like the DES's NIC pipelines.
        if physical_capacity is None:
            physical_capacity = int(round(2 * estimator.profiled.mean))
        self.physical = physical_capacity
        self.plan = plan
        self.ledger = ledger
        self.server_host = server_host

        self.period_id = 0
        self.now = 0.0
        self.period_records: List[dict] = []
        self.flow_completions: Dict[str, List[int]] = {
            f.name: [] for f in self.flows
        }
        self.burst_buckets: Dict[str, int] = {
            f.name: f.burst for f in self.flows
        }
        self.conversions = 0
        self.faa_batches = 0
        self.resize_log: List[dict] = []
        self.snapshots: List[dict] = []

    @property
    def total_reserved(self) -> int:
        return sum(f.reservation for f in self.flows)

    @property
    def total_clients(self) -> int:
        return sum(f.clients for f in self.flows)

    # ------------------------------------------------------------------
    def run(self, periods: int) -> None:
        """Advance ``periods`` QoS periods."""
        if periods < 1:
            raise ConfigError(f"periods must be >= 1, got {periods}")
        for _ in range(periods):
            self._step()

    def _step(self) -> None:
        config = self.config
        self.period_id += 1
        w0 = self.now
        w1 = w0 + config.period
        omega = self.estimator.current

        cap_factor = 1.0
        if self.plan is not None:
            cap_factor = self.plan.fluid_capacity_factor(
                self.server_host, w0, w1
            )
        effective = int(round(omega * cap_factor))
        physical = int(round(self.physical * cap_factor))

        # Reserve phase: guaranteed tokens against faulted demand.
        demands: Dict[str, int] = {}
        used_res: Dict[str, int] = {}
        for flow in self.flows:
            avail = 1.0
            if self.plan is not None:
                avail = 1.0 - self.plan.fluid_outage_fraction(
                    flow.host, self.server_host, w0, w1
                )
            demand = int(round(flow.demand * avail))
            demands[flow.name] = demand
            used_res[flow.name] = min(demand, flow.reservation)
        res_spent = sum(used_res.values())

        # Mint/convert: the pool the claim phase draws on.
        if config.token_conversion:
            pool = max(0, effective - res_spent)
            if pool > max(0, effective - self.total_reserved):
                self.conversions += 1
        else:
            pool = max(0, effective - self.total_reserved)
        if self.ledger is not None:
            self.ledger.mint(
                self.period_id, pool, self.total_reserved, w0,
                source="fluid",
            )

        # Claim phase: equal-per-client water-fill of the pool.
        wants: List[int] = []
        for flow in self.flows:
            want = max(0, demands[flow.name] - used_res[flow.name])
            if flow.limit is not None:
                ceiling = flow.limit + self.burst_buckets[flow.name]
                want = min(want, max(0, ceiling - used_res[flow.name]))
            wants.append(want)
        spendable = min(pool, sum(wants), max(0, physical - res_spent))
        if spendable > 0:
            grants = bounded_apportion(
                spendable,
                [float(f.clients) for f in self.flows],
                wants,
            )
        else:
            grants = [0] * len(self.flows)

        # Spend/expire and exact per-flow accounting.
        total_completed = 0
        for i, (flow, grant) in enumerate(zip(self.flows, grants)):
            completed = used_res[flow.name] + grant
            self.flow_completions[flow.name].append(completed)
            total_completed += completed
            self.faa_batches += math.ceil(grant / config.batch_size)
            if flow.limit is not None:
                over = max(0, completed - flow.limit)
                slack = max(0, flow.limit - completed)
                bucket = self.burst_buckets[flow.name]
                self.burst_buckets[flow.name] = min(
                    flow.burst, bucket - over + slack
                )
            if self.ledger is not None:
                account = self.ledger.open(
                    flow.name, self.period_id, flow.reservation, w0
                )
                if grant or wants[i]:
                    self.ledger.pool_claim(
                        account, requested=wants[i],
                        granted=grant, prior_pool=pool, time=w1,
                    )
                self.ledger.close(
                    account, spent=completed, yielded=0,
                    residual=flow.reservation - used_res[flow.name],
                    reason="fluid-period", time=w1,
                )

        self.period_records.append({
            "period": self.period_id,
            "estimate": omega,
            "capacity_factor": cap_factor,
            "effective": effective,
            "pool": pool,
            "completed": total_completed,
        })
        self.estimator.update(total_completed)
        self.now = w1

    # ------------------------------------------------------------------
    # Control-plane hooks (the hybrid runner's discrete events)
    # ------------------------------------------------------------------
    def apply_hierarchy(self, hierarchy: TenantHierarchy) -> List[dict]:
        """Adopt a resized hierarchy's envelopes (decrease-before-
        increase already happened inside the hierarchy ops); snapshot
        the state for the ``hierarchy-conservation`` oracle."""
        hierarchy.epoch = self.period_id
        changes = sync_flows(self.flows, hierarchy)
        for change in changes:
            self.resize_log.append(dict(change, period=self.period_id))
        self.snapshots.append(hierarchy.snapshot())
        return changes
