"""The fluid engine: per-flow per-period token arithmetic.

One period of the exact DES, re-derived as closed-form flow math (the
symbols are the paper's; see ``docs/SCALE.md`` for the derivation):

- **mint** — the monitor estimates capacity ``Omega`` (the same
  Algorithm-1 estimator instance the DES uses) and pools what is not
  reserved.  Fault windows project onto the period as multiplicative
  capacity factors (:meth:`~repro.faults.plan.FaultPlan.
  fluid_capacity_factor`).
- **reserve** — each flow spends ``min(demand, reservation)`` from its
  guaranteed grant; partitions and crash windows scale a flow's demand
  by its connectivity fraction for the period.
- **convert** — with token conversion on, the pool is what the
  effective capacity leaves after *used* reservations (unused
  reservation tokens convert); Basic Haechi pools only capacity minus
  *total reserved* (unused tokens are wasted) — exactly the DES
  ablation switch.
- **claim** — leftover demand draws on the pool, water-filled
  equal-per-client across flows (``bounded_apportion`` weighted by
  client count, bounded by each flow's remaining want under its
  limit + burst ceiling), capped by physical capacity.  Claims model
  the batched FAAs: the implied batch count is recorded per period.
- **expire/account** — every flow closes an exact ledger account per
  period: ``granted + claimed == spent + expired`` with zero balance
  *by construction*, so the conservation audit is as strict as the
  DES's.

No RNG anywhere: the engine is deterministic given (flows, config,
estimator seedings, plan), which is what lets the determinism guard pin
fluid digests next to the DES families.

Flow state is struct-of-arrays and a period is a fixed number of numpy
calls, whatever the flow count, plus one array water-fill
(:func:`repro.fluid.kernels.bounded_apportion`: a few array ops per
freeze-and-redistribute round); the per-flow loop this replaced lives
on, with the list water-fill, as the oracle in
``tests/fluid/reference_engine.py`` and must agree to the last bit.
All quantities are int64 tokens.

A steady period stores no new column: each column the ledger block and
the completion history keep (requested, pool grants, spent, residual)
is passed as the previous period's array object when its values did
not change, so what a run holds grows with the periods that changed
something, not with flows x periods.

Nor does a steady period solve anything new.  The claim water-fill is
a pure function of ``(spendable, weights, wants)``, and the weights
(client counts) are fixed at construction: ``apply_hierarchy``
rebuilds only the reservation and limit columns, which reach the
water-fill through ``wants``, and faults and the estimator reach it
through ``spendable`` and ``wants`` too.  So a period whose
``spendable`` and ``wants`` equal the last period's takes the last
period's grants column as it is — read-only, as the ledger's blocks
share it — and only a period whose claim changed runs the kernel.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, QoSError
from repro.core.capacity import AdaptiveCapacityEstimator
from repro.core.config import HaechiConfig
from repro.fluid.flows import FlowClass, sync_flows
from repro.tenancy.hierarchy import TenantHierarchy


class FlowCompletions(Mapping):
    """Read-only ``flow name -> per-period completions``.

    Backed by the engine's runs of identical period rows (``[row,
    periods]`` pairs, ``row`` an int64 column over the flows).  Each
    lookup builds a fresh ``list[int]``; a run of ``n`` periods is
    ``[v] * n``, one int object however long the run.
    """

    __slots__ = ("_index", "_runs")

    def __init__(self, names: List[str], runs: list):
        self._index = {name: i for i, name in enumerate(names)}
        self._runs = runs

    def __getitem__(self, name: str) -> List[int]:
        i = self._index[name]
        out: List[int] = []
        for row, periods in self._runs:
            out += [row.item(i)] * periods
        return out

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class FluidEngine:
    """Evaluates flows period by period; O(flows) per period."""

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

        # numpy arrives with the first engine, not with ``import
        # repro.fluid``: the DES path imports this module too (see
        # ``kernels``).
        from repro.fluid import kernels

        self._kernels = kernels
        self._np = np = kernels.np
        self._names = names
        # Flow state as columns.  Client counts, demands and burst caps
        # never change after construction; reservations and limits only
        # through ``apply_hierarchy``, which rebuilds their columns.
        self.total_clients = sum(f.clients for f in flows)
        self._weights = np.array(
            [f.clients for f in flows], dtype=np.float64
        )
        self._demand = np.array([f.demand for f in flows], dtype=np.int64)
        self._burst = np.array([f.burst for f in flows], dtype=np.int64)
        self._bucket = self._burst.copy()
        self._load_envelopes()

        self.period_id = 0
        self.now = 0.0
        self.period_records: List[dict] = []
        # Runs of equal completion rows, ``[row, periods]``; the rows
        # are the ``spent`` columns of the ledger's blocks.
        self._completion_runs: list = []
        self.flow_completions = FlowCompletions(names, self._completion_runs)
        # Last period's (requested, granted_pool, spent, residual).
        self._last_columns: Optional[list] = None
        # Last period's claim total; with its requested column, the
        # key of the water-fill whose grants are its pool column (0, no
        # claim, until a period has run).
        self._last_spendable = 0
        self.conversions = 0
        self.faa_batches = 0
        self.resize_log: List[dict] = []
        self.snapshots: List[dict] = []

    def _load_envelopes(self) -> None:
        """(Re)build the columns ``sync_flows`` can change.  New arrays
        every time, never in-place: ledger blocks of earlier periods
        hold the old reservation column."""
        np = self._np
        self._reservation = np.array(
            [f.reservation for f in self.flows], dtype=np.int64
        )
        self._has_limit = np.array(
            [f.limit is not None for f in self.flows], dtype=bool
        )
        self._limit = np.array(
            [f.limit or 0 for f in self.flows], dtype=np.int64
        )
        self.total_reserved = int(self._reservation.sum())

    @property
    def burst_buckets(self) -> Dict[str, int]:
        """Tokens left in each flow's burst bucket."""
        return dict(zip(self._names, self._bucket.tolist()))

    # ------------------------------------------------------------------
    def run(self, periods: int) -> None:
        """Advance ``periods`` QoS periods."""
        if periods < 1:
            raise ConfigError(f"periods must be >= 1, got {periods}")
        for _ in range(periods):
            self._step()

    def _step(self) -> None:
        np = self._np
        config = self.config
        plan = self.plan
        self.period_id += 1
        w0 = self.now
        w1 = w0 + config.period
        omega = self.estimator.current

        cap_factor = 1.0
        if plan is not None:
            cap_factor = plan.fluid_capacity_factor(self.server_host, w0, w1)
        effective = int(round(omega * cap_factor))
        physical = int(round(self.physical * cap_factor))

        # Reserve phase: guaranteed tokens against faulted demand.
        # Connectivity is a per-flow Python call, so it is asked for
        # only when a partition or crash window overlaps the period
        # (with none, every flow's outage fraction is 0.0).
        demand = self._demand
        if plan is not None and (plan.partitions or plan.crashes) and any(
            window.start < w1 and window.end > w0
            for window in plan.partitions + plan.crashes
        ):
            avail = np.array([
                1.0 - plan.fluid_outage_fraction(
                    name, self.server_host, w0, w1
                )
                for name in self._names
            ])
            # rint rounds half to even, like the builtin round().
            demand = np.rint(demand * avail).astype(np.int64)
        reservation = self._reservation
        used_res = np.minimum(demand, reservation)
        res_spent = int(used_res.sum())

        # Mint/convert: the pool the claim phase draws on.
        unreserved = max(0, effective - self.total_reserved)
        if config.token_conversion:
            pool = max(0, effective - res_spent)
            if pool > unreserved:
                self.conversions += 1
        else:
            pool = unreserved
        if self.ledger is not None:
            self.ledger.mint(
                self.period_id, pool, self.total_reserved, w0,
                source="fluid",
            )

        # Claim phase: equal-per-client water-fill of the pool.
        wants = demand - used_res
        ceiling = self._limit + self._bucket
        wants = np.where(
            self._has_limit,
            np.minimum(wants, np.maximum(0, ceiling - used_res)),
            wants,
        )
        spendable = min(
            pool, int(wants.sum()), max(0, physical - res_spent)
        )
        last = self._last_columns
        fresh = 0  # the first column not yet known equal to last's
        if (spendable > 0 and spendable == self._last_spendable
                and np.array_equal(wants, last[0])):
            # Last period's claim again: the water-fill is a pure
            # function of it (the weights never change), so last
            # period's grants stand — and both columns are last's.
            wants, grants = last[0], last[1]
            fresh = 2
        elif spendable > 0:
            grants = self._kernels.bounded_apportion(
                spendable, self._weights, wants
            )
            if grants is None:
                # spendable <= wants.sum() above rules this out.
                raise QoSError(
                    f"period {self.period_id}: no feasible claim of "
                    f"{spendable} tokens under wants summing to "
                    f"{int(wants.sum())}"
                )
            # Later periods may reuse it, and the ledger's blocks share
            # it: nothing may write it.
            grants.flags.writeable = False
        else:
            grants = np.zeros(len(self._names), dtype=np.int64)

        # Spend/expire and exact per-flow accounting.
        completed = used_res + grants
        total_completed = int(completed.sum())
        # Same float division as math.ceil(grant / batch_size).
        self.faa_batches += int(np.ceil(grants / config.batch_size).sum())
        # bucket - overshoot + slack, which is bucket + limit - used.
        self._bucket = np.where(
            self._has_limit,
            np.minimum(self._burst, self._bucket + self._limit - completed),
            self._bucket,
        )

        # A column equal to last period's is kept as last period's
        # object (inline, not a helper: no Python call per column).
        columns = [wants, grants, completed, reservation - used_res]
        if last is not None:
            for k in range(fresh, 4):
                if np.array_equal(columns[k], last[k]):
                    columns[k] = last[k]
        wants, grants, completed, residual = columns
        self._last_columns = columns
        self._last_spendable = spendable
        runs = self._completion_runs
        if runs and runs[-1][0] is completed:
            runs[-1][1] += 1
        else:
            runs.append([completed, 1])
        if self.ledger is not None:
            self.ledger.close_block(
                self._names, self.period_id,
                granted_reservation=reservation,
                requested=wants, granted_pool=grants, spent=completed,
                residual=residual,
                prior_pool=pool, opened_at=w0, closed_at=w1,
                reason="fluid-period",
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
        self._load_envelopes()
        for change in changes:
            self.resize_log.append(dict(change, period=self.period_id))
        self.snapshots.append(hierarchy.snapshot())
        return changes

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def _completed_totals(self) -> List[int]:
        """Per-flow completions summed over every period so far."""
        totals = self._np.zeros(len(self._names), dtype=self._np.int64)
        for row, periods in self._completion_runs:
            totals += row * periods
        return totals.tolist()

    def attainment(self) -> Dict[str, Optional[float]]:
        """Per-flow mean attainment: mean per-period completions over
        the flow's reservation (``None`` for zero reservations)."""
        out: Dict[str, Optional[float]] = {}
        periods = self.period_id
        for flow, total in zip(self.flows, self._completed_totals()):
            if not periods or flow.reservation <= 0:
                out[flow.name] = None
                continue
            out[flow.name] = (total / periods) / flow.reservation
        return out

    def tenant_rollup(self) -> Dict[str, dict]:
        """Per-tenant reservation/completed/attainment, exact sums."""
        tenants: Dict[str, dict] = {}
        for flow, total in zip(self.flows, self._completed_totals()):
            entry = tenants.setdefault(flow.tenant, {
                "reservation": 0, "clients": 0, "completed": 0,
            })
            entry["reservation"] += flow.reservation
            entry["clients"] += flow.clients
            entry["completed"] += total
        periods = self.period_id
        for entry in tenants.values():
            if periods and entry["reservation"] > 0:
                entry["attainment"] = (
                    entry["completed"] / periods / entry["reservation"]
                )
            else:
                entry["attainment"] = None
        return tenants

    def columns_held(self) -> int:
        """Distinct column objects the run keeps: the ledger blocks'
        five columns and the completion rows (which are the blocks'
        ``spent``).  Grows with the periods that changed a column, not
        with the periods run."""
        held = {id(row) for row, _periods in self._completion_runs}
        if self.ledger is not None:
            for block in self.ledger.blocks():
                held.update(map(id, (
                    block.granted_reservation, block.requested,
                    block.granted_pool, block.spent, block.residual,
                )))
        return len(held)

    def metrics_items(self):
        """``(name, getter)`` pairs — registered only for fluid runs
        (the PR 5 conditional idiom)."""
        return [
            ("fluid_period_id", lambda: self.period_id),
            ("fluid_flows", lambda: len(self.flows)),
            ("fluid_clients", lambda: self.total_clients),
            ("fluid_total_reserved", lambda: self.total_reserved),
            ("fluid_conversions", lambda: self.conversions),
            ("fluid_faa_batches", lambda: self.faa_batches),
            ("fluid_capacity_estimate", lambda: self.estimator.current),
        ]
