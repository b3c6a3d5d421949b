"""Rolling policy updates under coordinator-failover chaos.

The hardest moment to hot-swap a policy is mid-failover: for roughly
one epoch *two* coordinators believe they lead — the promoted standby
with a fenced higher term, and the deposed leader still computing
behind an asymmetric partition.  This harness reuses the partition
chaos schedule (:func:`~repro.globalqos.chaos.partition_chaos_plan`:
leader->standby cut, deposed-leader control lag, fail-slow gray node)
and submits a policy flip — the committed ``policy-chaos`` revision 2
of the skew policy, raising the entitled reservation and attaching a
limit while shrinking commodity — timed so both coordinators push it
at the takeover epoch.  The deposed leader's push carries the old
term and, thanks to the lag rule, arrives *after* the new leader's.

Invariants checked:

1. **Bounded takeover, exactly once** (as the partition harness).
2. **Zero stale policy applications** — every client applies revision
   2 exactly once, from the new leader; the deposed leader's push is
   fenced by term (>= 1 fenced observed), and the acting leader's
   per-epoch re-pushes are rejected as stale (>= 1 observed), so the
   self-healing redundancy is exercised, not just tolerated.
3. **Decrease-before-increase held** — node-side admission never
   clamped an apply: the entitled raise waited for the commodity
   shrink's headroom.
4. **Conservation throughout** — token, split, quarantine and policy
   ledger audits all clean; the policy applies land in the ledger
   with the old and new vectors.
5. **The policy actually took** — final aggregates equal the lowered
   revision-2 targets, entitled engines carry the new limit, and
   reservations are met in the final fault-free period *under the new
   policy*.

Same seed, same schedule, same verdict: failures are replayable.
"""

from __future__ import annotations

from repro.cluster.chaos import ChaosRun, ChaosScenario
from repro.globalqos.chaos import (
    MULTINODE,
    REBALANCE_PERIODS,
    build_ha_cluster,
    partition_chaos_plan,
    takeover_bound,
    takeover_checks,
)
from repro.policy.service import attach_policy_service
from repro.policy.store import load_policy

#: The committed flip document: revision 2 of the skew policy.
FLIP_DOCUMENT = "policy-chaos"


def _arm_flip(cluster, plan):
    """Schedule the flip; returns ``(flip_epoch, flip_document)``.

    Submitting half a period before the takeover epoch's compute ticks
    puts the flip in front of *both* coordinators at once — the deposed
    leader pushes it with its stale term (lagged past the new leader's
    push by the plan's delay rule), which is exactly the race fencing
    must win.
    """
    service = attach_policy_service(cluster)
    T = cluster.config.period
    flip_epoch = takeover_bound(cluster, plan)
    flip = load_policy(FLIP_DOCUMENT)
    cluster.sim.schedule_at(
        flip_epoch * REBALANCE_PERIODS * T - 0.5 * T, service.submit, flip
    )
    return flip_epoch, flip


def _checks(run: ChaosRun):
    cluster = run.cluster
    standby = cluster.standby
    service = cluster.policy_service
    agents = cluster.client_agents
    _flip_epoch, flip = run.armed

    # 1. Bounded takeover, exactly once (the failover the flip rides).
    yield from takeover_checks(run)

    # 2. The flip applied exactly once per client, revision 2, from
    # the fenced winner.
    for agent in agents:
        if agent.policy_applies != 1:
            yield (
                f"{agent.striped.name}: expected exactly one policy "
                f"apply, got {agent.policy_applies}"
            )
        if agent.policy_version_applied != flip.version:
            yield (
                f"{agent.striped.name}: revision "
                f"{agent.policy_version_applied} in force at run end, "
                f"expected {flip.version}"
            )
        if (standby.takeovers == 1 and agent.policy_keys_applied
                and agent.policy_keys_applied[0][0] != standby.term):
            yield (
                f"{agent.striped.name}: applied policy from term "
                f"{agent.policy_keys_applied[0][0]}, acting leader's "
                f"term is {standby.term} (stale source)"
            )

    # 3. Decrease-before-increase held: no node-side admission clamp
    # fired while the raise and the shrink crossed.
    clamped = sum(node.monitor.rebalance_clamped for node in cluster.nodes)
    if clamped:
        yield (
            f"admission clamped {clamped} mid-flip applies — the "
            "decrease-before-increase ordering let a transient "
            "over-reservation through"
        )

    # 4. The policy applies land in the ledger, one per client.
    if run.ledger is not None:
        applies_logged = sum(
            1 for e in run.ledger.events if e.get("event") == "policy_apply"
        )
        if applies_logged != len(agents):
            yield (
                f"ledger recorded {applies_logged} policy_apply events "
                f"for {len(agents)} clients"
            )

    # 5. The policy took: final aggregates equal the lowered targets
    # and limited classes carry their caps.
    for striped in cluster.clients:
        want = service._targets.get(striped.index)
        if want is None:
            continue
        reservation, limit = want
        if striped.aggregate_reservation != reservation:
            yield (
                f"{striped.name}: aggregate {striped.aggregate_reservation} "
                f"at run end, policy says {reservation}"
            )
        agent = agents[striped.index]
        if limit > 0 and not agent._policy_limits:
            yield (
                f"{striped.name}: policy limit {limit} never installed "
                "on the engines"
            )
        if limit == 0 and agent._policy_limits:
            yield (
                f"{striped.name}: unexpected policy limits "
                f"{agent._policy_limits} (policy sets none)"
            )


def _counters(run: ChaosRun) -> dict:
    cluster = run.cluster
    agents = cluster.client_agents
    service = cluster.policy_service
    return {
        "flip_epoch": run.armed[0],
        "submitted_version": service.active_version,
        "takeovers": cluster.standby.takeovers,
        "takeover_epoch": cluster.standby.takeover_epoch,
        "policy_applies": sum(a.policy_applies for a in agents),
        "policy_fenced": sum(a.policy_fenced for a in agents),
        "policy_stale_rejected": sum(
            a.policy_stale_rejected for a in agents
        ),
        "policy_pushes": service.pushes_sent,
        "rebalances": (cluster.coordinator.rebalances_computed
                       + cluster.standby.rebalances_computed),
        "puts_acked": sum(d.puts_acked for d in run.drivers),
    }


POLICY_FLIP = ChaosScenario(
    name="policy-flip",
    summary="policy hot-swap at the takeover epoch of the partition "
            "schedule",
    # CI's chaos-smoke job runs the first, tests/policy/test_chaos.py
    # runs all three.
    seeds=(11, 23, 37),
    periods=36,
    kind=MULTINODE,
    build=build_ha_cluster,
    plan=partition_chaos_plan,
    arm=_arm_flip,
    # Invariant 2's zero stale applications (split fencing must hold
    # alongside the policy fencing), invariant 4's audits, and
    # reservations met in the final period under the *new* policy.
    oracles=(
        "no-stale-policy",
        "no-stale-split",
        "no-lost-acked-put",
        "ledger-conservation",
        "split-conservation",
        "quarantine-audit",
        "policy-audit",
        "reservations-met",
    ),
    checks=_checks,
    counters=_counters,
    # Both losing paths were observed, not just tolerated: the deposed
    # leader's push fenced by term despite the engineered lag race, and
    # the acting leader's per-epoch re-pushes rejected as stale.
    exercised=("policy_applies", "policy_fenced", "policy_stale_rejected",
               "puts_acked"),
    columns=("flip_epoch", "takeover_epoch", "policy_applies",
             "policy_fenced", "policy_stale_rejected", "puts_acked"),
)
