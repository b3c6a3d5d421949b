"""Extension: partition-tolerant control plane under failover chaos.

The HA build of the skewed scenario (docs/GLOBALQOS.md §4): leader +
warm-standby coordinators with fail-slow quarantine armed.  Each seeded
run cuts the leader->standby link asymmetrically (the deposed leader
keeps transmitting but hears nothing), lags its dying split updates so
they lose the race to the new leader's, then turns one data node gray
for two epochs after the heal.  The bench reports the failover story
per seed — takeover epoch, fenced/stale update counts, the quarantine
cycle — and asserts the chaos harness's full invariant verdict:
bounded takeover, zero stale applications, quarantine entered and
released with a clean ledger audit, no lost acked PUT, conservation,
reservations met.
"""

from repro.cluster import chaos
from repro.globalqos.chaos import PARTITION

PERIODS = PARTITION.periods
SEEDS = PARTITION.seeds


def run():
    return [chaos.run(PARTITION, seed)[0] for seed in SEEDS]


def test_ext_failover_partition_chaos(benchmark, report):
    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    report.line("Partition + failover chaos on the HA coordinator build "
                f"({PERIODS} periods, seeds {list(SEEDS)})")
    rows = []
    for rep in reports:
        c = rep.counters
        rows.append([
            str(rep.seed),
            "PASS" if rep.ok else "FAIL",
            str(c["takeover_epoch"]),
            str(c["stepdowns"]),
            str(c["fenced_updates"]),
            str(c["stale_rejected"]),
            f"{c['quarantines']}/{c['unquarantines']}",
            str(c["tokens_shifted"]),
            str(c["puts_acked"]),
        ])
    report.table(
        ["seed", "verdict", "takeover epoch", "stepdowns", "fenced",
         "stale applied", "quar/unquar", "tokens shifted", "puts acked"],
        rows,
    )
    ok = sum(1 for rep in reports if rep.ok)
    report.line(f"{ok}/{len(reports)} seeds passed every failover "
                "invariant (bounded takeover, epoch fencing, quarantine "
                "cycle, conservation, durability)")

    for rep in reports:
        c = rep.counters
        assert rep.ok, f"seed {rep.seed}: {rep.violations}"
        # Exactly one takeover, no flap-back by the deposed leader.
        assert c["takeovers"] == 1
        assert c["stepdowns"] >= 1
        # The fencing path was actually exercised: the deposed leader's
        # laggy updates bounced off every client.
        assert c["fenced_updates"] >= 1
        assert c["stale_rejected"] == 0
        # The gray node went through the full quarantine cycle.
        assert c["quarantines"] >= 1
        assert c["unquarantines"] == c["quarantines"]
        # Durability: the drivers kept writing through all of it.
        assert c["puts_acked"] > 0
