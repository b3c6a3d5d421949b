"""Block-stored accounts read exactly like per-account ones, and are
audited from their columns, not trusted."""

import numpy as np
import pytest

from repro.telemetry.exporters import ledger_jsonl
from repro.telemetry.ledger import TokenLedger

CLIENTS = ["T1/g1", "T1/g2", "T2/g1", "T2/g2", "T3/g1"]
#: (granted_reservation, requested, granted_pool, spent, residual) per
#: client per period; row 1 neither asks for nor gets pool tokens, so it
#: logs no ``claim`` event, and row 3 asks and gets nothing.
PERIODS = {
    1: [(400, 90, 60, 460, 0), (300, 0, 0, 120, 180), (500, 10, 10, 510, 0),
        (200, 35, 0, 200, 0), (100, 7, 7, 57, 50)],
    2: [(400, 0, 0, 400, 0), (300, 20, 20, 320, 0), (500, 0, 0, 0, 500),
        (200, 0, 0, 150, 50), (100, 1, 1, 101, 0)],
}


COLUMNS = ("granted_reservation", "requested", "granted_pool", "spent",
           "residual")


def _by_account(ledger, period, rows, pool, w0, w1):
    """A period as ``open`` / ``pool_claim`` / ``close`` write it."""
    for client, row in zip(CLIENTS, rows):
        granted, requested, claimed, spent, residual = row
        account = ledger.open(client, period, granted, w0)
        if claimed or requested:
            ledger.pool_claim(account, requested=requested, granted=claimed,
                              prior_pool=pool, time=w1)
        ledger.close(account, spent=spent, yielded=0, residual=residual,
                     reason="fluid-period", time=w1)


def _by_block(ledger, period, rows, pool, w0, w1):
    """The same period as one ``close_block``; returns the columns,
    which the ledger keeps by reference."""
    columns = {
        name: np.array(col, dtype=np.int64)
        for name, col in zip(COLUMNS, zip(*rows))
    }
    ledger.close_block(CLIENTS, period, prior_pool=pool, opened_at=w0,
                       closed_at=w1, reason="fluid-period", **columns)
    return columns


def _single(ledger, period):
    """A DES-style account, logged one call at a time."""
    account = ledger.open("C9", period, 50, 0.0)
    ledger.close(account, spent=40, yielded=3, residual=7,
                 reason="period-end", time=0.5)


def _log(write_period, periods=PERIODS, singles=False):
    ledger = TokenLedger()
    written = {}
    if singles:
        _single(ledger, 0)
    for period, rows in periods.items():
        w0, w1 = float(period - 1), float(period)
        ledger.mint(period, 1_000 + period, 1_500, w0, source="fluid")
        written[period] = write_period(
            ledger, period, rows, 1_000 + period, w0, w1
        )
        if singles:
            _single(ledger, period)
    ledger.rebalance(3, "T1/g1", 10, [5, 5], [4, 6], 2.0)
    return ledger, written


def _assert_reads_alike(got, want):
    for name in ("events", "closed_accounts"):
        want_seq = list(getattr(want, name))
        got_seq = getattr(got, name)
        assert len(got_seq) == len(want_seq)
        assert list(got_seq) == want_seq
        assert [got_seq[i] for i in range(len(want_seq))] == want_seq
        assert [got_seq[-i - 1] for i in range(len(want_seq))] \
            == want_seq[::-1]
        assert got_seq[3:17:2] == want_seq[3:17:2]
        with pytest.raises(IndexError):
            got_seq[len(want_seq)]
    assert got.totals() == want.totals()
    assert ledger_jsonl(got) == ledger_jsonl(want)


def test_events_and_accounts_read_like_the_per_account_log():
    want, _ = _log(_by_account)
    got, _ = _log(_by_block)
    _assert_reads_alike(got, want)
    # mint -> block -> mint -> block -> rebalance.
    kinds = [e["event"] for e in got.events]
    assert kinds[0] == "mint" and kinds[-1] == "rebalance"
    assert kinds.count("mint") == 2
    assert kinds.count("grant") == kinds.count("spend") == 10
    assert kinds.count("claim") == 6
    assert kinds[1:5] == ["grant", "claim", "spend", "expire"]
    assert kinds[5:8] == ["grant", "spend", "expire"]


def test_blocks_and_single_accounts_interleave():
    want, _ = _log(_by_account, singles=True)
    got, _ = _log(_by_block, singles=True)
    _assert_reads_alike(got, want)
    assert got.totals()["accounts"] == 13
    assert [rec["client"] for rec in got.closed_accounts][::6] \
        == ["C9", "C9", "C9"]


def test_totals_audits_and_export_match():
    want, _ = _log(_by_account)
    got, _ = _log(_by_block)
    assert got.check_conservation() == want.check_conservation() == []
    assert got.totals() == want.totals()

    def tenant(client):
        return None if client == "T3/g1" else client[:2]

    assert got.totals_by(tenant) == want.totals_by(tenant)
    assert list(got.totals_by(tenant)) == ["T1", "T2"]
    assert got.check_split_conservation() == want.check_split_conservation()
    assert got.open_account_count == 0


def test_rendered_records_hold_builtin_numbers():
    got, _ = _log(_by_block)
    for record in list(got.events) + list(got.closed_accounts):
        for key, value in record.items():
            assert value is None or type(value) in (int, float, str, list), (
                f"{key}: {type(value).__name__}"
            )
    assert all(type(v) is int for v in got.totals().values())


@pytest.mark.parametrize("column", ["spent", "residual", "granted_pool",
                                    "granted_reservation"])
def test_a_corrupt_column_entry_is_named(column):
    got, columns = _log(_by_block)
    columns[2][column][3] += 1
    violations = got.check_conservation()
    assert len(violations) == 1
    assert violations[0].startswith("client T2/g2 period 2 (fluid-period):")
    sign = "+" if column.startswith("granted") else "-"
    assert violations[0].endswith(f"(balance {sign}1)")


def test_the_violation_message_is_the_per_account_one():
    bumped = {1: PERIODS[1][:4] + [(100, 7, 7, 58, 50)], 2: PERIODS[2]}
    want, _ = _log(_by_account, periods=bumped)
    got, columns = _log(_by_block)
    columns[1]["spent"][4] += 1
    assert got.check_conservation() == want.check_conservation()
    assert got.check_conservation() == [
        "client T3/g1 period 1 (fluid-period): granted 100+7 != "
        "spent 58 + yielded 0 + expired 50 (balance -1)"
    ]
