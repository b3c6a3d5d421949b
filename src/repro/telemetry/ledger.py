"""The token-ledger audit stream: every token batch, cradle to grave.

The ledger records the life of Haechi's tokens as typed audit events —
``mint`` (monitor initializes the period pool), ``grant`` (a client's
reservation grant opens a per-client *account*), ``claim`` (a batched
FETCH_ADD takes tokens from the pool), ``convert`` (the monitor's
token-conversion overwrite), ``spend``/``expire`` (recorded in
aggregate when the account closes) — and can then *assert
conservation*: for every closed account,

    granted_reservation + sum(pool claims)
        == spent + yielded + expired(residual)

must hold exactly.  This is the client-side token identity of
:class:`~repro.core.tokens.ClientTokenState`; a nonzero balance means a
token was created or destroyed by an accounting bug (the chaos harness
runs this check across crash/failover/rejoin, where such bugs live).

Accounts are objects, not ``(client, period)`` keys: a failover can
legitimately give one client two accounts in the same period (pre- and
post-rebind), and each must balance independently.

Instrumentation cost: the engine touches the ledger only at period
boundaries and FAA completions — never per I/O — so the data hot path
is unaffected.  The fluid engine, which closes every flow's account at
the same instant, records a whole period as one :class:`AccountBlock`
of columns; ``events`` and ``closed_accounts`` render a block's records
only when read, and the audits run on the columns.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from typing import Any, Dict, Iterator, List, Optional

_FLOW_KEYS = ("granted_reservation", "granted_pool", "spent", "yielded",
              "expired")


class LedgerAccount:
    """One client's token account for one grant episode."""

    __slots__ = ("client", "period", "granted_reservation", "granted_pool",
                 "opened_at", "closed")

    def __init__(self, client, period: int, granted_reservation: int,
                 opened_at: float):
        self.client = client
        self.period = period
        self.granted_reservation = granted_reservation
        self.granted_pool = 0
        self.opened_at = opened_at
        self.closed = False


class AccountBlock:
    """One period's accounts for many clients, stored as columns.

    What the accounts share (period, open/close times, reason, the pool
    before the claims) is stored once; what differs is one integer
    column per quantity, each as long as ``clients``.  Columns are
    numpy arrays, used only through their methods and operators — this
    module does not import numpy.  A column may be the same object as
    an earlier block's (the fluid engine passes an unchanged column
    on), so no one writes to a column once it is handed over.  No
    account in a block yields.

    The records rendered from a block are the ones ``open`` /
    ``pool_claim`` / ``close`` would have logged for each client in
    turn: ``grant``, ``claim`` (only for a client that asked for or got
    pool tokens), ``spend``, ``expire``.
    """

    __slots__ = ("clients", "period", "granted_reservation", "requested",
                 "granted_pool", "spent", "residual", "prior_pool",
                 "opened_at", "closed_at", "reason")

    def __init__(self, clients, period: int, granted_reservation, requested,
                 granted_pool, spent, residual, prior_pool: int,
                 opened_at: float, closed_at: float, reason: str):
        self.clients = clients
        self.period = period
        self.granted_reservation = granted_reservation
        self.requested = requested
        self.granted_pool = granted_pool
        self.spent = spent
        self.residual = residual
        self.prior_pool = prior_pool
        self.opened_at = opened_at
        self.closed_at = closed_at
        self.reason = reason

    def balances(self):
        """Per-account ``granted - spent - expired``; all zero when the
        block conserves tokens."""
        return (self.granted_reservation + self.granted_pool
                - self.spent - self.residual)

    def totals(self) -> Dict[str, int]:
        return {
            "granted_reservation": int(self.granted_reservation.sum()),
            "granted_pool": int(self.granted_pool.sum()),
            "spent": int(self.spent.sum()),
            "yielded": 0,
            "expired": int(self.residual.sum()),
        }

    def _claimed(self):
        return (self.granted_pool != 0) | (self.requested != 0)

    def _row(self, row: int) -> "AccountBlock":
        """The one-account block of ``row``."""
        at = slice(row, row + 1)
        return AccountBlock(
            self.clients[at], self.period, self.granted_reservation[at],
            self.requested[at], self.granted_pool[at], self.spent[at],
            self.residual[at], self.prior_pool, self.opened_at,
            self.closed_at, self.reason,
        )

    # -- as closed-account records -------------------------------------
    def account_count(self) -> int:
        return len(self.clients)

    def accounts(self) -> Iterator[Dict[str, Any]]:
        rows = zip(
            self.clients, self.granted_reservation.tolist(),
            self.granted_pool.tolist(), self.spent.tolist(),
            self.residual.tolist(),
        )
        for client, granted, pool, spent, residual in rows:
            yield {
                "client": client,
                "period": self.period,
                "granted_reservation": granted,
                "granted_pool": pool,
                "spent": spent,
                "yielded": 0,
                "expired": residual,
                "balance": granted + pool - spent - residual,
                "reason": self.reason,
                "opened_at": self.opened_at,
                "closed_at": self.closed_at,
            }

    def account(self, row: int) -> Dict[str, Any]:
        return next(self._row(row).accounts())

    # -- as audit events -----------------------------------------------
    def event_count(self) -> int:
        return 3 * len(self.clients) + int(self._claimed().sum())

    def events(self) -> Iterator[Dict[str, Any]]:
        rows = zip(
            self.clients, self.granted_reservation.tolist(),
            self.requested.tolist(), self.granted_pool.tolist(),
            self.spent.tolist(), self.residual.tolist(),
        )
        period = self.period
        for client, granted, requested, pool, spent, residual in rows:
            yield {
                "event": "grant", "time": self.opened_at, "period": period,
                "client": client, "tokens": granted,
            }
            if pool or requested:
                yield {
                    "event": "claim", "time": self.closed_at,
                    "period": period, "client": client,
                    "requested": requested, "granted": pool,
                    "prior_pool": self.prior_pool,
                }
            yield {
                "event": "spend", "time": self.closed_at, "period": period,
                "client": client, "tokens": spent,
            }
            yield {
                "event": "expire", "time": self.closed_at, "period": period,
                "client": client, "yielded": 0, "residual": residual,
                "reason": self.reason,
            }

    def event(self, index: int) -> Dict[str, Any]:
        # Each account logs three events, four with a claim.
        ends = (self._claimed() + 3).cumsum()
        row = int(ends.searchsorted(index, side="right"))
        first = int(ends[row - 1]) if row else 0
        return list(self._row(row).events())[index - first]


class _Spliced(Sequence):
    """Read-only view of a record list with blocks spliced in.

    ``entries`` holds records (dicts) and :class:`AccountBlock` objects
    in log order, ``block_at`` the positions of the blocks.  The view
    is the sequence a per-account log would have been: each block
    stands for the records it renders (subclasses say which).  Take a
    fresh view after the ledger has grown.
    """

    def __init__(self, entries: list, block_at: List[int]):
        self._entries = entries
        self._block_at = block_at
        # first[j]: view index of block j's first record.  extra[j]:
        # how far view indices run ahead of entry positions once block
        # j has been passed.
        self._first: List[int] = []
        self._extra: List[int] = []
        extra = 0
        for at in block_at:
            self._first.append(at + extra)
            extra += self._count(entries[at]) - 1
            self._extra.append(extra)

    def __len__(self) -> int:
        return len(self._entries) + (self._extra[-1] if self._extra else 0)

    def __iter__(self):
        for entry in self._entries:
            if type(entry) is AccountBlock:
                yield from self._iter(entry)
            else:
                yield entry

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("ledger index out of range")
        j = bisect.bisect_right(self._first, index) - 1
        at = index - self._extra[j] if j >= 0 else index
        if j < 0 or at > self._block_at[j]:
            return self._entries[at]
        return self._at(self._entries[self._block_at[j]],
                        index - self._first[j])


class _Events(_Spliced):
    _count = staticmethod(AccountBlock.event_count)
    _iter = staticmethod(AccountBlock.events)
    _at = staticmethod(AccountBlock.event)


class _Accounts(_Spliced):
    _count = staticmethod(AccountBlock.account_count)
    _iter = staticmethod(AccountBlock.accounts)
    _at = staticmethod(AccountBlock.account)


class TokenLedger:
    """Collects audit events and closed-account balances."""

    def __init__(self) -> None:
        # Records in log order; a fluid period's accounts sit in both
        # lists as one AccountBlock (positions in the ``*_blocks``).
        self._events: list = []
        self._closed: list = []
        self._event_blocks: List[int] = []
        self._closed_blocks: List[int] = []
        self.open_account_count = 0

    @property
    def events(self) -> Sequence:
        """The audit stream, one dict per event, in log order."""
        return _Events(self._events, self._event_blocks)

    @property
    def closed_accounts(self) -> Sequence:
        """One balance record per closed account, in closing order."""
        return _Accounts(self._closed, self._closed_blocks)

    # ------------------------------------------------------------------
    # Monitor-side events
    # ------------------------------------------------------------------
    def mint(self, period: int, pool_tokens: int, total_reserved: int,
             time: float, source: Optional[str] = None) -> None:
        """The monitor initialized a period's global pool word."""
        self._events.append({
            "event": "mint", "time": time, "period": period,
            "pool": pool_tokens, "reserved": total_reserved,
            "source": source,
        })

    def convert(self, period: int, pool_before: int, pool_after: int,
                residual_sum: int, time: float,
                source: Optional[str] = None) -> None:
        """The monitor converted unused reservations into pool tokens."""
        self._events.append({
            "event": "convert", "time": time, "period": period,
            "pool_before": pool_before, "pool_after": pool_after,
            "residual_sum": residual_sum, "source": source,
        })

    def rebalance(self, epoch: int, client, aggregate: int,
                  old_splits, new_splits, time: float,
                  source: Optional[str] = None) -> None:
        """The global coordinator shifted a client's per-node splits.

        ``old_splits``/``new_splits`` are the per-node reservation
        vectors (tokens/period).  Conservation — the new vector summing
        to the client's aggregate reservation exactly — is auditable
        per epoch via :meth:`check_split_conservation`.  Coordinator-
        free runs never emit this event, so their ledger streams are
        byte-identical to the pre-coordinator ones.
        """
        self._events.append({
            "event": "rebalance", "time": time, "epoch": epoch,
            "client": client, "aggregate": aggregate,
            "old": list(old_splits), "new": list(new_splits),
            "source": source,
        })

    def policy_apply(self, epoch: int, client, version: int,
                     old_splits, new_splits, time: float,
                     term: int = 1, policy: str = "",
                     source: Optional[str] = None) -> None:
        """A consumer applied policy revision ``version`` mid-stream.

        ``old_splits``/``new_splits`` are the per-node reservation
        vectors (tokens/period) before and after the hot-swap.  Two
        invariants are auditable from the stream
        (:meth:`check_policy_audit`): revisions apply strictly
        monotonically per client, and each apply starts from the
        aggregate the previous apply left (rebalances in between move
        tokens across nodes but conserve the sum, so no tokens appear
        or vanish between revisions).  Policy-free runs never emit
        this event, so their ledger streams stay byte-identical.
        """
        self._events.append({
            "event": "policy_apply", "time": time, "epoch": epoch,
            "client": client, "version": version, "term": term,
            "old": list(old_splits), "new": list(new_splits),
            "policy": policy, "source": source,
        })

    def quarantine(self, epoch: int, node: int, score: float, time: float,
                   source: Optional[str] = None) -> None:
        """The coordinator deranked a fail-slow node in water-filling."""
        self._events.append({
            "event": "quarantine", "time": time, "epoch": epoch,
            "node": node, "score": score, "source": source,
        })

    def unquarantine(self, epoch: int, node: int, score: float, time: float,
                     source: Optional[str] = None) -> None:
        """The coordinator re-admitted a previously quarantined node."""
        self._events.append({
            "event": "unquarantine", "time": time, "epoch": epoch,
            "node": node, "score": score, "source": source,
        })

    # ------------------------------------------------------------------
    # Client-side account lifecycle
    # ------------------------------------------------------------------
    def open(self, client, period: int, granted: int,
             time: float) -> LedgerAccount:
        """A reservation grant landed at a client: open its account."""
        account = LedgerAccount(client, period, granted, time)
        self.open_account_count += 1
        self._events.append({
            "event": "grant", "time": time, "period": period,
            "client": client, "tokens": granted,
        })
        return account

    def pool_claim(self, account: LedgerAccount, requested: int, granted: int,
                   prior_pool: int, time: float) -> None:
        """A batched FAA granted ``granted`` of ``requested`` tokens."""
        account.granted_pool += granted
        self._events.append({
            "event": "claim", "time": time, "period": account.period,
            "client": account.client, "requested": requested,
            "granted": granted, "prior_pool": prior_pool,
        })

    def close(self, account: LedgerAccount, spent: int, yielded: int,
              residual: int, reason: str, time: float) -> None:
        """Close the account: record aggregate spend and expiry.

        ``residual`` is what the client still held when the episode
        ended (unspent reservation + unspent batched global tokens) —
        those tokens expire with the episode.
        """
        if account.closed:
            return
        account.closed = True
        self.open_account_count -= 1
        balance = (account.granted_reservation + account.granted_pool
                   - spent - yielded - residual)
        self._events.append({
            "event": "spend", "time": time, "period": account.period,
            "client": account.client, "tokens": spent,
        })
        self._events.append({
            "event": "expire", "time": time, "period": account.period,
            "client": account.client, "yielded": yielded,
            "residual": residual, "reason": reason,
        })
        self._closed.append({
            "client": account.client,
            "period": account.period,
            "granted_reservation": account.granted_reservation,
            "granted_pool": account.granted_pool,
            "spent": spent,
            "yielded": yielded,
            "expired": residual,
            "balance": balance,
            "reason": reason,
            "opened_at": account.opened_at,
            "closed_at": time,
        })

    def close_block(self, clients, period: int, *, granted_reservation,
                    requested, granted_pool, spent, residual,
                    prior_pool: int, opened_at: float, closed_at: float,
                    reason: str) -> None:
        """Open, claim for and close one account per client at once.

        Equivalent to ``open`` / ``pool_claim`` / ``close`` for each
        client in turn with these columns' values (see
        :class:`AccountBlock`), at the cost of one append.  The columns
        are kept, not copied: the caller must not modify them after.
        """
        block = AccountBlock(
            clients, period, granted_reservation, requested, granted_pool,
            spent, residual, prior_pool, opened_at, closed_at, reason,
        )
        self._event_blocks.append(len(self._events))
        self._events.append(block)
        self._closed_blocks.append(len(self._closed))
        self._closed.append(block)

    def blocks(self) -> List[AccountBlock]:
        """The :class:`AccountBlock` entries, in log order."""
        return [self._closed[at] for at in self._closed_blocks]

    # ------------------------------------------------------------------
    def check_conservation(self) -> List[str]:
        """Human-readable violations; empty means every account balanced."""
        violations = []
        for entry in self._closed:
            if type(entry) is AccountBlock:
                # Audit the columns; render only what does not balance.
                unbalanced = map(
                    entry.account, entry.balances().nonzero()[0].tolist()
                )
            else:
                unbalanced = (entry,) if entry["balance"] else ()
            for rec in unbalanced:
                violations.append(
                    f"client {rec['client']} period {rec['period']} "
                    f"({rec['reason']}): granted "
                    f"{rec['granted_reservation']}+{rec['granted_pool']} != "
                    f"spent {rec['spent']} + yielded {rec['yielded']} + "
                    f"expired {rec['expired']} "
                    f"(balance {rec['balance']:+d})"
                )
        if self.open_account_count > 0:
            violations.append(
                f"{self.open_account_count} account(s) never closed "
                "(missing ledger flush)"
            )
        return violations

    def check_split_conservation(self) -> List[str]:
        """Audit every rebalance event: splits must sum to the aggregate.

        The coordinator's invariant — moving a reservation between
        nodes never creates or destroys a token — checked per shift
        (and hence per epoch).  Empty means every recorded split
        conserved its client's aggregate exactly.
        """
        violations = []
        for event in self.events:
            if event.get("event") != "rebalance":
                continue
            total = sum(event["new"])
            if total != event["aggregate"]:
                violations.append(
                    f"client {event['client']} epoch {event['epoch']}: "
                    f"splits {event['new']} sum to {total}, aggregate "
                    f"reservation is {event['aggregate']}"
                )
        return violations

    def check_policy_audit(self) -> List[str]:
        """Audit the policy stream: monotone revisions, continuous state.

        Per client, applied revisions must be strictly increasing (a
        stale revision applying is exactly the hot-swap bug the
        fencing exists to prevent) and each apply's ``old`` vector
        must sum to what the previous apply's ``new`` summed to —
        rebalances in between legitimately reshape the vector but
        conserve its sum, so a sum mismatch means reservation tokens
        appeared or vanished between revisions without an audited
        event.
        """
        violations = []
        last: Dict[Any, Dict[str, Any]] = {}
        for event in self.events:
            if event.get("event") != "policy_apply":
                continue
            client = event["client"]
            prev = last.get(client)
            if prev is not None:
                if event["version"] <= prev["version"]:
                    violations.append(
                        f"client {client} epoch {event['epoch']}: policy "
                        f"revision {event['version']} applied after "
                        f"{prev['version']} (non-monotonic)"
                    )
                if sum(event["old"]) != sum(prev["new"]):
                    violations.append(
                        f"client {client} epoch {event['epoch']}: policy "
                        f"apply starts from {sum(event['old'])} tokens "
                        f"but the previous apply left {sum(prev['new'])}"
                    )
            last[client] = event
        return violations

    def check_quarantine_audit(self) -> List[str]:
        """Audit the quarantine stream: well-paired enter/leave events.

        A node must not be quarantined twice without an intervening
        un-quarantine, and never un-quarantined while healthy — the
        derank decision is stateful, so a mispaired stream means the
        coordinator's quarantine set and the ledger disagreed.
        """
        violations = []
        quarantined = set()
        for event in self.events:
            kind = event.get("event")
            if kind == "quarantine":
                if event["node"] in quarantined:
                    violations.append(
                        f"node {event['node']} epoch {event['epoch']}: "
                        "quarantined while already quarantined"
                    )
                quarantined.add(event["node"])
            elif kind == "unquarantine":
                if event["node"] not in quarantined:
                    violations.append(
                        f"node {event['node']} epoch {event['epoch']}: "
                        "un-quarantined while not quarantined"
                    )
                quarantined.discard(event["node"])
        return violations

    def totals(self) -> Dict[str, int]:
        """Aggregate token flow over all closed accounts."""
        out = {k: 0 for k in _FLOW_KEYS}
        for entry in self._closed:
            if type(entry) is AccountBlock:
                entry = entry.totals()
            for k in _FLOW_KEYS:
                out[k] += entry[k]
        out["accounts"] = len(self.closed_accounts)
        return out

    def totals_by(self, group_of) -> Dict[str, Dict[str, int]]:
        """Per-group aggregate token flow over the closed accounts.

        ``group_of`` maps an account's client key to a group name —
        tenant, flow class, whatever the caller rolls up by; accounts
        it maps to ``None`` are skipped.  Exactness carries over: each
        group's flows are sums of exactly-balanced accounts, so the
        tenancy facade's per-tenant ledger view needs no re-audit.
        """
        out: Dict[str, Dict[str, int]] = {}
        for rec in self.closed_accounts:
            group = group_of(rec["client"])
            if group is None:
                continue
            entry = out.setdefault(group, {k: 0 for k in _FLOW_KEYS})
            for k in _FLOW_KEYS:
                entry[k] += rec[k]
            entry["accounts"] = entry.get("accounts", 0) + 1
        return out
