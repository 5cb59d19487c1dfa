"""Transaction objects shared by the centralized engines.

A :class:`Transaction` carries the read-set, write-set and status of
Algorithm 1, plus a free-form :attr:`Transaction.state` namespace where the
active policy keeps its per-transaction variables (``PrefTS``, ``PossTS``,
``TS`` intervals, priority flags, ...).
"""

from __future__ import annotations

import enum
from types import SimpleNamespace
from typing import Any, Hashable

from .timestamp import Timestamp

__all__ = ["TxStatus", "Transaction"]


class TxStatus(enum.Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One client transaction (Algorithm 1 state).

    Attributes
    ----------
    id:
        Globally unique transaction identifier; also the lock owner id.
    pid:
        Id of the issuing process; appended to clock values to build unique
        timestamps (§4.1).
    readset:
        ``[(key, tr)]`` — keys read and the timestamp of the version
        observed, in order.  Needed both for commit (which timestamps must
        be locked) and GC (which read-locks to freeze).
    writeset:
        ``{key: value}`` — deferred writes, exposed only at commit.
    commit_ts:
        Serialization timestamp once committed, else None.
    collected:
        Whether the engine has garbage-collected the transaction's locks
        (Algorithm 1 ``gc``, at commit or later); it is collected once.
    state:
        Policy-private namespace.
    """

    __slots__ = ("id", "pid", "readset", "writeset", "status", "commit_ts",
                 "abort_reason", "state", "priority", "collected")

    def __init__(self, tx_id: Hashable, pid: int = 0,
                 priority: bool = False) -> None:
        self.id = tx_id
        self.pid = pid
        self.priority = priority
        self.readset: list[tuple[Hashable, Timestamp]] = []
        self.writeset: dict[Hashable, Any] = {}
        self.status = TxStatus.ACTIVE
        self.commit_ts: Timestamp | None = None
        self.abort_reason: str | None = None
        self.collected = False
        self.state = SimpleNamespace()

    # -- convenience ---------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.status is TxStatus.ACTIVE

    @property
    def committed(self) -> bool:
        return self.status is TxStatus.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.status is TxStatus.ABORTED

    def read_keys(self) -> list[Hashable]:
        seen: dict[Hashable, None] = {}
        for key, _tr in self.readset:
            seen.setdefault(key, None)
        return list(seen)

    def __repr__(self) -> str:
        return (f"<Transaction {self.id!r} {self.status.value}"
                f"{' prio' if self.priority else ''}>")
