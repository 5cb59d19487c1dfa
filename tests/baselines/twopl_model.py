"""Standalone strict 2PL: the reference model of the Theorem 6 lockstep suite.

The lock-based comparator of §8: one readers-writer lock per key, acquired at
access time and held until the end of the transaction (strict 2PL), with a
wait **timeout** standing in for deadlock handling, exactly as in the paper's
prototype ("The commit rate for 2PL is not optimal because we use timeouts:
if a transaction makes no progress after a given time, we abort it").

The store is single-version; each key remembers the commit timestamp of its
last writer so histories feed the same MVSG checker as everything else.
Commit timestamps come from a shared logical counter drawn while all locks
are held, which makes them consistent with the serialization order strict
2PL enforces.  ``test_thm6_lockstep.py`` drives it and
``MVTLEngine(MVTLPessimistic())`` through the same schedules.
"""

from __future__ import annotations

import threading
import time
from itertools import count
from typing import Any, Hashable

from repro.core.exceptions import (AbortReason, TransactionAborted,
                                   TransactionStateError)
from repro.core.timestamp import BOTTOM, TS_ZERO, Timestamp
from repro.core.transaction import Transaction, TxStatus

__all__ = ["TwoPLEngine"]


class _RWLock:
    """A readers-writer lock record (no fairness; waiters poll a condition)."""

    __slots__ = ("readers", "writer")

    def __init__(self) -> None:
        self.readers: set[Hashable] = set()
        self.writer: Hashable | None = None

    def can_read(self, tx_id: Hashable) -> bool:
        return self.writer is None or self.writer == tx_id

    def can_write(self, tx_id: Hashable) -> bool:
        writer_ok = self.writer is None or self.writer == tx_id
        readers_ok = not (self.readers - {tx_id})
        return writer_ok and readers_ok


class TwoPLEngine:
    """Thread-safe centralized strict-2PL engine (MVTLEngine interface)."""

    name = "2pl"

    def __init__(self, *, lock_timeout: float = 0.5,
                 history: Any | None = None) -> None:
        self.lock_timeout = lock_timeout
        self.history = history
        self._cond = threading.Condition()
        self._locks: dict[Hashable, _RWLock] = {}
        self._values: dict[Hashable, tuple[Any, Timestamp]] = {}
        self._tx_counter = count(1)
        self._commit_counter = count(1)
        self.stats = {"commits": 0, "aborts": 0, "deadlocks": 0,
                      "lock_timeouts": 0}

    # -- transaction interface --------------------------------------------------

    def begin(self, pid: int = 0, priority: bool = False) -> Transaction:
        tx = Transaction(next(self._tx_counter), pid=pid, priority=priority)
        tx.state.held_keys = set()
        if self.history is not None:
            self.history.record_begin(tx.id)
        return tx

    def read(self, tx: Transaction, key: Hashable) -> Any:
        self._check_active(tx)
        if key in tx.writeset:
            return tx.writeset[key]
        if not self._acquire(tx, key, write=False):
            self._do_abort(tx, AbortReason.LOCK_TIMEOUT)
            raise TransactionAborted(tx.id, AbortReason.LOCK_TIMEOUT)
        value, version_ts = self._values.get(key, (BOTTOM, TS_ZERO))
        tx.readset.append((key, version_ts))
        if self.history is not None:
            self.history.record_read(tx.id, key, version_ts)
        return value

    def write(self, tx: Transaction, key: Hashable, value: Any) -> None:
        self._check_active(tx)
        if not self._acquire(tx, key, write=True):
            self._do_abort(tx, AbortReason.LOCK_TIMEOUT)
            raise TransactionAborted(tx.id, AbortReason.LOCK_TIMEOUT)
        tx.writeset[key] = value

    def commit(self, tx: Transaction) -> bool:
        self._check_active(tx)
        with self._cond:
            commit_ts = Timestamp(float(next(self._commit_counter)), 0)
            for key, value in tx.writeset.items():
                self._values[key] = (value, commit_ts)
            tx.commit_ts = commit_ts
            tx.status = TxStatus.COMMITTED
            self.stats["commits"] += 1
            if self.history is not None:
                self.history.record_commit(tx.id, commit_ts,
                                           tuple(tx.writeset))
            self._release_all(tx)
            self._cond.notify_all()
        return True

    def abort(self, tx: Transaction,
              reason: str = AbortReason.USER_ABORT) -> None:
        self._check_active(tx)
        self._do_abort(tx, reason)

    # -- internals -------------------------------------------------------------

    def _acquire(self, tx: Transaction, key: Hashable, write: bool) -> bool:
        deadline = time.monotonic() + self.lock_timeout
        with self._cond:
            lock = self._locks.setdefault(key, _RWLock())
            while True:
                if write:
                    if lock.can_write(tx.id):
                        lock.readers.discard(tx.id)
                        lock.writer = tx.id
                        tx.state.held_keys.add(key)
                        return True
                else:
                    if lock.can_read(tx.id):
                        if lock.writer != tx.id:
                            lock.readers.add(tx.id)
                        tx.state.held_keys.add(key)
                        return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stats["lock_timeouts"] += 1
                    return False
                self._cond.wait(timeout=min(remaining, 0.05))

    def _release_all(self, tx: Transaction) -> None:
        for key in tx.state.held_keys:
            lock = self._locks.get(key)
            if lock is None:
                continue
            lock.readers.discard(tx.id)
            if lock.writer == tx.id:
                lock.writer = None
        tx.state.held_keys.clear()

    def _do_abort(self, tx: Transaction, reason: str) -> None:
        with self._cond:
            tx.status = TxStatus.ABORTED
            tx.abort_reason = AbortReason.of(reason)
            self.stats["aborts"] += 1
            if self.history is not None:
                self.history.record_abort(tx.id, reason)
            self._release_all(tx)
            self._cond.notify_all()

    def _check_active(self, tx: Transaction) -> None:
        if not tx.is_active:
            raise TransactionStateError(
                f"operation on finished transaction {tx!r}")

    # -- metrics -----------------------------------------------------------------

    def version_count(self) -> int:
        with self._cond:
            return len(self._values)

    def lock_record_count(self) -> int:
        with self._cond:
            return sum(len(l.readers) + (1 if l.writer else 0)
                       for l in self._locks.values())
