"""Standalone MVTO+: the reference model of the Theorem 5 lockstep suite.

MVTO+ (§3) is classic multiversion timestamp ordering [5] improved to avoid
cascading aborts by never exposing uncommitted data.  It is implemented here
*independently* of the MVTL machinery — with per-version read-timestamps, the
way real systems build it — so it can serve as the cross-check for
Theorem 5 (MVTL-TO behaves as MVTO+): ``test_thm5_lockstep.py`` drives it
and ``MVTLEngine(MVTLTimestampOrdering())`` through the same schedules.

Protocol, for a transaction with begin timestamp ``ts``:

* **read k** — return the committed version of ``k`` with the largest
  timestamp below ``ts``; raise that version's read-timestamp to ``ts``.
  Reads never abort (unless the version was purged).
* **write k** — buffer locally.
* **commit** — for every written key, let ``v`` be the version that a read
  at ``ts`` would observe; if ``v.read_ts > ts``, some transaction already
  read past our write point: **abort**.  Otherwise install all writes at
  ``ts``.

Read-timestamps are never rolled back on abort — the conservative choice the
paper highlights (§3) as the root of MVTO+'s *ghost aborts*; with skewed
clocks it also exhibits *serial aborts* (§5.3).  Both pathologies are
demonstrated in the tests.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import count
from typing import Any, Hashable

from repro.clocks.clock import Clock, LogicalClock
from repro.core.exceptions import (AbortReason, TransactionAborted,
                                   TransactionStateError)
from repro.core.timestamp import BOTTOM, TS_ZERO, Timestamp
from repro.core.transaction import Transaction, TxStatus

__all__ = ["MVTOEngine"]


class _MVTOVersion:
    __slots__ = ("ts", "value", "read_ts")

    def __init__(self, ts: Timestamp, value: Any) -> None:
        self.ts = ts
        self.value = value
        self.read_ts: Timestamp = ts  # largest timestamp that read us


class _MVTOKey:
    """Version chain with read-timestamps, ordered by version timestamp."""

    __slots__ = ("timestamps", "versions")

    def __init__(self) -> None:
        init = _MVTOVersion(TS_ZERO, BOTTOM)
        self.timestamps: list[Timestamp] = [TS_ZERO]
        self.versions: list[_MVTOVersion] = [init]

    def floor_before(self, ts: Timestamp) -> _MVTOVersion | None:
        idx = bisect_left(self.timestamps, ts)
        if idx == 0:
            return None
        return self.versions[idx - 1]

    def install(self, ts: Timestamp, value: Any) -> None:
        idx = bisect_left(self.timestamps, ts)
        self.timestamps.insert(idx, ts)
        self.versions.insert(idx, _MVTOVersion(ts, value))

    def purge_before(self, bound: Timestamp) -> int:
        idx = bisect_left(self.timestamps, bound)
        drop = max(0, idx - 1)
        if drop:
            del self.timestamps[:drop]
            del self.versions[:drop]
        return drop

    def __len__(self) -> int:
        return len(self.timestamps)


class MVTOEngine:
    """Thread-safe centralized MVTO+ engine (same interface as MVTLEngine)."""

    name = "mvto+"

    def __init__(self, clock: Clock | None = None, *,
                 clock_for_pid: Any | None = None,
                 history: Any | None = None) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self._clock_for_pid = clock_for_pid
        self.history = history
        self._lock = threading.Lock()
        self._keys: dict[Hashable, _MVTOKey] = {}
        self._purge_floor: dict[Hashable, Timestamp] = {}
        self._tx_counter = count(1)
        self.stats = {"commits": 0, "aborts": 0, "deadlocks": 0,
                      "lock_timeouts": 0}

    # -- transaction interface --------------------------------------------------

    def begin(self, pid: int = 0, priority: bool = False) -> Transaction:
        tx = Transaction(next(self._tx_counter), pid=pid, priority=priority)
        now = (self._clock_for_pid(pid).now() if self._clock_for_pid
               else self.clock.now())
        tx.state.ts = Timestamp(now, pid)
        if self.history is not None:
            self.history.record_begin(tx.id)
        return tx

    def read(self, tx: Transaction, key: Hashable) -> Any:
        self._check_active(tx)
        if key in tx.writeset:
            return tx.writeset[key]
        ts: Timestamp = tx.state.ts
        with self._lock:
            floor = self._purge_floor.get(key)
            if floor is not None and ts <= floor:
                self._abort_locked(tx, AbortReason.PURGED_VERSION)
                raise TransactionAborted(tx.id, AbortReason.PURGED_VERSION)
            version = self._chain(key).floor_before(ts)
            if version is None:
                self._abort_locked(tx, AbortReason.PURGED_VERSION)
                raise TransactionAborted(tx.id, AbortReason.PURGED_VERSION)
            if ts > version.read_ts:
                version.read_ts = ts
            tx.readset.append((key, version.ts))
            if self.history is not None:
                self.history.record_read(tx.id, key, version.ts)
            return version.value

    def write(self, tx: Transaction, key: Hashable, value: Any) -> None:
        self._check_active(tx)
        tx.writeset[key] = value

    def commit(self, tx: Transaction) -> bool:
        self._check_active(tx)
        ts: Timestamp = tx.state.ts
        with self._lock:
            for key in tx.writeset:
                version = self._chain(key).floor_before(ts)
                if version is None:
                    self._abort_locked(tx, AbortReason.PURGED_VERSION)
                    return False
                if version.read_ts > ts:
                    # Someone read the predecessor version at a timestamp
                    # above our write point: installing would invalidate
                    # that read.
                    self._abort_locked(tx, AbortReason.READ_TIMESTAMP_CONFLICT)
                    return False
            for key, value in tx.writeset.items():
                self._chain(key).install(ts, value)
            tx.commit_ts = ts
            tx.status = TxStatus.COMMITTED
            self.stats["commits"] += 1
            if self.history is not None:
                self.history.record_commit(tx.id, ts, tuple(tx.writeset))
        return True

    def abort(self, tx: Transaction,
              reason: str = AbortReason.USER_ABORT) -> None:
        self._check_active(tx)
        with self._lock:
            self._abort_locked(tx, reason)

    # -- maintenance --------------------------------------------------------------

    def purge_before(self, bound: Timestamp) -> int:
        """Purge versions older than ``bound`` (keeping the newest below)."""
        dropped = 0
        with self._lock:
            for key, chain in self._keys.items():
                n = chain.purge_before(bound)
                if n:
                    dropped += n
                    prev = self._purge_floor.get(key)
                    if prev is None or prev < bound:
                        self._purge_floor[key] = bound
        return dropped

    def version_count(self) -> int:
        with self._lock:
            return sum(len(c) for c in self._keys.values())

    def lock_record_count(self) -> int:
        """Read-timestamps stand in for lock state; one per version."""
        return self.version_count()

    # -- internals -------------------------------------------------------------

    def _chain(self, key: Hashable) -> _MVTOKey:
        chain = self._keys.get(key)
        if chain is None:
            chain = self._keys[key] = _MVTOKey()
        return chain

    def _check_active(self, tx: Transaction) -> None:
        if not tx.is_active:
            raise TransactionStateError(
                f"operation on finished transaction {tx!r}")

    def _abort_locked(self, tx: Transaction, reason: str) -> None:
        tx.status = TxStatus.ABORTED
        tx.abort_reason = AbortReason.of(reason)
        self.stats["aborts"] += 1
        if self.history is not None:
            self.history.record_abort(tx.id, reason)
