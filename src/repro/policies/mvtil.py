"""MVTIL: the interval-locking variant evaluated in §8.

MVTIL is the epsilon-clock algorithm adapted to clients *without*
synchronized clocks: a transaction takes ``t`` from its local clock and works
with the interval ``I = [t, t + delta]`` (the paper uses delta = 5 ms).  When
accessing a key it tries to lock the timestamps in ``I``; if only a
sub-interval can be locked, ``I`` shrinks to that sub-interval — instead of
waiting — reducing locking work on subsequent keys.  A transaction that
observes ``I`` becoming empty knows it cannot commit and aborts immediately
(the closed-loop runner may then restart it with an adjusted interval,
§8.1).

Two variants differ only in the commit timestamp picked from the common
locked set (§8): **MVTIL-early** takes the smallest, **MVTIL-late** the
largest.  Early frees the higher timestamps for successors (serial-friendly,
like epsilon-clock); late maximizes room below for stragglers' reads.

This module is the centralized policy; :mod:`repro.dist` implements the same
protocol client/server over the simulated network for the benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..core.intervals import IntervalSet, TsInterval
from ..core.locks import LockMode
from ..core.policy import MVTLPolicy
from ..core.timestamp import Timestamp
from ..core.transaction import Transaction
from ..core.versions import Version

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import MVTLEngine

__all__ = ["MVTIL"]


class MVTIL(MVTLPolicy):
    """The MVTIL policy (§8): interval locking with shrink-don't-wait.

    Parameters
    ----------
    delta:
        Width of the per-transaction timestamp interval (paper: 5 ms).
    late:
        Pick the largest common timestamp at commit (MVTIL-late) instead of
        the smallest (MVTIL-early).
    gc_on_commit:
        Whether to garbage-collect locks when a transaction commits
        (freeze the read prefix up to the commit timestamp, release every
        other unfrozen lock).  Default True — without it a committed
        transaction's residual write locks across its interval would block
        every successor.  The *frozen* state left behind still grows
        without bound; purging that is the job of the periodic timestamp
        service (Fig. 6's MVTIL vs MVTIL-GC).  Aborted transactions always
        release their locks.
    """

    def __init__(self, delta: float = 0.005, late: bool = False,
                 gc_on_commit: bool = True) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.late = late
        self.gc_on_commit = gc_on_commit
        self.name = "mvtil-late" if late else "mvtil-early"

    def on_begin(self, engine: "MVTLEngine", tx: Transaction) -> None:
        now = engine.now(tx)
        interval = TsInterval.closed(Timestamp(now, tx.pid),
                                     Timestamp(now + self.delta, tx.pid))
        tx.state.interval = IntervalSet.from_interval(interval)

    def write_locks(self, engine: "MVTLEngine", tx: Transaction,
                    key: Hashable) -> None:
        interval: IntervalSet = tx.state.interval
        if interval.is_empty:
            return  # doomed; commit aborts, runner may restart
        # One probe under the key's stripe, no waiting.  I <- I ∩ grant:
        # the sub-interval actually write-locked for this key.  The grant
        # is I minus other owners' holds, so the intersection is the grant.
        tx.state.interval = engine.try_acquire(
            tx, key, LockMode.WRITE, interval).acquired

    def read_locks(self, engine: "MVTLEngine", tx: Transaction,
                   key: Hashable) -> Version | None:
        interval: IntervalSet = tx.state.interval
        if interval.is_empty:
            return None
        # One pass under the key's stripe: the version below the top of I
        # and the contiguous read lock just above it.
        got = engine.read_prefix(tx, key, interval.pick_high())
        if got is None:
            return None  # purged (§6)
        version, prefix = got
        # I <- the part of I the read protects; empty when a write lock
        # sits directly above the version.
        new_interval = interval.intersect(prefix)
        tx.state.interval = new_interval
        if new_interval.is_empty:
            return None  # I is empty: the transaction cannot commit
        return version

    def commit_locks(self, engine: "MVTLEngine", tx: Transaction) -> None:
        return

    def commit_ts(self, engine: "MVTLEngine", tx: Transaction,
                  candidates: IntervalSet) -> Timestamp | None:
        viable = candidates.intersect(tx.state.interval)
        if viable.is_empty:
            return None
        return viable.pick_high() if self.late else viable.pick_low()

    def commit_gc(self, engine: "MVTLEngine", tx: Transaction) -> bool:
        return True if tx.aborted else self.gc_on_commit
