"""MVTL-Prio: the prioritizer algorithm (Alg. 6, §5.2).

Multiversion timestamp ordering has no way to shield critical transactions
from aborts.  MVTL can, simply by giving critical transactions more locks:

* **normal** transactions behave as in MVTO+ (one clock timestamp, read
  locks up to it, commit-time point write locks, no waiting at commit);
* **critical** transactions behave like pessimistic concurrency control —
  writes lock everything, reads lock ``(tr, +inf]`` — waiting on unfrozen
  locks, and commit at the lowest common locked timestamp.

Theorem 3: a critical transaction is never aborted by normal transactions
(normals only ever lock up to their own clock timestamps, so the interval
``(max normal ts, +inf]`` is always available to a critical transaction).
Critical transactions can still deadlock *with each other*; the engine's
wait-for-graph detection picks a victim.

Note on GC: the pseudo-code (Alg. 6) garbage-collects only critical
transactions, but §5.2's prose says "Both types of transactions garbage
collect on commit".  We follow the prose — without it, ended normal
transactions would leave unfrozen read locks that block critical writers
forever, contradicting the intended liveness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..core.intervals import FULL_INTERVAL, IntervalSet, TsInterval
from ..core.locks import LockMode
from ..core.timestamp import TS_INF, Timestamp
from ..core.transaction import Transaction
from ..core.versions import Version
from .registry import CRITICAL_DELTA_FACTOR
from .to import MVTLTimestampOrdering

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import MVTLEngine

__all__ = ["MVTLPrioritizer", "CRITICAL_DELTA_FACTOR"]


class MVTLPrioritizer(MVTLTimestampOrdering):
    """The MVTL-Prio policy (Theorem 3).

    Transactions started with ``engine.begin(priority=True)`` are critical.
    """

    name = "mvtl-prio"

    def on_begin(self, engine: "MVTLEngine", tx: Transaction) -> None:
        if not tx.priority:
            super().on_begin(engine, tx)

    def write_locks(self, engine: "MVTLEngine", tx: Transaction,
                    key: Hashable) -> None:
        if not tx.priority:
            return
        engine.acquire(tx, key, LockMode.WRITE, FULL_INTERVAL,
                       wait=True, stop_on_frozen=False)

    def read_locks(self, engine: "MVTLEngine", tx: Transaction,
                   key: Hashable) -> Version | None:
        upper = TS_INF if tx.priority else tx.state.ts
        got = self.read_lock_interval(engine, tx, key, upper)
        if got is None:
            return None
        version, _locked = got
        return version

    def commit_locks(self, engine: "MVTLEngine", tx: Transaction) -> None:
        if tx.priority:
            return  # critical transactions locked everything up front
        super().commit_locks(engine, tx)

    def commit_ts(self, engine: "MVTLEngine", tx: Transaction,
                  candidates: IntervalSet) -> Timestamp | None:
        if tx.priority:
            return candidates.pick_low() if candidates else None
        return super().commit_ts(engine, tx, candidates)

    def commit_gc(self, engine: "MVTLEngine", tx: Transaction) -> bool:
        return True  # both kinds collect on completion (see module note)
