"""Reference model for the engine lockstep differential suite.

The threaded engine's transaction path as it stood before each step took
its stripes once and visited each key's lock state once:

* the MVTIL read is ``MVTLPolicy.read_lock_interval``'s retry loop — the
  version lookup, the frozen-write query and the acquire each take the
  key's stripe — followed by MVTIL's own prefix selection, which releases
  whatever the non-waiting acquire granted beyond the piece adjacent to
  the version;
* the MVTIL write is a non-waiting ``acquire`` followed by a ``held``
  walk: ``I <- I ∩ held(WRITE)``;
* ``acquire`` is one loop for every mode — with or without waiting — that
  re-probes after skipping frozen ranges and accumulates grants;
* commit freezes each write point and installs under one stripe block,
  releases it, and then runs ``gc`` as a second acquisition: freeze each
  read prefix, then seal the owner on every key it holds;
* ``_contiguous_cover`` builds ``held(READ) ∪ held(WRITE)`` as an
  :class:`~repro.core.intervals.IntervalSet` and walks its pieces, and the
  candidates leave out everything below the purge bound and count a
  read below it from the bound, as the engine's do;
* the collector queues every finished transaction and calls ``gc`` on each,
  whether or not commit already collected it.

It is slower and obviously right, which is the point:
``tests/core/test_engine_differential.py`` drives it and
:class:`~repro.core.engine.MVTLEngine` through one single-thread schedule
and compares every read, interval, commit outcome and lock state — the way
``tests/core/lock_model.py`` serves the lock table.

Everything else (begin, release, purging, the write grant of
``MVTLStore.acquire``, the lock table's per-key ``freeze`` / ``seal``, the
version store, and the read, write and commit-lock hooks of policies other
than MVTIL) comes from the modules under test, so the two engines' states
compare by plain equality.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Hashable, Iterator

from repro.core.engine import EngineAcquireResult, MVTLEngine
from repro.core.exceptions import (AbortReason, DeadlockError, PolicyError,
                                   TransactionStateError)
from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval
from repro.core.locks import Conflict, LockMode
from repro.core.timestamp import TS_INF, TS_ZERO, Timestamp
from repro.core.transaction import Transaction, TxStatus
from repro.core.versions import Version
from repro.policies import MVTIL

#: ``timeout`` not passed: the engine's ``default_timeout``.
_UNSET_TIMEOUT = object()


def read_lock_interval(engine: MVTLEngine, tx: Transaction, key: Hashable,
                       upper: Timestamp, *,
                       version_below: Timestamp | None = None,
                       wait: bool = True
                       ) -> tuple[Version, IntervalSet] | None:
    """The read-lock retry loop shared by the §5 algorithms."""
    below = version_below if version_below is not None else upper
    while True:
        version = engine.latest_before(key, below)
        if version is None:
            return None  # purged (§6): the transaction must abort
        if version.ts >= upper:
            # Nothing to lock: the interval (tr, upper] is empty.
            return version, IntervalSet.empty()
        want = TsInterval.open_closed(version.ts, upper)
        # Truncate at the first frozen write lock: the contiguous piece
        # starting just after tr.
        frozen = engine.frozen_write_ranges(key)
        available = IntervalSet.from_interval(want).subtract(frozen)
        if available.is_empty:
            return version, IntervalSet.empty()
        first = available.pieces[0]
        if not first.contains_just_after(version.ts):
            return version, IntervalSet.empty()
        result = engine.acquire(tx, key, LockMode.READ, first,
                                wait=wait, stop_on_frozen=True)
        if result.timed_out:
            engine.release(tx, key, LockMode.READ, result.acquired)
            return None
        if not result.frozen_conflicts:
            if first.hi < upper:
                refreshed = engine.latest_before(key, below)
                if refreshed is not None and refreshed.ts > version.ts:
                    engine.release(tx, key, LockMode.READ,
                                   result.acquired)
                    continue
            return version, result.acquired
        engine.release(tx, key, LockMode.READ, result.acquired)


class ModelMVTIL(MVTIL):
    """MVTIL with the three-acquisition read path and the acquire-then-
    ``held`` write."""

    def write_locks(self, engine: MVTLEngine, tx: Transaction,
                    key: Hashable) -> None:
        interval: IntervalSet = tx.state.interval
        if interval.is_empty:
            return  # doomed; commit aborts, runner may restart
        engine.acquire(tx, key, LockMode.WRITE, interval, wait=False)
        # I <- the sub-interval actually write-locked for this key.
        tx.state.interval = interval.intersect(
            engine.locks.held(tx.id, key, LockMode.WRITE))

    def read_locks(self, engine: MVTLEngine, tx: Transaction,
                   key: Hashable) -> Version | None:
        interval: IntervalSet = tx.state.interval
        if interval.is_empty:
            return None
        m = interval.pick_high()
        got = read_lock_interval(engine, tx, key, m, wait=False)
        if got is None:
            return None
        version, locked = got
        prefix = None
        for piece in locked:
            if piece.contains_just_after(version.ts):
                prefix = piece
                break
        if prefix is None:
            engine.release(tx, key, LockMode.READ, locked)
            tx.state.interval = IntervalSet.empty()
            return None  # cannot protect the read: I becomes empty
        leftovers = locked.subtract(IntervalSet.from_interval(prefix))
        if not leftovers.is_empty:
            engine.release(tx, key, LockMode.READ, leftovers)
        new_interval = interval.intersect(prefix)
        tx.state.interval = new_interval
        if new_interval.is_empty:
            return None  # I is empty: the transaction cannot commit
        return version


class ModelEngine(MVTLEngine):
    """The engine with one acquire loop for every mode, a two-acquisition
    commit -> gc and a set-built contiguous cover."""

    def acquire(self, tx: Transaction, key: Hashable, mode: LockMode,
                want: TsInterval | IntervalSet, *, wait: bool = True,
                stop_on_frozen: bool = True,
                timeout: float | None = _UNSET_TIMEOUT
                ) -> EngineAcquireResult:
        if timeout is _UNSET_TIMEOUT:
            timeout = self.default_timeout
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        want_set = (IntervalSet.from_interval(want)
                    if isinstance(want, TsInterval) else want)
        acquired_total = EMPTY_SET
        skipped_frozen: tuple[Conflict, ...] = ()
        idx = self.stripe_of(key)
        cond = self._stripes[idx]
        with cond:
            while True:
                result = self.mvtl.acquire(tx.id, key, mode, want_set)
                acquired_total = acquired_total.union(result.acquired)
                want_set = want_set.subtract(result.acquired)
                if result.fully_acquired:
                    self._waits.clear(tx.id)
                    return EngineAcquireResult(acquired_total, skipped_frozen)
                self._stripe_conflicts[idx] += 1
                frozen = tuple(c for c in result.conflicts if c.frozen)
                if frozen and stop_on_frozen:
                    self._waits.clear(tx.id)
                    return EngineAcquireResult(acquired_total, result.conflicts)
                if frozen:
                    skipped_frozen = skipped_frozen + frozen
                    for c in frozen:
                        want_set = want_set.subtract(c.interval)
                    if want_set.is_empty:
                        self._waits.clear(tx.id)
                        return EngineAcquireResult(acquired_total,
                                                   skipped_frozen)
                unfrozen = tuple(c for c in result.conflicts if not c.frozen)
                if not unfrozen:
                    continue  # only frozen conflicts, now skipped: retry
                if not wait:
                    self._waits.clear(tx.id)
                    return EngineAcquireResult(acquired_total, result.conflicts)
                holders = {c.holder for c in unfrozen}
                cycle = self._waits.set_waits_and_check(tx.id, holders)
                if cycle is not None:
                    self._waits.clear(tx.id)
                    raise DeadlockError(tx.id, cycle)
                remaining = (deadline - time.monotonic()
                             if deadline is not None else None)
                if remaining is not None and remaining <= 0:
                    self._waits.clear(tx.id)
                    self._bump("lock_timeouts")
                    return EngineAcquireResult(acquired_total,
                                               result.conflicts,
                                               timed_out=True)
                cond.wait(timeout=min(remaining, 0.05)
                          if remaining is not None else 0.05)

    @contextmanager
    def _model_stripes(self, indices: tuple[int, ...]) -> Iterator[None]:
        taken = 0
        try:
            for i in indices:
                self._stripes[i].acquire()
                taken += 1
            yield
        finally:
            for i in reversed(indices[:taken]):
                self._stripes[i].release()

    def commit(self, tx: Transaction) -> bool:
        self._check_active(tx)
        try:
            self.policy.commit_locks(self, tx)
        except DeadlockError:
            self._abort(tx, AbortReason.DEADLOCK)
            self._bump("deadlocks")
            return False
        keys = set(tx.writeset)
        keys.update(k for k, _ in tx.readset)
        indices = self._stripe_indices(keys)
        committed = False
        policy_error: PolicyError | None = None
        with self._model_stripes(indices):
            candidates = self._candidates(tx)
            commit_ts = (self.policy.commit_ts(self, tx, candidates)
                         if candidates else None)
            if commit_ts is None:
                self._finish_abort(tx, AbortReason.NO_COMMON_TIMESTAMP)
            elif not candidates.contains(commit_ts):
                self._finish_abort(tx, AbortReason.NO_COMMON_TIMESTAMP)
                policy_error = PolicyError(
                    f"policy {self.policy.name} picked commit timestamp "
                    f"{commit_ts!r} outside the locked candidate set")
            else:
                point = TsInterval.point(commit_ts)
                for key, value in tx.writeset.items():
                    self.locks.freeze(tx.id, key, LockMode.WRITE, point)
                    self.store.install(key, commit_ts, value)
                    if self.tracer.enabled:
                        self.tracer.freeze(tx.id, key, LockMode.WRITE.value,
                                           span=point)
                tx.commit_ts = commit_ts
                tx.status = TxStatus.COMMITTED
                self._bump("commits")
                if self.history is not None:
                    self.history.record_commit(tx.id, commit_ts,
                                               tuple(tx.writeset))
                if self.tracer.enabled:
                    self.tracer.commit(tx.id, ts=commit_ts)
                committed = True
                self._notify_stripes(indices)
        if self.policy.commit_gc(self, tx):
            self.gc(tx)
        self.policy.on_finish(self, tx)
        if policy_error is not None:
            raise policy_error
        return committed

    def gc(self, tx: Transaction) -> None:
        if tx.is_active:
            raise TransactionStateError("gc() on an active transaction")
        freeze_reads = tx.committed and tx.commit_ts is not None
        keys = set(self.locks.keys_of(tx.id))
        if freeze_reads:
            keys.update(k for k, _ in tx.readset)
        indices = self._stripe_indices(keys)
        with self._model_stripes(indices):
            if freeze_reads:
                for key, tr in tx.readset:
                    if tr < tx.commit_ts:
                        span = TsInterval.open_closed(tr, tx.commit_ts)
                        self.locks.freeze(tx.id, key, LockMode.READ, span)
                        if self.tracer.enabled:
                            self.tracer.freeze(tx.id, key,
                                               LockMode.READ.value,
                                               span=span)
            for key in self.locks.forget_owner(tx.id):
                state = self.locks.peek(key)
                if state is not None:
                    state.seal(tx.id)
            self._notify_stripes(indices)

    def _abort(self, tx: Transaction, reason: str) -> None:
        self._finish_abort(tx, reason)
        if self.policy.commit_gc(self, tx):
            self.gc(tx)
        self.policy.on_finish(self, tx)

    def _candidates(self, tx: Transaction) -> IntervalSet:
        bound = self.mvtl.floor
        cand = IntervalSet.from_interval(TsInterval.after(TS_ZERO))
        if bound is not None:
            cand = cand.intersect(TsInterval.closed(bound, TS_INF))
        for key, tr in tx.readset:
            if bound is not None and tr < bound:
                # The purge dropped the read's lock state below the bound:
                # its cover starts at the bound, if no version lies between.
                kept = self.store.latest_before(key, bound)
                if kept is None or kept.ts != tr:
                    return EMPTY_SET
                cover = self._contiguous_cover(tx, key, bound, closed=True)
            else:
                cover = self._contiguous_cover(tx, key, tr)
            cand = cand.intersect(cover)
            if cand.is_empty:
                return cand
        for key in tx.writeset:
            cand = cand.intersect(self.locks.held(tx.id, key, LockMode.WRITE))
            if cand.is_empty:
                return cand
        return cand

    def _contiguous_cover(self, tx: Transaction, key: Hashable,
                          start: Timestamp, *, closed: bool = False
                          ) -> IntervalSet:
        """The held piece that reaches just above ``start`` (or ``start``
        itself when ``closed``), clipped to begin there."""
        held = (self.locks.held(tx.id, key, LockMode.READ)
                .union(self.locks.held(tx.id, key, LockMode.WRITE)))
        for piece in held:
            if closed:
                if piece.contains(start):
                    return IntervalSet.from_interval(
                        TsInterval.closed(start, piece.hi))
            elif piece.contains_just_after(start):
                clipped = piece.intersect(TsInterval.after(start))
                if clipped is not None:
                    return IntervalSet.from_interval(clipped)
        return EMPTY_SET


class ModelCollector:
    """The background collector that queues and collects every finished
    transaction."""

    def __init__(self, engine: MVTLEngine, *, grace: float = 0.0,
                 collect_aborted: bool = True,
                 purge_horizon: float | None = None) -> None:
        self.engine = engine
        self.grace = grace
        self.collect_aborted = collect_aborted
        self.purge_horizon = purge_horizon
        self._lock = threading.Lock()
        self._finished: list[tuple[float, Transaction]] = []
        self.stats = {"collected": 0, "purged_versions": 0}

    def note_finished(self, tx: Transaction) -> None:
        if tx.is_active:
            raise ValueError("transaction is still active")
        with self._lock:
            self._finished.append((time.monotonic(), tx))

    def collect_now(self, now: float | None = None) -> int:
        now = time.monotonic() if now is None else now
        ready: list[Transaction] = []
        with self._lock:
            keep: list[tuple[float, Transaction]] = []
            for when, tx in self._finished:
                if now - when < self.grace:
                    keep.append((when, tx))
                elif tx.aborted and not self.collect_aborted:
                    pass  # drop from tracking, never collect
                else:
                    ready.append(tx)
            self._finished = keep
        for tx in ready:
            self.engine.gc(tx)
        self.stats["collected"] += len(ready)
        if self.purge_horizon is not None:
            bound_value = self.engine.clock.now() - self.purge_horizon
            purged = self.engine.purge_versions_before(
                Timestamp(bound_value, -(2**31)))
            self.stats["purged_versions"] += purged
        return len(ready)
