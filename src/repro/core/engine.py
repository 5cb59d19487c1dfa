"""The generic MVTL engine — Algorithm 1, centralized version.

This engine is the paper's §4 algorithm, parameterized by a
:class:`~repro.core.policy.MVTLPolicy` (Algorithm 2).  It is thread-safe and
genuinely concurrent: any number of threads may run transactions against one
engine; blocking lock acquisition parks the caller on a condition variable
and wakes it on every lock release/freeze, with wait-for-graph deadlock
detection (§4.3).

Safety is enforced *in the engine*, independent of the policy (this is what
makes Theorem 1 hold for arbitrary policies):

* commit computes the candidate set ``T`` from the locks actually held
  (Algorithm 1 line 13).  For each read-set entry ``(k, tr)`` only the
  *contiguous* lock coverage starting immediately after ``tr`` counts — a
  read lock with a hole above the version it protects would let another
  transaction slip a version into the hole;
* the policy's chosen commit timestamp is validated to be a member of ``T``;
* committed write locks and the read-lock prefix up to the commit timestamp
  are frozen (never released), sealing the serialization decision.

Synchronization is *striped* (the paper's point that MVTL decentralizes
synchronization — per-object timestamp locks, no global lock): the key space
is hashed onto ``stripes`` independent mutex+condition pairs, so acquires on
keys in different stripes never contend and a release only wakes waiters of
the released key's stripe.  The locking discipline:

* per-key operations (acquire/release/frozen-range queries, and the
  one-pass MVTIL read and write :meth:`MVTLEngine.read_prefix` /
  :meth:`MVTLEngine.try_acquire`) hold exactly the key's stripe;
* cross-key operations (commit with its commit-time GC, background GC,
  whole-table metrics) collect the stripes of every key involved and acquire
  them in ascending stripe-index order — a global canonical order, so two
  cross-key operations can never deadlock against each other, and a
  cross-key operation never acquires a further stripe while holding any;
* the :class:`~repro.core.deadlock.WaitForGraph` and the stats dict carry
  their own leaf mutexes (taken last, released before any wait);
* waiters poll (condition-wait with a small quantum) in addition to being
  notified, so a wakeup missed across stripes costs latency, never liveness.

The distributed version of the engine lives in :mod:`repro.dist`.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Hashable, Iterable

from ..clocks.clock import Clock, LogicalClock
from ..obs.trace import NULL_TRACER
from .deadlock import WaitForGraph
from .exceptions import (AbortReason, DeadlockError, PolicyError,
                         TransactionAborted, TransactionStateError)
from .intervals import EMPTY_SET, IntervalSet, TsInterval, ts_pred
from .locks import AcquireResult, Conflict, LockMode
from .policy import MVTLPolicy
from .timestamp import TS_INF, TS_ZERO, Timestamp
from .transaction import Transaction, TxStatus
from .versions import MVTLStore, Version
from .._fastcore import iv_intersect, iv_union

__all__ = ["MVTLEngine", "EngineAcquireResult", "DEFAULT_STRIPES"]

#: Default number of lock stripes.  Plenty for the thread counts the paper's
#: figures sweep (up to ~32 clients) while keeping all-stripe operations
#: (metrics, version purging) cheap.
DEFAULT_STRIPES = 16

#: Sentinel distinguishing "timeout not passed" from an explicit
#: ``timeout=None`` ("wait forever") in :meth:`MVTLEngine.acquire`.
_UNSET_TIMEOUT: Any = object()

#: Poll quantum for condition waits: an upper bound on how long a waiter can
#: oversleep a wakeup it missed, and the cadence of deadlock re-checks.
_WAIT_QUANTUM = 0.05

#: ``(TS_ZERO, +inf]`` as a flat quad: where commit candidates start.
_AFTER_ZERO = (TS_ZERO.value, TS_ZERO.pid + 1, TS_INF.value, TS_INF.pid)


@dataclass(frozen=True, slots=True)
class EngineAcquireResult:
    """Outcome of :meth:`MVTLEngine.acquire`.

    ``acquired`` is everything newly granted during the call (possibly over
    several wait rounds); ``conflicts`` are the holds still blocking the
    un-granted remainder at exit; ``timed_out`` reports a wait timeout.
    """

    acquired: IntervalSet
    conflicts: tuple[Conflict, ...]
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.timed_out

    @property
    def frozen_conflicts(self) -> tuple[Conflict, ...]:
        return tuple(c for c in self.conflicts if c.frozen)


class MVTLEngine:
    """Centralized, thread-safe generic MVTL transactional engine.

    Parameters
    ----------
    policy:
        The locking policy (one of :mod:`repro.policies`, or custom).
    clock:
        Clock supplying timestamp *values*; defaults to a shared
        :class:`~repro.clocks.clock.LogicalClock` (perfectly synchronized).
        Per-process clocks can be injected via ``clock_for_pid``.
    clock_for_pid:
        Optional ``pid -> Clock`` mapping for modelling unsynchronized
        per-process clocks (serial-abort experiments, §5.3).
    default_timeout:
        Upper bound in seconds for any single blocking lock wait; ``None``
        waits forever (deadlock detection still applies).
    stripes:
        Number of lock stripes.  Keys map to stripes by ``hash(key) %
        stripes``; acquires on keys in different stripes proceed fully in
        parallel.  ``1`` recovers the old single-condition behaviour.
    history:
        Optional recorder with ``begin/read/commit/abort`` callbacks (see
        :mod:`repro.verify.history`) used by the serializability checker.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; defaults to the no-op
        :data:`~repro.obs.trace.NULL_TRACER`, in which case every hook is
        a single attribute check.  Events are stamped with the tracer's
        own clock (``perf_counter`` unless overridden).
    """

    def __init__(self, policy: MVTLPolicy, clock: Clock | None = None, *,
                 clock_for_pid: Callable[[int], Clock] | None = None,
                 default_timeout: float | None = 10.0,
                 stripes: int = DEFAULT_STRIPES,
                 history: Any | None = None,
                 tracer: Any | None = None) -> None:
        self.policy = policy
        self.clock = clock if clock is not None else LogicalClock()
        self._clock_for_pid = clock_for_pid
        self.default_timeout = default_timeout
        self.history = history
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Versions, locks and purge floor, with Alg. 13's per-key steps —
        #: the same object a simulated server runs (never replaced, so
        #: ``store`` and ``locks`` name its parts).
        self.mvtl = MVTLStore()
        self.store = self.mvtl.store
        self.locks = self.mvtl.locks
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.num_stripes = stripes
        # key -> stripe index memo.  crc32-of-str per acquire is measurable
        # on the hot path; the digest is deterministic so caching cannot
        # change placement.  Bounded by the workload's key space.  Plain
        # dict ops are atomic under the GIL; a racing recompute stores the
        # same value.
        self._stripe_cache: dict[Hashable, int] = {}
        self._stripes = tuple(threading.Condition(threading.RLock())
                              for _ in range(stripes))
        self._all_stripe_indices = tuple(range(stripes))
        # Per-stripe contention counters, each mutated only under its
        # stripe's lock; cross-stripe reads may be momentarily stale.
        self._stripe_waits = [0] * stripes
        self._stripe_conflicts = [0] * stripes
        self._waits = WaitForGraph()
        self._tx_counter = count(1)
        # Statistics for benchmarks/tests; guarded by their own leaf mutex.
        self.stats = {"commits": 0, "aborts": 0, "deadlocks": 0,
                      "lock_timeouts": 0}
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Stripe plumbing
    # ------------------------------------------------------------------

    def stripe_of(self, key: Hashable) -> int:
        """The stripe index guarding ``key``.

        Uses a stable digest rather than ``hash()``: Python randomizes
        string hashes per process, and stripe placement must not change
        between runs (seeded runs are required to be bit-reproducible).
        """
        idx = self._stripe_cache.get(key)
        if idx is None:
            idx = zlib.crc32(str(key).encode()) % self.num_stripes
            self._stripe_cache[key] = idx
        return idx

    def _stripe_indices(self, keys: Iterable[Hashable]) -> tuple[int, ...]:
        """Ascending, deduplicated stripe indices for ``keys``."""
        return tuple(sorted({self.stripe_of(k) for k in keys}))

    def _acquire_stripes(self, indices: tuple[int, ...]) -> None:
        """Take the given stripes in canonical (ascending) order.

        ``indices`` must be sorted ascending and deduplicated
        (:meth:`_stripe_indices` guarantees this) — the canonical order is
        what makes concurrent cross-key operations deadlock-free.  Pair
        with :meth:`_release_stripes` in a ``finally``.
        """
        stripes = self._stripes
        taken = 0
        try:
            for i in indices:
                stripes[i].acquire()
                taken += 1
        except BaseException:
            self._release_stripes(indices[:taken])
            raise

    def _release_stripes(self, indices: tuple[int, ...]) -> None:
        stripes = self._stripes
        for i in reversed(indices):
            stripes[i].release()

    def _notify_stripes(self, indices: tuple[int, ...]) -> None:
        """Wake waiters of stripes the caller currently holds."""
        for i in indices:
            self._stripes[i].notify_all()

    def _bump(self, stat: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[stat] += n

    # ------------------------------------------------------------------
    # Transaction interface (begin / read / write / commit)
    # ------------------------------------------------------------------

    def begin(self, pid: int = 0, priority: bool = False) -> Transaction:
        """Start a transaction (Algorithm 1 ``begin``)."""
        tx = Transaction(next(self._tx_counter), pid=pid, priority=priority)
        self.policy.on_begin(self, tx)
        if self.history is not None:
            self.history.record_begin(tx.id)
        if self.tracer.enabled:
            self.tracer.begin(tx.id, pid=pid)
        return tx

    def read(self, tx: Transaction, key: Hashable) -> Any:
        """Read ``key`` within ``tx`` (Algorithm 1 ``read``).

        Returns the committed value of the version the policy selected
        (possibly ``BOTTOM``), or the transaction's own pending write if it
        wrote the key earlier (read-your-writes; the paper leaves this case
        open, and serializability is unaffected because the transaction's
        commit point carries its own write).

        Raises :class:`TransactionAborted` if the read cannot be served
        (purged version, lock timeout, deadlock victim).
        """
        self._check_active(tx)
        if key in tx.writeset:
            return tx.writeset[key]
        try:
            version = self.policy.read_locks(self, tx, key)
        except DeadlockError:
            self._abort(tx, AbortReason.DEADLOCK)
            self._bump("deadlocks")
            raise TransactionAborted(tx.id, AbortReason.DEADLOCK) from None
        if version is None:
            self._abort(tx, AbortReason.READ_FAILED)
            raise TransactionAborted(tx.id, AbortReason.READ_FAILED)
        tx.readset.append((key, version.ts))
        if self.history is not None:
            self.history.record_read(tx.id, key, version.ts)
        if self.tracer.enabled:
            self.tracer.read(tx.id, key, ts=version.ts)
        return version.value

    def write(self, tx: Transaction, key: Hashable, value: Any) -> None:
        """Buffer a write of ``value`` to ``key`` (Algorithm 1 ``write``)."""
        self._check_active(tx)
        try:
            self.policy.write_locks(self, tx, key)
        except DeadlockError:
            self._abort(tx, AbortReason.DEADLOCK)
            self._bump("deadlocks")
            raise TransactionAborted(tx.id, AbortReason.DEADLOCK) from None
        tx.writeset[key] = value
        if self.tracer.enabled:
            self.tracer.write(tx.id, key)

    def commit(self, tx: Transaction) -> bool:
        """Try to commit ``tx`` (Algorithm 1 ``commit``).

        Returns True on commit, False on abort (the transaction is finished
        either way).  Raises :class:`PolicyError` — after aborting the
        transaction and garbage-collecting its locks, if the policy asks
        for commit-time GC — when the policy picks a commit timestamp
        outside the locked candidate set.

        The decision, the installs and commit-time GC run under one
        acquisition of the stripes of every key the transaction read, wrote
        or holds a lock on (GC's keys are a subset), followed by one
        wake-up pass over them.  With commit-time GC, :meth:`_collect` — the
        one GC body, shared with :meth:`gc` — freezes the write point and
        the read prefixes and seals each key in a single visit to its lock
        state; without it, commit freezes the write point alone.
        """
        self._check_active(tx)
        try:
            self.policy.commit_locks(self, tx)
        except DeadlockError:
            self._abort(tx, AbortReason.DEADLOCK)
            self._bump("deadlocks")
            return False
        keys = set(tx.writeset)
        keys.update(k for k, _ in tx.readset)
        keys.update(self.locks.keys_of(tx.id))
        indices = self._stripe_indices(keys)
        committed = False
        policy_error: PolicyError | None = None
        point: TsInterval | None = None
        self._acquire_stripes(indices)
        try:
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
            # The PolicyError surfaces only after the aborted transaction's
            # unfrozen locks are collected — other transactions must not be
            # left blocking on a dead owner while the caller handles it.
            # Asked after the outcome is set: the answer may depend on it.
            if self.policy.commit_gc(self, tx):
                self._collect(tx, point)
            elif point is not None:
                for key in tx.writeset:
                    self.locks.freeze(tx.id, key, LockMode.WRITE, point)
            self._notify_stripes(indices)
        finally:
            self._release_stripes(indices)
        self.policy.on_finish(self, tx)
        if policy_error is not None:
            raise policy_error
        return committed

    def abort(self, tx: Transaction,
              reason: str = AbortReason.USER_ABORT) -> None:
        """Voluntarily abort an active transaction."""
        self._check_active(tx)
        self._abort(tx, AbortReason.of(reason))

    def gc(self, tx: Transaction) -> None:
        """Garbage-collect ``tx``'s locks after it ended (Algorithm 1 ``gc``).

        For a committed transaction: freeze the read-locks between each read
        version and the commit timestamp, then release everything unfrozen.
        Runs at commit (``commit-gc``, inside commit's stripe block) or
        later in the background; both run the one body, :meth:`_collect`.
        Idempotent: a transaction is collected once, and ``gc`` on a
        collected one returns at once, taking no stripe.
        """
        if tx.is_active:
            raise TransactionStateError("gc() on an active transaction")
        if tx.collected:
            return
        indices = self._stripe_indices(self.locks.keys_of(tx.id))
        self._acquire_stripes(indices)
        try:
            self._collect(tx)
            self._notify_stripes(indices)
        finally:
            self._release_stripes(indices)

    def _collect(self, tx: Transaction,
                 point: TsInterval | None = None) -> None:
        """The one GC body, at commit and in :meth:`gc`: the caller holds the
        stripes of every key ``tx`` holds a lock on.

        Each of those keys' lock state is visited once: the read prefix
        ``(tr, commit_ts]`` (committed transactions) and the write
        ``point`` (commit-time GC of a commit; otherwise the point was
        frozen at commit or there is none) are frozen, and the owner record
        is sealed.  An aborted transaction passes no spans.
        """
        prefixes = {}
        if tx.committed:
            commit_ts = tx.commit_ts
            c_v = commit_ts.value
            c_p = commit_ts.pid
            for key, tr in tx.readset:
                if tr < commit_ts:
                    span = (tr.value, tr.pid + 1, c_v, c_p)
                    prev = prefixes.get(key)
                    prefixes[key] = (span if prev is None
                                     else iv_union(prev, span))
                    if self.tracer.enabled:
                        self.tracer.freeze(
                            tx.id, key, LockMode.READ.value,
                            span=TsInterval.open_closed(tr, commit_ts))
        # Seal rather than merely release: folding the frozen remainder
        # into each key's ownerless aggregate keeps conflict checks
        # O(active transactions) — dead-owner records otherwise pile up
        # and every read's conflict walk grows unboundedly.
        point_flat = point.flat if point is not None else ()
        for key in self.locks.forget_owner(tx.id):
            self.mvtl.seal(tx.id, key, prefixes.get(key, ()),
                           point_flat if key in tx.writeset else ())
        tx.collected = True

    # ------------------------------------------------------------------
    # Primitives used by policies
    # ------------------------------------------------------------------

    def now(self, tx: Transaction | None = None) -> float:
        """Read the (per-process) clock."""
        if tx is not None and self._clock_for_pid is not None:
            return self._clock_for_pid(tx.pid).now()
        return self.clock.now()

    def make_ts(self, tx: Transaction, value: float | None = None) -> Timestamp:
        """Build a unique timestamp for ``tx`` (clock value + pid, §4.1)."""
        if value is None:
            value = self.now(tx)
        return Timestamp(value, tx.pid)

    def acquire(self, tx: Transaction, key: Hashable, mode: LockMode,
                want: TsInterval | IntervalSet, *, wait: bool = True,
                stop_on_frozen: bool = True,
                timeout: float | None = _UNSET_TIMEOUT) -> EngineAcquireResult:
        """Acquire locks on ``want``, optionally waiting for unfrozen holders.

        * ``wait=False``: :meth:`try_acquire`'s one probe; grant the
          conflict-free part and report the rest ("without waiting if ...
          locked").  ``stop_on_frozen`` makes no difference here: frozen
          ranges never block the free part, so one probe grants all of it.
        * ``wait=True, stop_on_frozen=True``: park until either everything
          is granted or a *frozen* conflict appears ("waiting if ...
          locked but not frozen"); frozen conflicts are returned for the
          caller to handle (retry with a newer version, or give up).
        * ``wait=True, stop_on_frozen=False``: frozen ranges are silently
          skipped (they can never be granted) and the call waits until the
          entire remainder is granted — the pessimistic/prioritizer idiom
          of locking "everything lockable up to +inf".

        ``timeout`` bounds the wait: not passed means ``default_timeout``,
        an explicit ``None`` waits forever (deadlock detection and the
        waiter's poll loop still apply).

        Raises :class:`DeadlockError` if this wait would close a wait-for
        cycle (the caller is the victim).
        """
        if not wait:
            result = self.try_acquire(tx, key, mode, want)
            return EngineAcquireResult(result.acquired, result.conflicts)
        if timeout is _UNSET_TIMEOUT:
            timeout = self.default_timeout
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        want_set = (IntervalSet.from_interval(want)
                    if isinstance(want, TsInterval) else want)
        if not self.tracer.enabled:
            return self._acquire_loop(tx, key, mode, want_set,
                                      stop_on_frozen, deadline, None)
        waited = [0.0]
        result: EngineAcquireResult | None = None
        try:
            result = self._acquire_loop(tx, key, mode, want_set,
                                        stop_on_frozen, deadline, waited)
            return result
        finally:
            # One lock-acquire span per call (requested vs granted), plus a
            # wait span if any parking happened; a None result means the
            # call ended as a deadlock victim.
            self.tracer.lock_acquire(
                tx.id, key, mode.value, requested=want_set,
                granted=result.acquired if result is not None else None,
                conflicts=(len(result.conflicts) if result is not None
                           else None),
                timed_out=result.timed_out if result is not None else None,
                deadlock=result is None)
            if waited[0] > 0.0:
                self.tracer.wait(tx.id, key, dur=waited[0])

    def _acquire_loop(self, tx: Transaction, key: Hashable, mode: LockMode,
                      want_set: IntervalSet, stop_on_frozen: bool,
                      deadline: float | None,
                      waited: list[float] | None) -> EngineAcquireResult:
        """:meth:`acquire`'s waiting loop: probe, park, re-probe."""
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
                frozen = tuple(c for c in result.conflicts if c.frozen)
                unfrozen = tuple(c for c in result.conflicts if not c.frozen)
                if unfrozen:
                    # Only a live holder is contention; frozen ranges are
                    # history.
                    self._stripe_conflicts[idx] += 1
                if frozen and stop_on_frozen:
                    self._waits.clear(tx.id)
                    return EngineAcquireResult(acquired_total, result.conflicts)
                if frozen:
                    # Skip permanently unavailable ranges (still reported).
                    skipped_frozen = skipped_frozen + frozen
                    for c in frozen:
                        want_set = want_set.subtract(c.interval)
                    if want_set.is_empty:
                        self._waits.clear(tx.id)
                        return EngineAcquireResult(acquired_total,
                                                   skipped_frozen)
                if not unfrozen:
                    continue  # only frozen conflicts, now skipped: retry
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
                self._stripe_waits[idx] += 1
                quantum = (min(remaining, _WAIT_QUANTUM)
                           if remaining is not None else _WAIT_QUANTUM)
                if waited is None:
                    cond.wait(timeout=quantum)
                else:
                    t0 = time.monotonic()
                    cond.wait(timeout=quantum)
                    waited[0] += time.monotonic() - t0

    def try_acquire(self, tx: Transaction, key: Hashable, mode: LockMode,
                    want: TsInterval | IntervalSet) -> AcquireResult:
        """Lock the conflict-free part of ``want`` without waiting: one
        probe of ``key``'s lock state under its stripe
        (:meth:`MVTLStore.acquire`; the write-side twin of
        :meth:`read_prefix`).

        ``result.acquired`` is the grant — ``want`` minus every range
        another owner holds (ranges ``tx`` already holds come back granted)
        — and ``result.conflicts`` the holds that cut it.  Every
        :meth:`acquire` with ``wait=False`` routes here.
        """
        idx = self.stripe_of(key)
        with self._stripes[idx]:
            result = self.mvtl.acquire(tx.id, key, mode, want)
            if not result.fully_acquired:
                self._stripe_conflicts[idx] += 1
        if self.tracer.enabled:
            self.tracer.lock_acquire(
                tx.id, key, mode.value, requested=want,
                granted=result.acquired, conflicts=len(result.conflicts),
                timed_out=False, deadlock=False)
        return result

    def release(self, tx: Transaction, key: Hashable, mode: LockMode,
                span: TsInterval | IntervalSet) -> None:
        """Release ``tx``'s unfrozen locks on ``span``."""
        if isinstance(span, IntervalSet) and span.is_empty:
            return
        cond = self._stripes[self.stripe_of(key)]
        with cond:
            self.locks.release(tx.id, key, mode, span)
            cond.notify_all()

    def freeze(self, tx: Transaction, key: Hashable, mode: LockMode,
               span: TsInterval | IntervalSet) -> None:
        """Freeze ``tx``'s ``mode`` locks on ``span`` and wake the stripe.

        The commit path freezes inline while holding its stripe set; this
        entry point serves policies, tools and tests that freeze outside a
        commit.
        """
        cond = self._stripes[self.stripe_of(key)]
        with cond:
            self.locks.freeze(tx.id, key, mode, span)
            cond.notify_all()

    def release_all_write_locks(self, tx: Transaction) -> None:
        """Back out of a failed commit-time write-lock pass (Alg. 3/8)."""
        keys = self.locks.keys_of(tx.id)
        indices = self._stripe_indices(keys)
        self._acquire_stripes(indices)
        try:
            for key in keys:
                state = self.locks.peek(key)
                if state is not None:
                    releasable = state.unfrozen_writes(tx.id)
                    if releasable:
                        state.release(tx.id, LockMode.WRITE, releasable)
            self._notify_stripes(indices)
        finally:
            self._release_stripes(indices)

    def frozen_write_ranges(self, key: Hashable) -> IntervalSet:
        """Union of all frozen write locks on ``key``."""
        with self._stripes[self.stripe_of(key)]:
            state = self.locks.peek(key)
            return state.frozen_write_ranges() if state else EMPTY_SET

    def latest_before(self, key: Hashable, ts: Timestamp) -> Any:
        """Latest version of ``key`` strictly below ``ts``, stripe-locked.

        Policies must use this rather than ``store.latest_before``:
        commit installs into a key's version chain under the key's stripe
        lock, and an unsynchronized bisect can catch the chain mid-insert
        (timestamps and values lists momentarily disagree in length).
        """
        with self._stripes[self.stripe_of(key)]:
            return self.store.latest_before(key, ts)

    def read_prefix(self, tx: Transaction, key: Hashable, upper: Timestamp
                    ) -> tuple[Version, IntervalSet] | None:
        """Read ``key`` below ``upper`` and read-lock what protects it, in
        one pass under the key's stripe (:meth:`MVTLStore.read`, the
        server's Alg. 13 read, without waiting).

        Picks ``tr`` = the latest version strictly below ``upper``, then
        read-locks the contiguous range just above it: ``(tr, upper]`` cut
        at the first frozen write lock, then at the first write lock of
        another owner (the lookup is strictly below ``upper``, so that
        range is never empty).  Returns ``(version, locked)`` — ``locked``
        is empty when a write lock sits directly above ``tr`` — or None
        when the version below ``upper`` was purged.  Nothing is left
        locked outside ``locked``, and no commit can land between the
        lookup and the grant.
        """
        idx = self.stripe_of(key)
        with self._stripes[idx]:
            version, locked, contended = self.mvtl.read(tx.id, key, upper)
            if contended:
                self._stripe_conflicts[idx] += 1
        if version is None:
            return None  # purged (§6): the transaction must abort
        if self.tracer.enabled:
            self.tracer.lock_acquire(
                tx.id, key, LockMode.READ.value,
                requested=TsInterval.open_closed(version.ts, upper),
                granted=locked, conflicts=int(contended), timed_out=False,
                deadlock=False)
        return version, locked

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_active(self, tx: Transaction) -> None:
        if not tx.is_active:
            raise TransactionStateError(
                f"operation on finished transaction {tx!r}")

    def _abort(self, tx: Transaction, reason: str) -> None:
        """Mark ``tx`` aborted and run GC if the policy asks for it.

        Crucially, an aborted transaction's locks are *kept* unless the
        policy garbage-collects (Algorithm 1 line 21 runs for both
        outcomes).  Keeping them is what makes MVTL-TO faithfully emulate
        MVTO+'s persistent read-timestamps — including its ghost aborts —
        while MVTL-Ghostbuster differs only in always collecting.
        """
        self._finish_abort(tx, reason)
        if self.policy.commit_gc(self, tx):
            self.gc(tx)
        self.policy.on_finish(self, tx)

    def _finish_abort(self, tx: Transaction, reason: str) -> None:
        """Abort bookkeeping: status, stats, wait edges, history, trace.

        Touches no lock-table state, so it is safe both inside a stripe
        block (commit's failure paths) and with no stripes held.  Lock
        release is GC's job; waiters blocked on this transaction poll, so
        they observe the release when it happens.
        """
        tx.status = TxStatus.ABORTED
        tx.abort_reason = AbortReason.of(reason)
        self._bump("aborts")
        self._waits.clear(tx.id)
        if self.history is not None:
            self.history.record_abort(tx.id, reason)
        if self.tracer.enabled:
            self.tracer.abort(tx.id, reason=reason)

    def _candidates(self, tx: Transaction) -> IntervalSet:
        """Algorithm 1 line 13: the set T of commit-viable timestamps.

        Read-set keys contribute their *contiguous* lock coverage starting
        just above the version read; write-set keys contribute the held
        write-lock set.  TS_ZERO is excluded: every key's initial version
        lives there, so it can never be a commit point.  So is everything
        below the purge floor (§6, ``mvtl.floor`` — purge bounds at or
        below TS_ZERO cut nothing): the purge dropped the lock state that
        kept commits off it — a commit there could land on a kept
        version's timestamp, or under a read it no longer protects.  A
        read made before a purge whose bound lies above its version lost
        the start of its lock with that state; its cover counts from the
        bound instead, provided the version read is still the newest below
        the bound (no commit can land between them any more).  Caller
        must hold the stripes of every readset/writeset key.  Computed on
        flats (:meth:`LockTable.commit_cover`); only the result is
        wrapped.
        """
        bound = self.mvtl.floor
        cand = (_AFTER_ZERO if bound is None or bound <= TS_ZERO
                else (bound.value, bound.pid, TS_INF.value, TS_INF.pid))
        cover = self.locks.commit_cover
        owner = tx.id
        for key, tr in tx.readset:
            got = cover(owner, key, tr)
            if not got and bound is not None and tr < bound:
                # Read before the purge: its lock starts at the bound now.
                kept = self.store.latest_before(key, bound)
                if kept is None or kept.ts != tr:
                    return EMPTY_SET
                got = cover(owner, key, ts_pred(bound))
            cand = iv_intersect(cand, got)
            if not cand:
                return EMPTY_SET
        for key in tx.writeset:
            cand = iv_intersect(cand, cover(owner, key))
            if not cand:
                return EMPTY_SET
        return IntervalSet._from_flat(cand)

    # -- metrics --------------------------------------------------------------

    def lock_record_count(self) -> int:
        self._acquire_stripes(self._all_stripe_indices)
        try:
            return self.locks.total_record_count()
        finally:
            self._release_stripes(self._all_stripe_indices)

    def version_count(self) -> int:
        self._acquire_stripes(self._all_stripe_indices)
        try:
            return self.store.version_count()
        finally:
            self._release_stripes(self._all_stripe_indices)

    def purge_versions_before(self, bound: Timestamp) -> int:
        """Purge old versions and their lock state (§6) with every stripe
        held: :meth:`MVTLStore.purge`, which also raises the floor commit
        candidates start from.  Background collectors must use this, not
        ``store.purge_before``: the whole-table walk is only safe with no
        concurrent installs."""
        self._acquire_stripes(self._all_stripe_indices)
        try:
            return self.mvtl.purge(bound)
        finally:
            self._release_stripes(self._all_stripe_indices)

    def stripe_contention(self) -> dict[str, tuple[int, ...]]:
        """Per-stripe contention counters since construction.

        ``waits[i]`` counts parked condition-waits on stripe ``i``;
        ``conflicts[i]`` counts acquire attempts on stripe ``i`` that found
        at least one conflicting hold — for a waiting acquire, one of a
        live (unfrozen) holder.  Disjoint keysets that map to
        distinct stripes show zero in both.
        """
        return {"waits": tuple(self._stripe_waits),
                "conflicts": tuple(self._stripe_conflicts)}

