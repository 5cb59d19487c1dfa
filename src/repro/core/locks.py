"""Freezable timestamp-interval locks (§4.2, §6).

MVTL conceptually keeps one freezable readers-writer lock *per timestamp per
key*.  A freezable lock is a readers-writer lock whose holder may **freeze**
it, declaring that it will never be released: a committed transaction freezes
the write-lock at its commit timestamp (sealing the new version) and the
read-locks between the version it read and its commit timestamp (sealing the
read-timestamp range).  Frozen locks tell other transactions not to wait.

This module implements that state *interval-compressed* (§6).  The table is
a pure data structure — no blocking, no threads.  Callers (the threaded
engine, the simulated servers) decide what to do with reported conflicts:
wait for unfrozen holders, shrink the requested interval (MVTIL), or give up
(the "without waiting" branches of Algorithms 3 and 8).

Conflict rules, per timestamp point:

* a WRITE lock excludes every lock (read or write) held by *another* owner;
* READ locks from different owners may overlap;
* an owner never conflicts with itself (read->write upgrade is permitted
  w.r.t. its own read locks).

Representation
--------------
Per key, every piece of lock state is a **flat quad tuple** — the canonical
``(lo_v, lo_p, hi_v, hi_p, ...)`` form of :mod:`repro._fastcore` that
:class:`~repro.core.intervals.IntervalSet` and
:class:`~repro.core.versions.VersionStore` already use: each live owner's
``read`` / ``write`` / ``frozen_read`` / ``frozen_write``, and the two
ownerless *sealed runs* ended transactions are folded into.  The sealed runs
are sorted and only grow between purges (dozens of pieces on a contended
key), so they are the paper's §8.1 skip lists in the substitution PAPER.md
promises: searched by bisection (:func:`~repro._fastcore.iv_seek`), never
merged end to end, and never unioned with each other.
:class:`~repro.core.intervals.IntervalSet` is the boundary type: queries
wrap a flat on the way out, requests are unwrapped on the way in.

One probe per request
---------------------
A lock request touches the key's state once.  :meth:`KeyLockState.try_acquire`
seeks into each sealed run for the first piece reaching the request, walks
the live owners once, records the grant, and returns the granted range with
``fully_acquired`` / ``any_frozen_conflict`` — all a simulated server needs.
The per-piece :class:`Conflict` objects the threaded engine and the
conflict-driven policies read are materialized from the same pass only when
``AcquireResult.conflicts`` is asked for.
:meth:`KeyLockState.acquire_read_after` is the read side of Alg. 13 in the
same shape: frozen-write truncation, other owners' write locks and the grant
in one walk.  :meth:`KeyLockState.seal` ends a transaction on a key in one
visit too: it freezes the commit's read prefix and write point and folds
what is frozen into the sealed runs.  The server and the engine run these
steps through :class:`~repro.core.versions.MVTLStore`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Iterable

from .intervals import EMPTY_SET, IntervalSet, TsInterval
from .timestamp import Timestamp
from .._fastcore import iv_intersect, iv_seek, iv_subtract, iv_union

__all__ = [
    "LockMode",
    "Conflict",
    "AcquireResult",
    "KeyLockState",
    "LockTable",
    "FrozenConflictError",
]

TxId = Hashable


class LockMode(enum.Enum):
    """Lock mode of a freezable timestamp lock."""

    READ = "read"
    WRITE = "write"


class FrozenConflictError(RuntimeError):
    """Raised on an attempt to release or un-hold a frozen lock range."""


@dataclass(unsafe_hash=True, slots=True)
class Conflict:
    """One conflicting hold discovered during an acquire attempt.

    Attributes
    ----------
    interval:
        The overlap between the request and the conflicting hold.
    holder:
        The owning transaction of the conflicting lock.
    mode:
        Mode of the conflicting lock.
    frozen:
        Whether the conflicting range is frozen.  Waiting for a frozen lock
        is futile — it will never be released — so policies treat frozen
        conflicts differently (retry with a different version / shrink /
        abort) from unfrozen ones (may wait).
    """

    interval: TsInterval
    holder: TxId
    mode: LockMode
    frozen: bool


class AcquireResult:
    """Outcome of :meth:`KeyLockState.try_acquire`.

    ``acquired`` is the conflict-free sub-range of the request (recorded in
    the table unless the call says otherwise); ``fully_acquired`` tells
    whether that is all of it.  ``conflicts`` describes every blocking hold
    overlapping the remainder — built on first access from the raw pieces
    the probe collected, because most callers only ask *whether* anything
    blocked and whether any of it was frozen.
    """

    __slots__ = ("acquired", "fully_acquired", "_blocked", "_conflicts")

    def __init__(self, acquired: IntervalSet, blocked: list) -> None:
        self.acquired = acquired
        self.fully_acquired = not blocked
        #: (lo_v, lo_p, hi_v, hi_p, holder, mode, frozen) per blocking piece.
        self._blocked = blocked
        self._conflicts: tuple[Conflict, ...] | None = None

    @property
    def any_frozen_conflict(self) -> bool:
        for b in self._blocked:
            if b[6]:
                return True
        return False

    @property
    def conflicts(self) -> tuple[Conflict, ...]:
        out = self._conflicts
        if out is None:
            out = self._conflicts = tuple(
                Conflict(TsInterval(Timestamp(lo_v, lo_p),
                                    Timestamp(hi_v, hi_p)),
                         holder, mode, frozen)
                for lo_v, lo_p, hi_v, hi_p, holder, mode, frozen
                in self._blocked)
        return out

    def __repr__(self) -> str:
        return (f"AcquireResult(acquired={self.acquired!r}, "
                f"conflicts={self.conflicts!r})")


@dataclass(slots=True)
class _OwnerLocks:
    """Lock state of a single owner on a single key: four flat quad tuples
    (``frozen_*`` is always a subset of the hold of the same mode)."""

    read: tuple = ()
    write: tuple = ()
    frozen_read: tuple = ()
    frozen_write: tuple = ()


class KeyLockState:
    """Interval-compressed freezable lock state for one key.

    Not thread-safe; synchronization is the caller's concern (the threaded
    engine holds the key's stripe lock, DES servers are single-threaded by
    construction).
    """

    __slots__ = ("_owners", "version", "_sealed_read", "_sealed_write",
                 "_sealed_spans", "_rc_version", "_rc_count", "_rejoin")

    #: Owner id reported for conflicts with sealed (ownerless) lock state.
    SEALED = "<sealed>"

    def __init__(self) -> None:
        self._owners: dict[TxId, _OwnerLocks] = {}
        #: Monotonic change counter; wait loops use it to detect releases.
        self.version: int = 0
        # Permanent lock state of *ended* transactions, merged ownerless
        # (§6 interval compression taken to its conclusion): frozen read
        # prefixes and frozen write points of committed transactions, and —
        # for MVTO+-style policies — the never-released read locks that act
        # as read-timestamps.  Sealed state is permanent: conflicts with it
        # are reported frozen, and only purging removes it.  Two sorted flat
        # runs, probed separately: a ``write ∪ read`` aggregate would cost a
        # merge per seal and a second copy of the longer run per key.
        self._sealed_read: tuple = ()
        self._sealed_write: tuple = ()
        # Metric record list: one span per lock record an implementation
        # without merging would store (Fig. 6's "number of locks").  Kept
        # raw — never re-compacted — so purging can subtract exactly the
        # purged records and leave the survivors counted as-is.  Stored as
        # flat (lo_v, lo_p, hi_v, hi_p) quads: only counted and purged,
        # never handed out, so interval objects would be wasted here.
        self._sealed_spans: list[tuple] = []
        # record_count memo, keyed on ``version``: every mutation that can
        # change the count bumps ``version``, so a matching tag means the
        # cached count is current.  State sampling (Fig. 6/7) sums counts
        # across every key far more often than most keys change.
        self._rc_version: int = -1
        self._rc_count: int = 0
        # The purge walk of the LockTable this state belongs to, while the
        # state is off it (empty since the last sweep): the next owner
        # record puts it back.  None while walked, outside a table, or
        # before the table's first sweep.
        self._rejoin: dict | None = None

    # -- queries -----------------------------------------------------------

    def held(self, owner: TxId, mode: LockMode) -> IntervalSet:
        """Timestamps ``owner`` currently holds in ``mode`` on this key."""
        rec = self._owners.get(owner)
        if rec is None:
            return EMPTY_SET
        return _as_set(rec.read if mode is LockMode.READ else rec.write)

    def frozen(self, owner: TxId, mode: LockMode) -> IntervalSet:
        rec = self._owners.get(owner)
        if rec is None:
            return EMPTY_SET
        return _as_set(rec.frozen_read if mode is LockMode.READ
                       else rec.frozen_write)

    def frozen_write_ranges(self) -> IntervalSet:
        """Union of all frozen write locks on this key (any owner).

        Used by read policies: a frozen write lock marks a committed (or
        committing) version boundary that a read interval must not cross
        (Algorithms 3/4/8 "if found frozen write-lock ... retry").
        """
        out = self._sealed_write
        for rec in self._owners.values():
            if rec.frozen_write:
                out = iv_union(out, rec.frozen_write)
        return _as_set(out)

    def unfrozen_write_at_or_below(self, ts: Timestamp) -> bool:
        """Does any owner hold an *unfrozen* write lock at or below ``ts``?

        Such an owner is undecided and could still commit inside the past
        of a lock-free read at ``ts``.
        """
        v = ts.value
        p = ts.pid
        for rec in self._owners.values():
            if rec.write:
                rest = iv_subtract(rec.write, rec.frozen_write)
                if rest and (rest[0] < v or (rest[0] == v and rest[1] <= p)):
                    return True
        return False

    def unfrozen_writes(self, owner: TxId) -> IntervalSet:
        """``owner``'s write locks outside its frozen ones: what it has not
        committed to, and may still release."""
        rec = self._owners.get(owner)
        if rec is None or not rec.write:
            return EMPTY_SET
        return _as_set(iv_subtract(rec.write, rec.frozen_write))

    def sealed_read_ranges(self) -> IntervalSet:
        return _as_set(self._sealed_read)

    def sealed_write_ranges(self) -> IntervalSet:
        return _as_set(self._sealed_write)

    def owners(self) -> Iterable[TxId]:
        return self._owners.keys()

    def record_count(self) -> int:
        """Number of stored lock intervals (state-size metric, Fig. 6).

        Counts live per-owner records plus what an implementation without
        ownerless merging would keep for ended transactions (the sealed
        span list) — i.e. the state the paper's prototype stores.
        """
        if self._rc_version == self.version:
            return self._rc_count
        count = len(self._sealed_spans) + sum(
            (len(rec.read) + len(rec.write)) >> 2
            for rec in self._owners.values())
        self._rc_version = self.version
        self._rc_count = count
        return count

    @property
    def is_empty(self) -> bool:
        return not (self._owners or self._sealed_read or self._sealed_write)

    # -- mutation ----------------------------------------------------------

    def try_acquire(self, owner: TxId, mode: LockMode,
                    want: TsInterval | IntervalSet, *, wait: bool = False,
                    all_or_nothing: bool = False) -> AcquireResult:
        """Acquire as much of ``want`` as is conflict-free, in one probe.

        The conflict-free portion is granted and recorded; the rest is
        reported through the result.  Idempotent for ranges already held by
        ``owner`` in the same mode.

        Two request flags (Alg. 13's, carried on the wire) name the partial
        outcomes the caller will *not* keep, so that nothing is recorded
        for them: ``all_or_nothing`` refuses any partial grant; ``wait``
        refuses one whose blockers are all unfrozen — the caller parks the
        request and retries when they move ("waiting if locked but not
        frozen").  The result still reports what was grantable.
        """
        want_flat = want.flat
        free, blocked = self._probe(owner, mode, want_flat)
        result = AcquireResult(_granted(free, want_flat, want), blocked)
        refused = blocked and (
            all_or_nothing or (wait and not result.any_frozen_conflict))
        if free and not refused:
            self._record(owner, mode, free)
            self.version += 1
        return result

    def grant(self, owner: TxId, mode: LockMode,
              granted: TsInterval | IntervalSet) -> None:
        """Record ``granted`` without probing it: the caller knows it is
        conflict-free.  Only perflab's lock micro-benchmark calls it (its
        read cycle); every protocol grant goes through a probe."""
        flat = granted.flat
        if flat and self._record(owner, mode, flat):
            self.version += 1

    def acquire_read_after(self, owner: TxId, tr: Timestamp,
                           upper: Timestamp, floor: Timestamp | None = None,
                           wait: bool = False
                           ) -> tuple[IntervalSet | None, bool]:
        """Read-lock the contiguous range just above the version at ``tr``
        (Alg. 13 lines 5-7) — probe, decision and grant in one walk.

        The request is ``(tr, upper]``.  It is cut at the first *frozen*
        write lock above ``tr`` (sealed, or any owner's: a committed
        version boundary no read interval may cross) and at the first write
        lock of another owner.  What remains is granted if it still starts
        right after ``tr``.

        Returns ``(locked, contended)``.  ``locked`` is ``None`` when
        nothing was recorded because waiting can help: the caller asked to
        ``wait``, the grantable prefix stops short of ``floor`` (default
        ``upper``), and an *unfrozen* lock is what stops it — park and
        retry.  Otherwise ``locked`` is the recorded grant — empty when a
        write lock sits immediately above ``tr`` — and ``contended`` says
        whether a lock cut it short of ``upper`` (a frozen write directly
        above ``tr`` is a version the floor lookup raced with, not
        contention).
        """
        lo = (tr.value, tr.pid + 1)
        up = (upper.value, upper.pid)
        # (fh) where the range ends below the first frozen write above tr;
        # (uh) the same for other owners' write locks, frozen or not.
        # (value, pid) tuples order exactly like timestamps.
        fh = uh = up
        if self._sealed_write:
            fh = _cut_below(self._sealed_write, lo, fh)
            if fh is None:
                return EMPTY_SET, False
        covered = False  # another owner's write lock sits right above tr
        mine = None
        for other, rec in self._owners.items():
            if rec.frozen_write:
                fh = _cut_below(rec.frozen_write, lo, fh)
                if fh is None:
                    return EMPTY_SET, False
            if other == owner:
                mine = rec
            elif rec.write and not covered:
                cut = _cut_below(rec.write, lo, uh)
                if cut is None:
                    covered = True
                else:
                    uh = cut
        # The grantable prefix ends at the lower of the two cuts; an
        # unfrozen lock is what limits it exactly when uh is the lower one.
        unfrozen_limited = covered or uh < fh
        if wait and unfrozen_limited and (
                covered or uh < (up if floor is None
                                 else (floor.value, floor.pid))):
            return None, True  # stops short of the floor: park
        if covered:
            return EMPTY_SET, True
        if unfrozen_limited:
            fh = uh
        prefix = lo + fh
        if mine is None:
            mine = self._owners[owner] = _OwnerLocks()
            if self._rejoin is not None:
                self._walk_again()
        held = mine.read
        merged = iv_union(held, prefix)
        if merged is not held:
            mine.read = merged
            self.version += 1
        return IntervalSet._from_flat(prefix), fh != up

    def hold_read(self, owner: TxId, span: TsInterval | IntervalSet) -> bool:
        """Mirror a committed reader's span on a replica that never saw the
        read: if ``owner`` holds no read lock here, acquire what of
        ``span`` is conflict-free (the commit's :meth:`seal` freezes it).
        Returns whether the acquire step ran."""
        rec = self._owners.get(owner)
        acquire = rec is None or not rec.read
        if acquire:
            self.try_acquire(owner, LockMode.READ, span)
        return acquire

    def freeze(self, owner: TxId, mode: LockMode,
               span: TsInterval | IntervalSet) -> None:
        """Freeze the part of ``owner``'s ``mode`` locks inside ``span``.

        Freezing is what makes a commit durable to other transactions:
        frozen locks are never released and survive GC.
        """
        rec = self._owners.get(owner)
        if rec is None:
            return  # nothing held (already released): freezing is a no-op
        if mode is LockMode.READ:
            to_freeze = iv_intersect(rec.read, span.flat)
            if to_freeze:
                rec.frozen_read = iv_union(rec.frozen_read, to_freeze)
                self.version += 1
        else:
            to_freeze = iv_intersect(rec.write, span.flat)
            if to_freeze:
                rec.frozen_write = iv_union(rec.frozen_write, to_freeze)
                self.version += 1

    def release(self, owner: TxId, mode: LockMode,
                span: TsInterval | IntervalSet) -> None:
        """Release ``owner``'s unfrozen ``mode`` locks inside ``span``.

        Attempting to release a frozen range raises
        :class:`FrozenConflictError` — frozen means "never released".
        """
        rec = self._owners.get(owner)
        if rec is None:
            return
        span_flat = span.flat
        read = mode is LockMode.READ
        if iv_intersect(rec.frozen_read if read else rec.frozen_write,
                        span_flat):
            raise FrozenConflictError(
                f"{owner!r} attempted to release a frozen {mode.value} range")
        held = rec.read if read else rec.write
        remaining = iv_subtract(held, span_flat)
        if remaining is not held:
            if read:
                rec.read = remaining
            else:
                rec.write = remaining
            self._prune(owner, rec)
            self.version += 1

    def release_unfrozen(self, owner: TxId) -> None:
        """Release every unfrozen lock of ``owner`` on this key.

        This is the tail of Algorithm 1's ``gc`` and the abort path.
        """
        rec = self._owners.get(owner)
        if rec is None:
            return
        if rec.read != rec.frozen_read or rec.write != rec.frozen_write:
            rec.read = rec.frozen_read
            rec.write = rec.frozen_write
            self._prune(owner, rec)
            self.version += 1

    def seal(self, owner: TxId, read_span: tuple = (),
             write_span: tuple = (), keep_all_reads: bool = False) -> None:
        """Fold an *ended* transaction's permanent locks into the sealed
        runs and drop its owner record — Alg. 13's commit tail and gc, or
        the abort, in one visit.

        ``read_span`` and ``write_span`` (flat quads, ``()`` for none) are
        frozen first: the read prefix ``(tr, ts]`` and the write point of
        a commit.  ``keep_all_reads=False`` (commit-with-GC, or abort):
        frozen read and write locks become sealed, unfrozen locks are
        released.  ``keep_all_reads=True`` (MVTO+-style end): *all* read
        locks become sealed — MVTO+'s read-timestamps are never rolled back
        (§3) — plus the frozen writes; unfrozen write locks are released.

        Sealing is semantically equivalent to keeping the records under the
        dead owner, but conflict checks stay O(active transactions).
        """
        rec = self._owners.pop(owner, None)
        if rec is None:
            return
        reads = rec.read if keep_all_reads else rec.frozen_read
        writes = rec.frozen_write
        if read_span:
            more = iv_intersect(rec.read, read_span)
            if more:
                reads = iv_union(reads, more)
        if write_span:
            more = iv_intersect(rec.write, write_span)
            if more:
                writes = iv_union(writes, more)
        spans = self._sealed_spans
        for flat in (reads, writes):
            n = len(flat)
            if n == 4:
                spans.append(flat)  # single piece: the flat IS the quad
            elif n:
                for i in range(0, n, 4):
                    spans.append(flat[i:i + 4])
        if reads:
            self._sealed_read = iv_union(self._sealed_read, reads)
        if writes:
            self._sealed_write = iv_union(self._sealed_write, writes)
        self.version += 1

    def purge_below(self, bound: TsInterval) -> int:
        """Drop all lock state (frozen included) inside ``bound``.

        Called when the versions covered by these locks are purged (§6):
        the lock state "can be discarded when the associated versions are
        purged".  Returns the number of owners whose state changed.
        """
        return self._purge(bound.flat)

    def _purge(self, bound_flat: tuple) -> int:
        """:meth:`purge_below` for a bound already in flat form.

        A periodic purge visits many keys and changes few, so the no-op
        case is decided by comparisons alone: runs are sorted, hence a run
        whose *first* piece starts above the bound's upper end cannot meet
        the bound — whatever its lower end is.
        """
        lo_v, lo_p, hi_v, hi_p = bound_flat
        # ``_starts_by``, written out: this is what every walked key of
        # every sweep pays.
        read = self._sealed_read
        write = self._sealed_write
        sealed = (
            (read and (read[0] < hi_v
                       or (read[0] == hi_v and read[1] <= hi_p)))
            or (write and (write[0] < hi_v
                           or (write[0] == hi_v and write[1] <= hi_p))))
        reached = [
            (owner, rec) for owner, rec in self._owners.items()
            if _starts_by(rec.read, hi_v, hi_p)
            or _starts_by(rec.write, hi_v, hi_p)] if self._owners else ()
        if not sealed and not reached:
            return 0
        changed = 0
        if sealed:
            sealed_read = iv_subtract(read, bound_flat)
            sealed_write = iv_subtract(write, bound_flat)
            if sealed_read is not read or sealed_write is not write:
                self._sealed_read = sealed_read
                self._sealed_write = sealed_write
                # Trim each sealed record individually: drop what the purge
                # removed, keep every surviving piece as its own record.
                # The metric tracks an implementation without merging, so
                # purging must not collapse surviving records into the
                # compacted form.  ``iv_subtract`` of one piece from one
                # piece, written out: a record outside the bound is kept as
                # it is, and one that sticks out of an end of it keeps that
                # end (both ends, for an interior bound inside it).
                spans: list[tuple] = []
                for span in self._sealed_spans:
                    s_lo_v, s_lo_p, s_hi_v, s_hi_p = span
                    if (s_lo_v > hi_v or (s_lo_v == hi_v and s_lo_p > hi_p)
                            or s_hi_v < lo_v
                            or (s_hi_v == lo_v and s_hi_p < lo_p)):
                        spans.append(span)
                        continue
                    if s_lo_v < lo_v or (s_lo_v == lo_v and s_lo_p < lo_p):
                        spans.append((s_lo_v, s_lo_p, lo_v, lo_p - 1))
                    if s_hi_v > hi_v or (s_hi_v == hi_v and s_hi_p > hi_p):
                        spans.append((hi_v, hi_p + 1, s_hi_v, s_hi_p))
                self._sealed_spans = spans
                changed += 1
        for owner, rec in reached:
            touched = False
            held = iv_subtract(rec.read, bound_flat)
            if held is not rec.read:
                rec.read = held
                rec.frozen_read = iv_subtract(rec.frozen_read, bound_flat)
                touched = True
            held = iv_subtract(rec.write, bound_flat)
            if held is not rec.write:
                rec.write = held
                rec.frozen_write = iv_subtract(rec.frozen_write, bound_flat)
                touched = True
            if touched:
                changed += 1
                self._prune(owner, rec)
        if changed:
            self.version += 1
        return changed

    # -- internals ---------------------------------------------------------

    def _walk_again(self) -> None:
        """Back on the table's purge walk: this state holds locks again."""
        self._rejoin[self] = None
        self._rejoin = None

    def _prune(self, owner: TxId, rec: _OwnerLocks) -> None:
        if not (rec.read or rec.write):
            del self._owners[owner]

    def _record(self, owner: TxId, mode: LockMode, flat: tuple) -> bool:
        """Add ``flat`` to ``owner``'s ``mode`` hold; whether it grew."""
        rec = self._owners.get(owner)
        if rec is None:
            rec = self._owners[owner] = _OwnerLocks()
            if self._rejoin is not None:
                self._walk_again()
        if mode is LockMode.READ:
            held = rec.read
            merged = iv_union(held, flat)
            if merged is held:
                return False
            rec.read = merged
        else:
            held = rec.write
            merged = iv_union(held, flat)
            if merged is held:
                return False
            rec.write = merged
        return True

    def _probe(self, owner: TxId, mode: LockMode,
               want: tuple) -> tuple[tuple, list]:
        """Partition ``want`` into its grantable part and the blocking
        pieces, ``(lo_v, lo_p, hi_v, hi_p, holder, mode, frozen)`` each.

        Every step is ``want ∩ hold`` through the kernels, which seek into
        a long run for a single-piece ``want`` and merge for a multi-piece
        one; the sealed runs are consulted separately and only their (short)
        overlaps with ``want`` are ever combined.
        """
        free = want
        blocked: list = []
        write_req = mode is LockMode.WRITE
        # Sealed (ended-transaction) state first: permanent, hence frozen.
        over_w = (iv_intersect(want, self._sealed_write)
                  if self._sealed_write else ())
        over_r = (iv_intersect(want, self._sealed_read)
                  if write_req and self._sealed_read else ())
        if over_w or over_r:
            # One conflict per piece of want ∩ (write ∪ read) — a union of
            # the two short overlaps, never of the runs; a piece touching a
            # sealed write anywhere is reported as a write.
            over = iv_union(over_w, over_r)
            for i in range(0, len(over), 4):
                piece = over[i:i + 4]
                blocked.append(piece + (
                    self.SEALED,
                    LockMode.WRITE if over_w and iv_intersect(piece, over_w)
                    else LockMode.READ, True))
            free = iv_subtract(free, over)
        # WRITE requests conflict with the other's read and write locks;
        # READ requests only with the other's write locks.
        for other, rec in self._owners.items():
            if other == owner:
                continue
            if write_req and rec.read:
                over = iv_intersect(want, rec.read)
                if over:
                    _block_split(blocked, over, other, LockMode.READ,
                                 rec.frozen_read)
                    free = iv_subtract(free, over)
            if rec.write:
                over = iv_intersect(want, rec.write)
                if over:
                    _block_split(blocked, over, other, LockMode.WRITE,
                                 rec.frozen_write)
                    free = iv_subtract(free, over)
        return free, blocked


def _block(blocked: list, over: tuple, holder: TxId, mode: LockMode,
           frozen: bool) -> None:
    """Append one blocking record per piece of ``over``."""
    for i in range(0, len(over), 4):
        blocked.append(over[i:i + 4] + (holder, mode, frozen))


def _block_split(blocked: list, over: tuple, holder: TxId, mode: LockMode,
                 frozen_hold: tuple) -> None:
    """Blocking records for a live owner's overlap, split into the part
    inside its frozen hold (futile to wait for) and the rest."""
    if frozen_hold:
        frozen_part = iv_intersect(over, frozen_hold)
        if frozen_part:
            _block(blocked, frozen_part, holder, mode, True)
            over = iv_subtract(over, frozen_part)
    if over:
        _block(blocked, over, holder, mode, False)


def _cut_below(run: tuple, lo: tuple, hi: tuple) -> tuple | None:
    """Where ``[lo, hi]`` ends once cut just below the first piece of
    ``run`` that reaches ``lo`` (endpoints as ``(value, pid)`` pairs);
    ``None`` when that piece covers ``lo`` itself."""
    i = iv_seek(run, lo[0], lo[1])
    if i == len(run):
        return hi
    start = (run[i], run[i + 1])
    if start <= lo:
        return None
    if start <= hi:
        return (start[0], start[1] - 1)
    return hi


def _starts_by(run: tuple, v: float, p: int) -> bool:
    """Whether the sorted ``run`` has anything starting at or below
    ``(v, p)`` — its first piece does, or nothing does."""
    return bool(run) and (run[0] < v or (run[0] == v and run[1] <= p))


def _as_set(flat: tuple) -> IntervalSet:
    return IntervalSet._from_flat(flat) if flat else EMPTY_SET


def _granted(free: tuple, want_flat: tuple,
             want: TsInterval | IntervalSet) -> IntervalSet:
    """Wrap a probe's grantable flat, reusing the request operand when
    nothing was cut from it."""
    if not free:
        return EMPTY_SET
    if free is not want_flat:
        return IntervalSet._from_flat(free)
    return (want if want.__class__ is IntervalSet
            else IntervalSet.from_interval(want))


class LockTable:
    """Per-key map of :class:`KeyLockState`.

    Tracks which keys each owner touched so that transaction-wide release
    (abort, GC) does not scan the whole table.

    Concurrency contract under the striped engine: all operations on a
    given *key*'s state run under that key's stripe lock.  The table-wide
    dicts tolerate concurrent use from different stripes because (a) same
    key implies same stripe, so per-entry read-modify-write cycles are
    serialized, (b) inserts for distinct keys are atomic dict operations
    under CPython's GIL, and (c) the per-*owner* index (``_owner_keys``)
    is only mutated by the owner's own (single) thread.  Whole-table
    iteration (``all_keys``/``total_record_count``) must run with every
    stripe held — the engine provides that.
    """

    __slots__ = ("_keys", "_owner_keys", "_walk")

    def __init__(self) -> None:
        self._keys: dict[Hashable, KeyLockState] = {}
        self._owner_keys: dict[TxId, set[Hashable]] = {}
        # What a purge sweep visits: every state that gained an owner since
        # a sweep last found it empty, as dict keys (insertion-ordered).  A
        # state leaves when a sweep finds it empty and comes back through
        # its ``_rejoin`` on its next owner record, so no other caller pays
        # for this, and an empty state — most of a long run's keys — costs
        # a sweep nothing.  None until the first sweep, which walks every
        # state: a table nobody purges keeps no walk.
        self._walk: dict[KeyLockState, None] | None = None

    def state(self, key: Hashable) -> KeyLockState:
        st = self._keys.get(key)
        if st is None:
            st = self._keys[key] = KeyLockState()
            # Walked from its first owner on (no walk before a sweep).
            st._rejoin = self._walk
        return st

    def peek(self, key: Hashable) -> KeyLockState | None:
        return self._keys.get(key)

    def note_owner(self, owner: TxId, key: Hashable) -> None:
        """Record that ``owner`` holds state on ``key`` (callers acquire
        through the KeyLockState directly)."""
        keys = self._owner_keys.get(owner)
        if keys is None:
            self._owner_keys[owner] = {key}
        else:
            keys.add(key)

    def forget_owner(self, owner: TxId) -> Iterable[Hashable]:
        """Drop the owner->keys index entry (after all locks are released
        or intentionally left frozen-only) and return the keys it listed."""
        return self._owner_keys.pop(owner, ())

    def all_keys(self) -> list[Hashable]:
        return list(self._keys)

    def held(self, owner: TxId, key: Hashable, mode: LockMode) -> IntervalSet:
        st = self._keys.get(key)
        return st.held(owner, mode) if st is not None else EMPTY_SET

    def commit_cover(self, owner: TxId, key: Hashable,
                     tr: Timestamp | None = None) -> tuple:
        """What ``owner``'s locks on ``key`` let it commit at, as a flat
        (Algorithm 1 line 13): for a key it read at version ``tr``, the
        piece of its read ∪ write locks that starts just above ``tr``,
        clipped to start there; for a key it wrote (``tr`` None), its write
        locks.  ``()`` when it holds nothing there.
        """
        st = self._keys.get(key)
        rec = st._owners.get(owner) if st is not None else None
        if rec is None:
            return ()
        if tr is None:
            return rec.write
        held = iv_union(rec.read, rec.write)
        v = tr.value
        p = tr.pid + 1
        i = iv_seek(held, v, p)
        if i == len(held):
            return ()
        lo_v = held[i]
        if lo_v < v or (lo_v == v and held[i + 1] <= p):
            return (v, p, held[i + 2], held[i + 3])
        return ()

    def freeze(self, owner: TxId, key: Hashable, mode: LockMode,
               span: TsInterval | IntervalSet) -> None:
        self.state(key).freeze(owner, mode, span)

    def release(self, owner: TxId, key: Hashable, mode: LockMode,
                span: TsInterval | IntervalSet) -> None:
        st = self._keys.get(key)
        if st is not None:
            st.release(owner, mode, span)

    def keys_of(self, owner: TxId) -> frozenset[Hashable]:
        return frozenset(self._owner_keys.get(owner, ()))

    def owners(self) -> list[TxId]:
        """Owners with at least one indexed key (live lock holders)."""
        return list(self._owner_keys)

    def total_record_count(self) -> int:
        """Total stored lock intervals across keys (Fig. 6 metric)."""
        # An empty state counts nothing, so once a sweep has made the walk,
        # the walked states are all there is to add up.  Reads the per-key memo directly when it is current
        # (the common case on a periodic state-size refresh) — one
        # attribute compare instead of a method call per key.
        total = 0
        for st in self._keys.values() if self._walk is None else self._walk:
            if st._rc_version == st.version:
                total += st._rc_count
            else:
                total += st.record_count()
        return total

    def purge_below(self, bound: TsInterval) -> int:
        """Drop all lock state inside ``bound`` on every key (§6); returns
        the number of (key, owner) states that changed.  Whole-table: the
        threaded engine calls it with every stripe held."""
        bound_flat = bound.flat
        walk = self._walk
        if walk is None:
            walk = self._walk = dict.fromkeys(self._keys.values())
        changed = 0
        emptied = []
        for st in walk:
            changed += st._purge(bound_flat)
            if not (st._owners or st._sealed_read or st._sealed_write):
                emptied.append(st)
        for st in emptied:
            del walk[st]
            st._rejoin = walk
        return changed
