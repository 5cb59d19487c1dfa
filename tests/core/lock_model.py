"""Reference model for the lock-table differential suite.

This is the object-level ``KeyLockState`` exactly as it stood before the
flat-quad rewrite of :mod:`repro.core.locks` (PR 17): per-owner
:class:`~repro.core.intervals.IntervalSet` holds, a ``_split`` that walks
the sealed aggregates and every live owner through the set algebra, and a
``Conflict`` object per blocking piece.  It is slow and obviously shaped
like the paper's conflict rules, which is the point:
``tests/core/test_locks_stateful.py`` drives it and the real implementation
in lockstep and compares every observable after every rule — the way
``test_versions_model.py`` keeps a naive sorted list beside
``VersionStore``.

Only the class bodies live here; the shared vocabulary (``LockMode``,
``Conflict``, ``FrozenConflictError``) is imported from the module under
test so results compare by plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro._fastcore import iv_subtract
from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval
from repro.core.locks import Conflict, FrozenConflictError, LockMode

TxId = Hashable


@dataclass(unsafe_hash=True, slots=True)
class AcquireResult:
    """Outcome of :meth:`KeyLockState.try_acquire`.

    ``acquired`` is the sub-range actually granted (already recorded in the
    table); ``conflicts`` describes every blocking hold overlapping the
    remainder of the request.
    """

    acquired: IntervalSet
    conflicts: tuple[Conflict, ...]

    @property
    def fully_acquired(self) -> bool:
        return not self.conflicts

    @property
    def any_frozen_conflict(self) -> bool:
        return any(c.frozen for c in self.conflicts)

    @property
    def unfrozen_conflicts(self) -> tuple[Conflict, ...]:
        return tuple(c for c in self.conflicts if not c.frozen)


@dataclass(slots=True)
class _OwnerLocks:
    """Lock state of a single owner on a single key.

    Defaults share the EMPTY_SET singleton — IntervalSet is immutable, and
    owner records are minted on every first acquire, so per-field empty-set
    construction was pure allocation churn.
    """

    read: IntervalSet = EMPTY_SET
    write: IntervalSet = EMPTY_SET
    frozen_read: IntervalSet = EMPTY_SET
    frozen_write: IntervalSet = EMPTY_SET

    def held(self, mode: LockMode) -> IntervalSet:
        return self.read if mode is LockMode.READ else self.write

    def set_held(self, mode: LockMode, value: IntervalSet) -> None:
        if mode is LockMode.READ:
            self.read = value
        else:
            self.write = value

    def frozen(self, mode: LockMode) -> IntervalSet:
        return (self.frozen_read if mode is LockMode.READ
                else self.frozen_write)

    def set_frozen(self, mode: LockMode, value: IntervalSet) -> None:
        if mode is LockMode.READ:
            self.frozen_read = value
        else:
            self.frozen_write = value

    @property
    def is_empty(self) -> bool:
        return self.read.is_empty and self.write.is_empty


class KeyLockState:
    """Interval-compressed freezable lock state for one key.

    Not thread-safe; synchronization is the caller's concern (the threaded
    engine holds the key's stripe lock, DES servers are single-threaded by
    construction).
    """

    __slots__ = ("_owners", "version", "_sealed_read", "_sealed_write",
                 "_sealed_spans", "_rc_version", "_rc_count",
                 "_fwr_version", "_fwr_cache")

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
        # are reported frozen, and only purging removes it.
        self._sealed_read: IntervalSet = EMPTY_SET
        self._sealed_write: IntervalSet = EMPTY_SET
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
        # frozen_write_ranges memo, same ``version`` keying: every read
        # consults the frozen-write union, most reads hit unchanged keys.
        self._fwr_version: int = -1
        self._fwr_cache: IntervalSet = EMPTY_SET

    # -- queries -----------------------------------------------------------

    def held(self, owner: TxId, mode: LockMode) -> IntervalSet:
        """Timestamps ``owner`` currently holds in ``mode`` on this key."""
        ol = self._owners.get(owner)
        return ol.held(mode) if ol is not None else EMPTY_SET

    def frozen(self, owner: TxId, mode: LockMode) -> IntervalSet:
        ol = self._owners.get(owner)
        return ol.frozen(mode) if ol is not None else EMPTY_SET

    def lockable(self, owner: TxId, mode: LockMode,
                 want: TsInterval | IntervalSet) -> AcquireResult:
        """Dry-run of :meth:`try_acquire`: nothing is recorded.

        ``acquired`` in the result is the conflict-free sub-range that an
        acquire *would* grant.
        """
        return self._split(owner, mode, _as_set(want))

    def frozen_write_ranges(self) -> IntervalSet:
        """Union of all frozen write locks on this key (any owner).

        Used by read policies: a frozen write lock marks a committed (or
        committing) version boundary that a read interval must not cross
        (Algorithms 3/4/8 "if found frozen write-lock ... retry").
        """
        if self._fwr_version == self.version:
            return self._fwr_cache
        out = self._sealed_write
        for ol in self._owners.values():
            out = out.union(ol.frozen_write)
        self._fwr_version = self.version
        self._fwr_cache = out
        return out

    def seal(self, owner: TxId, keep_all_reads: bool = False) -> None:
        """Fold an *ended* transaction's permanent locks into the sealed
        aggregate and drop its owner record.

        ``keep_all_reads=False`` (commit-with-GC, or abort): frozen read and
        write locks become sealed, unfrozen locks are released.
        ``keep_all_reads=True`` (MVTO+-style end): *all* read locks become
        sealed — MVTO+'s read-timestamps are never rolled back (§3) — plus
        the frozen writes; unfrozen write locks are released.

        Sealing is semantically equivalent to keeping the records under the
        dead owner, but conflict checks stay O(active transactions).
        """
        ol = self._owners.pop(owner, None)
        if ol is None:
            return
        reads = ol.read if keep_all_reads else ol.frozen_read
        spans = self._sealed_spans
        for flat in (reads.flat, ol.frozen_write.flat):
            n = len(flat)
            if n == 4:
                spans.append(flat)  # single piece: the flat IS the quad
            elif n:
                for i in range(0, n, 4):
                    spans.append(flat[i:i + 4])
        if reads:
            self._sealed_read = self._sealed_read.union(reads)
        if ol.frozen_write:
            self._sealed_write = self._sealed_write.union(ol.frozen_write)
        self.version += 1

    def sealed_read_ranges(self) -> IntervalSet:
        return self._sealed_read

    def sealed_write_ranges(self) -> IntervalSet:
        return self._sealed_write

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
            len(ol.read) + len(ol.write) for ol in self._owners.values())
        self._rc_version = self.version
        self._rc_count = count
        return count

    @property
    def is_empty(self) -> bool:
        return (not self._owners and self._sealed_read.is_empty
                and self._sealed_write.is_empty)

    # -- mutation ----------------------------------------------------------

    def try_acquire(self, owner: TxId, mode: LockMode,
                    want: TsInterval | IntervalSet) -> AcquireResult:
        """Acquire as much of ``want`` as is conflict-free.

        The conflict-free portion is granted and recorded; the rest is
        reported via ``conflicts``.  Idempotent for ranges already held by
        ``owner`` in the same mode.
        """
        result = self._split(owner, mode, _as_set(want))
        if result.acquired:
            ol = self._owners.get(owner)
            if ol is None:
                ol = self._owners[owner] = _OwnerLocks()
            ol.set_held(mode, ol.held(mode).union(result.acquired))
            self.version += 1
        return result

    def grant(self, owner: TxId, mode: LockMode,
              granted: TsInterval | IntervalSet) -> None:
        """Record a grant already proven conflict-free by :meth:`lockable`.

        Equivalent to ``try_acquire`` on the probed range minus the second
        conflict split.  Valid only when nothing mutated this state between
        the probe and the grant, as in the read chain below.
        """
        if not isinstance(granted, TsInterval) and granted.is_empty:
            return
        ol = self._owners.get(owner)
        if ol is None:
            ol = self._owners[owner] = _OwnerLocks()
        # Mode-unrolled direct slot access (the read chain below grants
        # right after its lockable() probe).
        if mode is LockMode.READ:
            held = ol.read
            new_held = held.union(granted)
            if new_held != held:
                ol.read = new_held
                self.version += 1
        else:
            held = ol.write
            new_held = held.union(granted)
            if new_held != held:
                ol.write = new_held
                self.version += 1

    def freeze(self, owner: TxId, mode: LockMode,
               span: TsInterval | IntervalSet) -> None:
        """Freeze the part of ``owner``'s ``mode`` locks inside ``span``.

        Freezing is what makes a commit durable to other transactions:
        frozen locks are never released and survive GC.
        """
        span_set = _as_set(span)
        ol = self._owners.get(owner)
        if ol is None:
            return  # nothing held (already released): freezing is a no-op
        to_freeze = ol.held(mode).intersect(span_set)
        if to_freeze.is_empty:
            return
        ol.set_frozen(mode, ol.frozen(mode).union(to_freeze))
        self.version += 1

    def release(self, owner: TxId, mode: LockMode,
                span: TsInterval | IntervalSet) -> None:
        """Release ``owner``'s unfrozen ``mode`` locks inside ``span``.

        Attempting to release a frozen range raises
        :class:`FrozenConflictError` — frozen means "never released".
        """
        ol = self._owners.get(owner)
        if ol is None:
            return
        span_set = _as_set(span)
        if not ol.frozen(mode).intersect(span_set).is_empty:
            raise FrozenConflictError(
                f"{owner!r} attempted to release a frozen {mode.value} range")
        held = ol.held(mode)
        remaining = held.subtract(span_set)
        if remaining != held:
            ol.set_held(mode, remaining)
            self._prune(owner, ol)
            self.version += 1

    def release_unfrozen(self, owner: TxId) -> None:
        """Release every unfrozen lock of ``owner`` on this key.

        This is the tail of Algorithm 1's ``gc`` and the abort path.
        """
        ol = self._owners.get(owner)
        if ol is None:
            return
        changed = False
        for mode in LockMode:
            held = ol.held(mode)
            frozen = ol.frozen(mode)
            if held != frozen:
                ol.set_held(mode, frozen)
                changed = True
        if changed:
            self._prune(owner, ol)
            self.version += 1

    def purge_below(self, bound: TsInterval) -> int:
        """Drop all lock state (frozen included) inside ``bound``.

        Called when the versions covered by these locks are purged (§6):
        the lock state "can be discarded when the associated versions are
        purged".  Returns the number of owners whose state changed.
        """
        changed = 0
        new_sealed_read = self._sealed_read.subtract(bound)
        new_sealed_write = self._sealed_write.subtract(bound)
        if (new_sealed_read != self._sealed_read
                or new_sealed_write != self._sealed_write):
            self._sealed_read = new_sealed_read
            self._sealed_write = new_sealed_write
            # Trim each sealed record individually: drop what the purge
            # removed, keep every surviving piece as its own record.  The
            # metric tracks an implementation without merging, so purging
            # must not collapse surviving records into the compacted form.
            bound_flat = bound.flat
            self._sealed_spans = [
                rest[i:i + 4]
                for span in self._sealed_spans
                for rest in (iv_subtract(span, bound_flat),)
                for i in range(0, len(rest), 4)]
            changed += 1
        for owner in list(self._owners):
            ol = self._owners[owner]
            touched = False
            for mode in LockMode:
                held = ol.held(mode)
                new_held = held.subtract(bound)
                if new_held != held:
                    ol.set_held(mode, new_held)
                    ol.set_frozen(mode, ol.frozen(mode).subtract(bound))
                    touched = True
            if touched:
                changed += 1
                self._prune(owner, ol)
        if changed:
            self.version += 1
        return changed

    # -- internals ---------------------------------------------------------

    def _prune(self, owner: TxId, ol: _OwnerLocks) -> None:
        if ol.is_empty:
            del self._owners[owner]

    def _split(self, owner: TxId, mode: LockMode,
               want: IntervalSet) -> AcquireResult:
        """Partition ``want`` into a grantable part and per-holder conflicts."""
        free = want
        conflicts: list[Conflict] = []
        # Sealed (ended-transaction) state first: permanent, hence frozen.
        # Avoid the union allocation when one (or both) aggregates is empty
        # — the dominant case on lightly written keys.
        if mode is LockMode.READ or self._sealed_read.is_empty:
            sealed_blockers = self._sealed_write
        elif self._sealed_write.is_empty:
            sealed_blockers = self._sealed_read
        else:
            sealed_blockers = self._sealed_write.union(self._sealed_read)
        if sealed_blockers:
            overlap = want.intersect(sealed_blockers)
            if not overlap.is_empty:
                for piece in overlap:
                    blocking_mode = (LockMode.WRITE
                                     if self._sealed_write.intersect(piece)
                                     else LockMode.READ)
                    conflicts.append(Conflict(piece, self.SEALED,
                                              blocking_mode, True))
                free = free.subtract(overlap)
        if self._owners:
            # WRITE requests conflict with the other's read and write locks;
            # READ requests only with the other's write locks.  The mode
            # pair is unrolled (no tuple loop) and holds are read straight
            # off the slots: this runs once per lock request per co-active
            # owner, the innermost loop of every server's data path.
            write_req = mode is LockMode.WRITE
            for other, ol in self._owners.items():
                if other == owner:
                    continue
                if write_req:
                    held = ol.read
                    if not held.is_empty:
                        overlap = want.intersect(held)
                        if not overlap.is_empty:
                            self._conflicts_for(conflicts, overlap,
                                                other, LockMode.READ,
                                                ol.frozen_read)
                            free = free.subtract(overlap)
                held = ol.write
                if not held.is_empty:
                    overlap = want.intersect(held)
                    if not overlap.is_empty:
                        self._conflicts_for(conflicts, overlap,
                                            other, LockMode.WRITE,
                                            ol.frozen_write)
                        free = free.subtract(overlap)
        return AcquireResult(acquired=free, conflicts=tuple(conflicts))

    @staticmethod
    def _conflicts_for(conflicts: list[Conflict], overlap: IntervalSet,
                       other: TxId, bmode: LockMode,
                       frozen: IntervalSet) -> None:
        """Append per-piece conflicts for one blocking hold of ``other``."""
        if frozen.is_empty:
            # Nothing frozen: every overlapping piece is a waitable
            # conflict — skip the per-piece set splits entirely.
            for piece in overlap:
                conflicts.append(Conflict(piece, other, bmode, False))
            return
        for piece in overlap:
            piece_set = IntervalSet.from_interval(piece)
            frozen_part = piece_set.intersect(frozen)
            for fp in frozen_part:
                conflicts.append(Conflict(fp, other, bmode, True))
            for up in piece_set.subtract(frozen_part):
                conflicts.append(Conflict(up, other, bmode, False))


def _as_set(want: TsInterval | IntervalSet) -> IntervalSet:
    if isinstance(want, TsInterval):
        return IntervalSet.from_interval(want)
    return want


# -- the parent server's call chains ------------------------------------------
#
# ``MVTLServer`` used to compose the primitives above per request; the
# rewrite made each composition one ``KeyLockState`` call.  The chains are
# kept here, over the model's API, as the reference for those calls.

def acquire_with_flags(state: KeyLockState, owner: TxId, mode: LockMode,
                       want: TsInterval | IntervalSet, wait: bool,
                       all_or_nothing: bool) -> AcquireResult:
    """``lockable`` -> park / refuse decision -> acquire (write-lock and
    batch-lock handlers): reference for ``try_acquire(wait=,
    all_or_nothing=)``."""
    probe = state.lockable(owner, mode, want)
    if not probe.fully_acquired and (
            all_or_nothing or (wait and not probe.any_frozen_conflict)):
        return probe  # parked or refused: nothing recorded
    return state.try_acquire(owner, mode, want)


def read_lock_after(state: KeyLockState, owner: TxId, tr, upper,
                    floor=None, wait: bool = False):
    """``frozen_write_ranges`` -> subtract -> ``lockable`` -> ``grant``
    (read handler): reference for ``acquire_read_after``."""
    want = IntervalSet.from_interval(TsInterval.open_closed(tr, upper))
    avail = want.subtract(state.frozen_write_ranges())
    if avail.is_empty or avail.pieces[0].lo != want.pieces[0].lo:
        return EMPTY_SET, False  # a frozen write sits right above tr
    first = avail.pieces[0]
    acquired = state.lockable(owner, LockMode.READ, first).acquired
    prefix = None
    if not acquired.is_empty and acquired.pieces[0].lo == first.lo:
        prefix = acquired.pieces[0]
    if floor is None:
        floor = upper
    reaches_floor = prefix is not None and prefix.hi >= floor
    unfrozen_limited = prefix is None or prefix.hi != first.hi
    if wait and not reaches_floor and unfrozen_limited:
        return None, True  # park
    if prefix is None:
        return EMPTY_SET, True
    state.grant(owner, LockMode.READ, prefix)
    return IntervalSet.from_interval(prefix), prefix.hi != upper


def hold_read(state: KeyLockState, owner: TxId,
              span: TsInterval | IntervalSet) -> bool:
    """``held`` -> ``try_acquire`` (commit handler's follower read-span
    mirror; the seal freezes the span): reference for ``hold_read``."""
    acquire = state.held(owner, LockMode.READ).is_empty
    if acquire:
        state.try_acquire(owner, LockMode.READ, span)
    return acquire


def unfrozen_write_at_or_below(state: KeyLockState, ts) -> bool:
    """The snapshot-read guard's owner scan."""
    for owner in state.owners():
        held = state.held(owner, LockMode.WRITE)
        if held.is_empty:
            continue
        unfrozen = held.subtract(state.frozen(owner, LockMode.WRITE))
        if not unfrozen.is_empty and unfrozen.min_member() <= ts:
            return True
    return False


def seal_with_spans(state: KeyLockState, owner: TxId,
                    read_span: TsInterval | IntervalSet | None,
                    write_span: TsInterval | IntervalSet | None,
                    keep_all_reads: bool) -> None:
    """``freeze(READ)`` -> ``freeze(WRITE)`` -> ``seal`` (commit handler,
    engine gc): reference for ``seal(owner, read_span, write_span,
    keep_all_reads)``."""
    if read_span is not None:
        state.freeze(owner, LockMode.READ, read_span)
    if write_span is not None:
        state.freeze(owner, LockMode.WRITE, write_span)
    state.seal(owner, keep_all_reads=keep_all_reads)
