"""Multiversion value store — the paper's ``Values[k, t]`` array.

Each key holds a timeline of committed versions ordered by timestamp, with an
initial version ``(TS_ZERO, BOTTOM)``.  Reads are *floor* lookups: "the
version with the largest timestamp strictly before t" (§3).  Old versions can
be purged (§6) — transactions that subsequently need a purged version abort.

The store is a pure data structure; concurrency control lives in the lock
table and the engines (through :class:`MVTLStore`).  A PENDING marker supports the §6 technique for
removing Algorithm 1's atomic commit block: a committing transaction first
installs PENDING at its commit timestamp, then overwrites it with the real
value; concurrent readers that see PENDING must wait (the threaded engine
does this; the DES server installs in a single event and never needs it).

Representation: a chain is three **parallel arrays** — timestamp values
(``ts_v``), timestamp pids (``ts_p``), and the values — so every lookup is
one lexicographic bisect over scalars (:func:`repro._fastcore.vc_floor`)
with no ``Timestamp`` comparisons on the hot path.
``Timestamp``/:class:`Version` remain the API boundary: lookups
rematerialize them from the stored scalar objects, which are the exact
objects callers passed in, so values, reprs, and snapshots round-trip
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from .intervals import IntervalSet, TsInterval
from .locks import AcquireResult, LockMode, LockTable
from .timestamp import BOTTOM, TS_ZERO, Timestamp
from .._fastcore import vc_floor

__all__ = ["Version", "Pending", "PENDING", "VersionStore", "MVTLStore"]


class Pending:
    """Marker for a version whose value is not yet exposed (§6)."""

    _instance: "Pending | None" = None

    def __new__(cls) -> "Pending":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PENDING"


#: Singleton instance of :class:`Pending`.
PENDING = Pending()


@dataclass(unsafe_hash=True, slots=True)
class Version:
    """One committed (or pending) version of a key."""

    ts: Timestamp
    value: Any

    @property
    def is_pending(self) -> bool:
        return self.value is PENDING


class _KeyVersions:
    """Sorted version chain for one key, as parallel scalar arrays."""

    __slots__ = ("ts_v", "ts_p", "values")

    def __init__(self) -> None:
        self.ts_v: list[float] = [TS_ZERO.value]
        self.ts_p: list[int] = [TS_ZERO.pid]
        self.values: list[Any] = [BOTTOM]

    def floor_before(self, ts: Timestamp) -> Version | None:
        """Latest version with timestamp strictly below ``ts``, if any."""
        idx = vc_floor(self.ts_v, self.ts_p, ts.value, ts.pid)
        if idx == 0:
            return None
        idx -= 1
        return Version(Timestamp(self.ts_v[idx], self.ts_p[idx]),
                       self.values[idx])

    def at(self, ts: Timestamp) -> Version | None:
        idx = vc_floor(self.ts_v, self.ts_p, ts.value, ts.pid)
        if (idx < len(self.ts_v) and self.ts_v[idx] == ts.value
                and self.ts_p[idx] == ts.pid):
            return Version(ts, self.values[idx])
        return None

    def install(self, ts: Timestamp, value: Any) -> bool:
        """Install; returns True iff a new entry was inserted (not a
        PENDING finalization)."""
        idx = vc_floor(self.ts_v, self.ts_p, ts.value, ts.pid)
        if (idx < len(self.ts_v) and self.ts_v[idx] == ts.value
                and self.ts_p[idx] == ts.pid):
            if self.values[idx] is PENDING:
                self.values[idx] = value  # finalize a pending install
                return False
            raise ValueError(f"version at {ts!r} already exists")
        self.ts_v.insert(idx, ts.value)
        self.ts_p.insert(idx, ts.pid)
        self.values.insert(idx, value)
        return True

    def latest(self) -> Version:
        return Version(Timestamp(self.ts_v[-1], self.ts_p[-1]),
                       self.values[-1])

    def purge_before(self, bound: Timestamp) -> tuple[int, Timestamp | None]:
        """Drop versions with ts < bound, keeping the most recent of them.

        Keeping the last version below the bound preserves reads above it:
        their floor is intact.  Returns ``(dropped, kept_floor)`` where
        ``kept_floor`` is the oldest surviving version's timestamp — reads
        at or below it can no longer be served faithfully.
        """
        idx = vc_floor(self.ts_v, self.ts_p, bound.value, bound.pid)
        drop = max(0, idx - 1)
        if not drop:
            return 0, None
        del self.ts_v[:drop]
        del self.ts_p[:drop]
        del self.values[:drop]
        return drop, Timestamp(self.ts_v[0], self.ts_p[0])

    def __len__(self) -> int:
        return len(self.ts_v)


class VersionStore:
    """``Values[k, t]`` for all keys.

    Keys are created lazily with the initial ``(TS_ZERO, BOTTOM)`` version on
    first access, matching "initially Values[k, 0] = BOTTOM for every k".
    """

    __slots__ = ("_keys", "_purge_floor", "_total", "changed", "_walk")

    def __init__(self) -> None:
        self._keys: dict[Hashable, _KeyVersions] = {}
        # Per-key purge floor: reads strictly below it must abort because
        # the versions they would need may have been discarded.
        self._purge_floor: dict[Hashable, Timestamp] = {}
        # Incremental store-wide version count; state sampling reads it far
        # more often than O(keys) recounting could afford.
        self._total: int = 0
        #: Keys whose :meth:`snapshot_row` may have changed, once a
        #: checkpointer has asked (:meth:`track_changes`); None until then,
        #: so a store nobody checkpoints holds no set.
        self.changed: set[Hashable] | None = None
        # The chains a purge can shorten — every chain of two or more
        # versions, since a purge keeps the newest one below its bound.
        # A chain joins when it grows to two and leaves when a sweep finds
        # it shorter, so a sweep walks what it may change, not every key.
        # None until the first sweep, which walks every chain: a store
        # nobody purges keeps no walk.
        self._walk: dict[Hashable, _KeyVersions] | None = None

    def _chain(self, key: Hashable) -> _KeyVersions:
        chain = self._keys.get(key)
        if chain is None:
            chain = self._keys[key] = _KeyVersions()
            self._total += 1  # the implicit (TS_ZERO, BOTTOM) version
            if self.changed is not None:
                self.changed.add(key)
        return chain

    # -- reads --------------------------------------------------------------

    def latest_before(self, key: Hashable, ts: Timestamp) -> Version | None:
        """The version a timestamp-``ts`` read observes, or None if purged.

        Returns None only when the needed version was purged (§6): the
        caller must abort the transaction.
        """
        if self._purge_floor:
            floor = self._purge_floor.get(key)
            if floor is not None and ts <= floor:
                return None
        return self._chain(key).floor_before(ts)

    def version_at(self, key: Hashable, ts: Timestamp) -> Version | None:
        return self._chain(key).at(ts)

    def latest(self, key: Hashable) -> Version:
        return self._chain(key).latest()

    # -- writes --------------------------------------------------------------

    def install(self, key: Hashable, ts: Timestamp, value: Any) -> None:
        """Expose a committed value at (key, ts).

        Also finalizes a PENDING version at the same timestamp.
        """
        chain = self._chain(key)
        if chain.install(ts, value):
            self._total += 1
            if self._walk is not None and len(chain.ts_v) == 2:
                self._walk[key] = chain
        if self.changed is not None:
            self.changed.add(key)

    def install_pending(self, key: Hashable, ts: Timestamp) -> None:
        """Reserve (key, ts) with the PENDING marker (§6 atomic-block removal)."""
        chain = self._chain(key)
        if chain.install(ts, PENDING):
            self._total += 1
            if self._walk is not None and len(chain.ts_v) == 2:
                self._walk[key] = chain
        if self.changed is not None:
            self.changed.add(key)

    def drop(self, key: Hashable, ts: Timestamp) -> None:
        """Remove the version at (key, ts); used to back out PENDING installs."""
        chain = self._chain(key)
        idx = vc_floor(chain.ts_v, chain.ts_p, ts.value, ts.pid)
        if (idx < len(chain.ts_v) and chain.ts_v[idx] == ts.value
                and chain.ts_p[idx] == ts.pid):
            del chain.ts_v[idx]
            del chain.ts_p[idx]
            del chain.values[idx]
            self._total -= 1
            if self.changed is not None:
                self.changed.add(key)

    # -- purging (§6) ---------------------------------------------------------

    def purge_before(self, bound: Timestamp) -> int:
        """Purge versions older than ``bound`` on every key (keep newest-below).

        Returns the total number of versions dropped.  Reads at or below the
        kept newest-below version subsequently fail (their true floor may be
        gone); reads above it are unaffected.
        """
        dropped = 0
        bound_v = bound.value
        bound_p = bound.pid
        changed = self.changed
        walk = self._walk
        if walk is None:
            walk = self._walk = dict(self._keys)
        short = []
        for key, chain in walk.items():
            # A purge keeps the newest version below the bound, so it drops
            # something only where the *second* version is below it too —
            # tested here, before any call: a periodic sweep finds most
            # walked chains untouched.
            ts_v = chain.ts_v
            if len(ts_v) < 2:
                short.append(key)
                continue
            second = ts_v[1]
            if second > bound_v or (second == bound_v
                                    and chain.ts_p[1] >= bound_p):
                continue
            n, kept = chain.purge_before(bound)
            dropped += n
            self._raise_floor(key, kept)
            if changed is not None:
                changed.add(key)
            if len(ts_v) < 2:
                short.append(key)
        for key in short:
            del walk[key]
        self._total -= dropped
        return dropped

    def purge_key_before(self, key: Hashable, bound: Timestamp) -> int:
        chain = self._keys.get(key)
        if chain is None:
            return 0
        n, kept = chain.purge_before(bound)
        if n:
            self._total -= n
            self._raise_floor(key, kept)
            if self.changed is not None:
                self.changed.add(key)
        return n

    def _raise_floor(self, key: Hashable, kept: Timestamp | None) -> None:
        if kept is None:
            return
        prev = self._purge_floor.get(key)
        if prev is None or prev < kept:
            self._purge_floor[key] = kept

    # -- snapshot / restore (durability support) ------------------------------

    def snapshot(self) -> list[tuple[Hashable, tuple[tuple[Timestamp, Any],
                                                     ...],
                                     "Timestamp | None"]]:
        """Full dump of every chain: ``(key, ((ts, value), ...), floor)``.

        The dump is a deep copy of the chain structure (values themselves are
        shared — they are immutable strings in practice) in key-insertion
        order, so re-loading it with :meth:`load_chain` rebuilds an
        equivalent store deterministically.  PENDING markers are never
        dumped: a checkpoint captures committed state only.
        """
        return [self.snapshot_row(key) for key in self._keys]

    def snapshot_row(self, key: Hashable
                     ) -> tuple[Hashable, tuple[tuple[Timestamp, Any], ...],
                                "Timestamp | None"]:
        """``key``'s entry of :meth:`snapshot` (the key must exist)."""
        chain = self._keys[key]
        versions = tuple(
            (Timestamp(v, p), value)
            for v, p, value in zip(chain.ts_v, chain.ts_p, chain.values)
            if value is not PENDING)
        return key, versions, self._purge_floor.get(key)

    def track_changes(self) -> set[Hashable]:
        """Start recording which keys' :meth:`snapshot_row` may have changed.

        Returns the live set the store adds to from now on (a key whose
        chain is created, installed into, dropped from, purged or loaded);
        the caller owns it — reads it, clears it.  One follower at a time:
        a second call hands out a fresh set and stops feeding the first,
        which the first follower can see (``store.changed is not mine``).
        Off until asked for, because only a checkpointer wants it.
        """
        self.changed = changed = set()
        return changed

    def load_chain(self, key: Hashable,
                   versions: "tuple[tuple[Timestamp, Any], ...]",
                   floor: "Timestamp | None" = None) -> None:
        """Replace ``key``'s chain wholesale (checkpoint restore).

        ``versions`` must be sorted by timestamp; a chain that was never
        purged still starts with the implicit ``(TS_ZERO, BOTTOM)`` head, so
        a snapshot/load round trip is exact.
        """
        chain = self._keys.get(key)
        if chain is None:
            chain = self._keys[key] = _KeyVersions()
        else:
            self._total -= len(chain)
        chain.ts_v = [ts.value for ts, _ in versions]
        chain.ts_p = [ts.pid for ts, _ in versions]
        chain.values = [value for _, value in versions]
        self._total += len(chain)
        if self._walk is not None and len(chain) >= 2:
            self._walk[key] = chain
        if floor is not None:
            self._raise_floor(key, floor)
        if self.changed is not None:
            self.changed.add(key)

    # -- metrics --------------------------------------------------------------

    def version_count(self, key: Hashable | None = None) -> int:
        """Number of stored versions for ``key`` (or all keys)."""
        if key is not None:
            chain = self._keys.get(key)
            return len(chain) if chain is not None else 0
        return self._total

    def key_count(self) -> int:
        """Number of keys ever touched."""
        return len(self._keys)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._keys


class MVTLStore:
    """One node's MVTL state — a :class:`~repro.core.locks.LockTable`, a
    :class:`VersionStore` and its §6 purge floor — and Alg. 13's per-key
    steps over them: :meth:`read`, :meth:`acquire` (the write grant),
    :meth:`seal` and :meth:`purge`.  The simulated server and the threaded
    engine both run these, so the paper's two settings share one copy.

    Not thread-safe, like its parts: the engine calls each step under the
    key's stripe (a purge under every stripe), a server from its one thread.
    """

    __slots__ = ("locks", "store", "floor")

    def __init__(self) -> None:
        self.locks = LockTable()
        self.store = VersionStore()
        #: The highest purge bound so far (None before any).  The engine's
        #: commit candidates start there; a server's snapshot reads,
        #: checkpoints and re-syncs read it as its stability frontier.
        self.floor: Timestamp | None = None

    def read(self, owner: Hashable, key: Hashable, upper: Timestamp,
             floor: Timestamp | None = None, wait: bool = False
             ) -> tuple[Version | None, IntervalSet | None, bool]:
        """Alg. 13 lines 5-7: the latest version below ``upper`` and the
        read lock just above it (``KeyLockState.acquire_read_after``, with
        its ``floor`` and ``wait``).  Returns ``(version, locked,
        contended)``: ``version`` None means purged (abort), ``locked``
        None means park."""
        version = self.store.latest_before(key, upper)
        if version is None:
            return None, None, False
        locked, contended = self.locks.state(key).acquire_read_after(
            owner, version.ts, upper, floor, wait)
        if locked:
            self.locks.note_owner(owner, key)
        return version, locked, contended

    def acquire(self, owner: Hashable, key: Hashable, mode: LockMode,
                want: TsInterval | IntervalSet, wait: bool = False,
                all_or_nothing: bool = False) -> AcquireResult:
        """Alg. 13 lines 1-2: ``KeyLockState.try_acquire`` (never waits;
        ``wait`` / ``all_or_nothing`` name the partial grants it refuses),
        indexing ``owner`` under ``key`` when a grant was recorded."""
        state = self.locks.state(key)
        seen = state.version
        result = state.try_acquire(owner, mode, want, wait=wait,
                                   all_or_nothing=all_or_nothing)
        if state.version != seen:  # a grant was recorded
            self.locks.note_owner(owner, key)
        return result

    def seal(self, owner: Hashable, key: Hashable, read_span: tuple = (),
             write_span: tuple = (), keep_all_reads: bool = False) -> None:
        """End ``owner`` on a ``key`` of ``locks.forget_owner(owner)``:
        ``KeyLockState.seal`` with its commit's spans (flat quads)."""
        state = self.locks.peek(key)
        if state is not None:
            state.seal(owner, read_span, write_span, keep_all_reads)

    def purge(self, bound: Timestamp) -> int:
        """§6: drop the versions (keeping each key's newest) and the lock
        state below ``bound``, and raise :attr:`floor` to it.  Returns the
        number of versions dropped."""
        purged = self.store.purge_before(bound)
        self.locks.purge_below(
            TsInterval.closed_open(Timestamp(float("-inf"), 0), bound))
        if self.floor is None or bound > self.floor:
            self.floor = bound
        return purged
