"""Checkpoint/restore of a server's durable state, and the DurableStore.

A checkpoint is a codec-serialised snapshot of the version store (all
chains + purge floors), the applied-request dedup set and the stable GC
floor.  Taking one lets the WAL be truncated: recovery becomes *checkpoint
load + tail replay* instead of replaying history from the beginning —
the standard ARIES-style contract, minus undo (the DES server installs
versions only for decided commits, so the log is redo-only).

:class:`DurableStore` bundles the latest checkpoint with the WAL tail and
is the single object a server treats as its disk: it survives ``crash()``
untouched while every volatile structure (lock table, pending buffer,
reply cache) is wiped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Hashable, Iterable

from ..core.timestamp import Timestamp
from ..core.versions import VersionStore
from .wal import WriteAheadLog, decode_value, encode_value

__all__ = ["encode_snapshot", "decode_snapshot", "RecoveredState",
           "DurableStore"]

#: Record kinds in the WAL (first element of each record tuple).
COMMIT = "commit"
PURGE = "purge"
SYNC = "sync"

_SNAPSHOT_VERSION = 1

#: One row of :meth:`VersionStore.snapshot`: ``(key, versions, floor)``.
_Row = tuple[Hashable, tuple[tuple[Timestamp, Any], ...], "Timestamp | None"]


def _encode(rows: "Iterable[_Row]", dedup: "Iterable[tuple[Any, Any]]",
            stable_floor: "Timestamp | None") -> bytes:
    """Snapshot bytes from its pieces; the one snapshot assembler."""
    return encode_value(("ckpt", _SNAPSHOT_VERSION, tuple(rows),
                         tuple(dedup), stable_floor))


def encode_snapshot(store: VersionStore,
                    dedup: "Iterable[tuple[Any, Any]]",
                    stable_floor: "Timestamp | None") -> bytes:
    """Serialise a deep snapshot of the durable state.

    ``dedup`` is any iterable of ``(client, req_id)`` pairs, oldest first
    (a server passes its live ordered mapping); it is read exactly once,
    here.
    """
    return _encode(store.snapshot(), dedup, stable_floor)


def decode_snapshot(blob: bytes) -> tuple[VersionStore,
                                          "list[tuple[Any, Any]]",
                                          "Timestamp | None"]:
    """Rebuild ``(store, dedup, stable_floor)`` from snapshot bytes."""
    tag, version, chains, dedup, stable_floor = decode_value(blob)
    if tag != "ckpt" or version != _SNAPSHOT_VERSION:
        raise ValueError(f"bad snapshot header ({tag!r}, {version!r})")
    store = VersionStore()
    for key, versions, floor in chains:
        store.load_chain(key, versions, floor)
    return store, list(dedup), stable_floor


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.recover` hands back to a restarting server."""

    store: VersionStore
    #: ``(client, req_id)`` pairs of already-applied commit requests, oldest
    #: first — the restart re-primes its dedup cache from these so a retried
    #: already-committed request cannot double-apply.
    dedup: list[tuple[Any, Any]] = field(default_factory=list)
    #: The highest GC purge bound the server had applied (its snapshot-read
    #: stability frontier), if any.
    stable_floor: "Timestamp | None" = None
    #: Committed version installs replayed from the WAL tail (diagnostics).
    replayed_installs: int = 0


class DurableStore:
    """One server's disk: latest checkpoint + WAL tail.

    ``checkpoint_every`` > 0 takes a checkpoint (and truncates the WAL)
    every that-many logged records; 0 disables checkpointing, leaving pure
    log replay.

    Bytes are produced on read, not on write.  A checkpoint encodes
    nothing: it takes :meth:`VersionStore.snapshot_row` of each key the
    store reports changed since the last one
    (:meth:`VersionStore.track_changes`), keeping every other key's row
    from before, and copies the dedup pairs and the floor.  The first
    :meth:`snapshot` after it assembles the bytes — exactly what
    :func:`encode_snapshot` gives for the state at checkpoint time — and
    keeps them until the next checkpoint.  The WAL frames its records the
    same way, on read.  Nothing reads either but recovery (and tests), so
    a run pays the codec for what it recovers, and recovery still decodes
    real bytes.
    """

    __slots__ = ("wal", "checkpoint_every", "checkpoints",
                 "_since_checkpoint", "_dirty", "_rows", "_dedup", "_floor",
                 "_blob")

    def __init__(self, *, checkpoint_every: int = 0) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.wal = WriteAheadLog()
        self.checkpoint_every = checkpoint_every
        self.checkpoints = 0
        self._since_checkpoint = 0
        #: The changed-key set of the store being followed (the store adds,
        #: a checkpoint clears; until the first checkpoint, a set no store
        #: has) and, as of the last checkpoint, that store's rows by key in
        #: the store's key order, its dedup pairs and its floor.
        self._dirty: "set[Hashable]" = set()
        self._rows: "dict[Hashable, _Row | None]" = {}
        self._dedup: "tuple[tuple[Any, Any], ...]" = ()
        self._floor: "Timestamp | None" = None
        #: The last checkpoint's bytes, once read.
        self._blob: bytes | None = None

    # -- logging -----------------------------------------------------------

    def log_commit(self, tx_id: Any, ts: Timestamp,
                   entries: "tuple[tuple[Hashable, Any], ...]",
                   client: Any = None, req_id: Any = None) -> None:
        """Log a commit application: all of the tx's installs on this server.

        One record per commit keeps recovery atomic per transaction — a
        torn tail either replays the whole commit or none of it.  ``client``
        / ``req_id`` identify the CommitReq that caused the application (None
        for the write-lock-timeout recovery path) and seed the dedup cache
        on restart.
        """
        self.wal.append((COMMIT, tx_id, ts, entries, client, req_id))
        self._since_checkpoint += 1

    def log_purge(self, bound: Timestamp) -> None:
        self.wal.append((PURGE, bound))
        self._since_checkpoint += 1

    def log_sync(self,
                 entries: "tuple[tuple[Hashable, Timestamp, Any], ...]"
                 ) -> None:
        """Log one applied anti-entropy batch (DESIGN.md §5h).

        Versions installed by a sync session must be as durable as ones
        installed by a CommitReq — otherwise a crash after the session
        cleared ``snapshot_dirty`` (but before the next checkpoint) would
        recover a state the servability proof no longer covers.  Dirtiness
        itself is volatile: a restart always comes back dirty and re-earns
        servability through a fresh full sync.
        """
        self.wal.append((SYNC, entries))
        self._since_checkpoint += 1

    # -- checkpointing ------------------------------------------------------

    def maybe_checkpoint(self, store: VersionStore,
                         dedup: "Iterable[tuple[Any, Any]]",
                         stable_floor: "Timestamp | None") -> bool:
        """Checkpoint if ``checkpoint_every`` records have been logged.

        Called after every WAL record, so ``dedup`` must be cheap to pass:
        it is only iterated (copied by :meth:`checkpoint`) when a checkpoint
        actually fires.
        """
        if (self.checkpoint_every
                and self._since_checkpoint >= self.checkpoint_every):
            self.checkpoint(store, dedup, stable_floor)
            return True
        return False

    def checkpoint(self, store: VersionStore,
                   dedup: "Iterable[tuple[Any, Any]]",
                   stable_floor: "Timestamp | None") -> None:
        """Capture the live state and truncate the log it supersedes."""
        dirty = self._dirty
        if store.changed is not dirty:
            # Not the store the kept rows describe — the first checkpoint,
            # or ``restart()`` installed a recovered store (or somebody else
            # took over its change feed): start over with every row.
            self._dirty = store.track_changes()
            self._rows = {key: store.snapshot_row(key)
                          for key in store.keys()}
        else:
            rows = self._rows
            # Keys only ever join a store, at the end: the new ones keep
            # the store's order (and its own key objects) here, and the
            # change feed, which has them all, fills them in.
            for key in islice(store.keys(), len(rows), None):
                rows[key] = None
            for key in dirty:
                rows[key] = store.snapshot_row(key)
            dirty.clear()
        self._dedup = tuple(dedup)
        self._floor = stable_floor
        self._blob = None
        self.wal.truncate()
        self._since_checkpoint = 0
        self.checkpoints += 1

    def snapshot(self) -> bytes | None:
        """The latest checkpoint's bytes (None before the first one),
        assembled on the first read after it."""
        if self._blob is None and self.checkpoints:
            # ``7`` and ``7.0`` are one key to the store and two to the
            # codec: a row taken under another spelling than the store's
            # own key object is re-keyed.
            self._blob = _encode(
                (row if row[0] is key else (key,) + row[1:]
                 for key, row in self._rows.items()),
                self._dedup, self._floor)
        return self._blob

    # -- recovery ----------------------------------------------------------

    def recover(self, *,
                aborted: "Callable[[Any], bool] | None" = None
                ) -> RecoveredState:
        """Checkpoint load + WAL tail replay -> a fresh committed state.

        ``aborted`` (optional) consults the commitment registry's decision
        tombstones: a logged commit whose transaction is known to have been
        decided ABORT is skipped.  This cannot happen for records this
        module writes (only decided commits are logged) but keeps recovery
        sound if a log is shared or hand-built.
        """
        blob = self.snapshot()
        if blob is not None:
            store, dedup, stable_floor = decode_snapshot(blob)
        else:
            store, dedup, stable_floor = VersionStore(), [], None
        seen = set(dedup)
        replayed = 0
        for record in self.wal.replay():
            kind = record[0]
            if kind == COMMIT:
                _, tx_id, ts, entries, client, req_id = record
                if aborted is not None and aborted(tx_id):
                    continue
                for key, value in entries:
                    # Guarded install: idempotent across checkpoint overlap
                    # and the timeout-then-CommitReq double-log case.
                    if store.version_at(key, ts) is None:
                        store.install(key, ts, value)
                        replayed += 1
                if client is not None and (client, req_id) not in seen:
                    seen.add((client, req_id))
                    dedup.append((client, req_id))
            elif kind == PURGE:
                _, bound = record
                store.purge_before(bound)
                if stable_floor is None or bound > stable_floor:
                    stable_floor = bound
            elif kind == SYNC:
                _, entries = record
                for key, ts, value in entries:
                    # Guarded like COMMIT replay: the same version may also
                    # arrive via a logged commit or checkpoint overlap.
                    if store.version_at(key, ts) is None:
                        store.install(key, ts, value)
                        replayed += 1
        return RecoveredState(store=store, dedup=dedup,
                              stable_floor=stable_floor,
                              replayed_installs=replayed)
