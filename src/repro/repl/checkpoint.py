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
from typing import Any, Callable, Hashable, Iterable, Sequence

from ..core.timestamp import Timestamp
from ..core.versions import VersionStore
from .wal import WriteAheadLog, decode_value, encode_value, tuple_header

__all__ = ["encode_snapshot", "decode_snapshot", "RecoveredState",
           "DurableStore"]

#: Record kinds in the WAL (first element of each record tuple).
COMMIT = "commit"
PURGE = "purge"
SYNC = "sync"

_SNAPSHOT_VERSION = 1

#: A snapshot is ``encode_value(("ckpt", version, rows, dedup, floor))``
#: with ``rows = tuple(store.snapshot())``; this is everything before the
#: rows tuple.
_SNAPSHOT_HEAD = (tuple_header(5) + encode_value("ckpt")
                  + encode_value(_SNAPSHOT_VERSION))

#: Dedup pairs and their encodings, in log order (see ``_assemble``).
_PairCache = tuple[Sequence[tuple[Any, Any]], Sequence[bytes]]
_NO_PAIRS: _PairCache = ((), ())


def _assemble(store: VersionStore, rows: "dict[Hashable, bytes]",
              dedup: "Iterable[tuple[Any, Any]]", pairs: _PairCache,
              stable_floor: "Timestamp | None"
              ) -> tuple[bytes, _PairCache]:
    """Snapshot bytes from cached pieces; the one snapshot encoder.

    ``rows`` maps a key to the encoding of its ``snapshot_row``; a missing
    row is encoded now and added.  ``pairs`` is what the previous call
    returned beside the bytes: the dedup pairs it saw and their encodings,
    in order.  The cache returned holds the pairs seen *this* time only,
    so it never outgrows the dedup log.
    """
    parts = [_SNAPSHOT_HEAD, tuple_header(store.key_count())]
    for key in store.keys():
        blob = rows.get(key)
        if blob is None:
            blob = rows[key] = encode_value(store.snapshot_row(key))
        parts.append(blob)
    # The dedup log loses pairs on the left and gains them on the right, so
    # the pairs still here from last time come in last time's order: walk
    # both in step.  Matched by identity — ``(1, 7)`` and ``(True, 7)`` are
    # equal, hash alike and encode differently, while a live dedup mapping
    # yields the same tuple objects checkpoint after checkpoint.  Any other
    # order only costs re-encoding.
    old_pairs, old_blobs = pairs
    seen: list = []
    blobs: "list[bytes]" = []
    at, end = 0, len(old_pairs)
    for pair in dedup:
        while at < end and old_pairs[at] is not pair:
            at += 1
        blobs.append(old_blobs[at] if at < end else encode_value(pair))
        seen.append(pair)
    parts.append(tuple_header(len(blobs)))
    parts += blobs
    parts.append(encode_value(stable_floor))
    return b"".join(parts), (seen, blobs)


def encode_snapshot(store: VersionStore,
                    dedup: "Iterable[tuple[Any, Any]]",
                    stable_floor: "Timestamp | None") -> bytes:
    """Serialise a deep snapshot of the durable state.

    ``dedup`` is any iterable of ``(client, req_id)`` pairs, oldest first
    (a server passes its live ordered mapping); it is read exactly once,
    here.
    """
    return _assemble(store, {}, dedup, _NO_PAIRS, stable_floor)[0]


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

    A checkpoint costs what changed since the last one, not the size of
    the store: the encoded row of every key and the encoding of every
    dedup pair are kept, the store is asked which keys changed
    (:meth:`VersionStore.track_changes`), and only those rows are encoded
    again before the pieces are joined — into exactly the bytes
    :func:`encode_snapshot` gives for the same state.
    """

    __slots__ = ("wal", "checkpoint_every", "checkpoints", "_snapshot",
                 "_since_checkpoint", "_dirty", "_rows", "_pairs")

    def __init__(self, *, checkpoint_every: int = 0) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.wal = WriteAheadLog()
        self.checkpoint_every = checkpoint_every
        self.checkpoints = 0
        self._snapshot: bytes | None = None
        self._since_checkpoint = 0
        #: The changed-key set of the store being followed (the store adds,
        #: a checkpoint clears; until the first checkpoint, a set no store
        #: has), that store's encoded rows, and the last checkpoint's dedup
        #: pairs with their encodings.
        self._dirty: "set[Hashable]" = set()
        self._rows: "dict[Hashable, bytes]" = {}
        self._pairs = _NO_PAIRS

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
        it is only iterated (by :func:`encode_snapshot`) when a checkpoint
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
        """Snapshot the live state and truncate the log it supersedes."""
        if store.changed is not self._dirty:
            # Not the store the cached rows describe — the first checkpoint,
            # or ``restart()`` installed a recovered store (or somebody else
            # took over its change feed): start over with every row.
            self._dirty = store.track_changes()
            self._rows = {}
        else:
            for key in self._dirty:
                self._rows.pop(key, None)
            self._dirty.clear()
        self._snapshot, self._pairs = _assemble(
            store, self._rows, dedup, self._pairs, stable_floor)
        self.wal.truncate()
        self._since_checkpoint = 0
        self.checkpoints += 1

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
        if self._snapshot is not None:
            store, dedup, stable_floor = decode_snapshot(self._snapshot)
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
