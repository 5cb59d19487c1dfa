"""Reference model for the WAL differential suite.

This is :class:`repro.repl.wal.WriteAheadLog` exactly as it stood before
framing became lazy: every ``append`` runs the codec and frames the record
into the byte buffer at once.  It is eager and obviously right, which is
the point: ``tests/repl/test_wal_differential.py`` drives it and the real
log in lockstep and compares every image, replay, size and counter — the
way ``tests/sim/mailbox_model.py`` serves the simulator's mailbox.

Only the class body lives here; the codec and the frame come from the
module under test, so the two logs' bytes compare by plain equality.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.repl.wal import encode_value, frame, replay_records


class WriteAheadLog:
    """An append-only byte log with framed records (one server's WAL file).

    The backing buffer survives simulated crashes by construction: the
    server object drops its *volatile* state on ``crash()`` but keeps the
    :class:`~repro.repl.checkpoint.DurableStore` (and thus this buffer),
    exactly as a real process keeps its disk.
    """

    __slots__ = ("_buf", "records_appended", "records_by_kind")

    def __init__(self) -> None:
        self._buf = bytearray()
        self.records_appended = 0
        #: Lifetime append counts per record kind (first tuple element) —
        #: survives :meth:`truncate` like ``records_appended``, so the obs
        #: layer can report how much of the log traffic was sync replay
        #: versus ordinary commits.
        self.records_by_kind: dict[Any, int] = {}

    def append(self, record: Any) -> None:
        self._buf += frame(encode_value(record))
        self.records_appended += 1
        kind = record[0] if isinstance(record, tuple) and record else None
        self.records_by_kind[kind] = self.records_by_kind.get(kind, 0) + 1

    def image(self) -> bytes:
        """The raw on-disk bytes (for tests and torn-tail simulation)."""
        return bytes(self._buf)

    def replay(self) -> list[Any]:
        return replay_records(self._buf)

    def truncate(self) -> None:
        """Discard all records (called after a checkpoint supersedes them)."""
        self._buf.clear()

    @property
    def size_bytes(self) -> int:
        return len(self._buf)

    def __len__(self) -> int:
        return self.records_appended

    def __iter__(self) -> Iterator[Any]:
        return iter(self.replay())
