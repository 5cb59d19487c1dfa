"""Write-ahead log: deterministic value codec + CRC-framed record stream.

The WAL models one server's disk.  Every record is framed as::

    <length: u32 LE> <crc32(payload): u32 LE> <payload>

and the payload is an arbitrary Python value (tuples of primitives,
timestamps, ...) serialised by a small deterministic codec — *not* pickle,
whose output can vary across interpreter versions and would poison the
byte-identical-replay guarantee the benches assert.

Torn tails: a crash may leave the log truncated at an arbitrary byte
offset.  :func:`replay_records` decodes frames until the first incomplete
or corrupt one and returns the clean prefix — a record (and therefore a
logged commit, which is always a single record covering all of the
transaction's keys on this server) is either fully recovered or fully
absent.  No partial transaction ever becomes visible.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator

from ..core.timestamp import BOTTOM, Timestamp

__all__ = ["encode_value", "decode_value", "frame", "replay_records",
           "WriteAheadLog"]

_HEADER = struct.Struct("<II")   # (payload length, crc32)
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")       # string/bytes lengths and item counts
_TS = struct.Struct("<dq")       # a Timestamp's (value, pid)

# One-byte type tags.  Ints use the 8-byte fixed form when they fit and a
# decimal-string escape otherwise (request counters can exceed 2**63 only
# in pathological tests, but the codec must not silently corrupt them).
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_BIGINT = b"J"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_TUPLE = b"U"
_T_DICT = b"M"
_T_TS = b"P"
_T_BOTTOM = b"O"

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class WalCorruption(ValueError):
    """A frame or payload failed to decode (torn tail / corruption)."""


def _encode_into(out: bytearray, value: Any) -> None:
    # NOTE: bool before int — bool is an int subclass.
    if value is None:
        out += _T_NONE
    elif value is True:
        out += _T_TRUE
    elif value is False:
        out += _T_FALSE
    elif value is BOTTOM:
        out += _T_BOTTOM
    elif type(value) is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out += _T_INT
            out += _I64.pack(value)
        else:
            digits = str(value).encode("ascii")
            out += _T_BIGINT
            out += _U32.pack(len(digits))
            out += digits
    elif type(value) is float:
        out += _T_FLOAT
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out += _T_STR
        out += _U32.pack(len(raw))
        out += raw
    elif type(value) is bytes:
        out += _T_BYTES
        out += _U32.pack(len(value))
        out += value
    elif type(value) is Timestamp:
        out += _T_TS
        out += _TS.pack(value.value, value.pid)
    elif type(value) is list or type(value) is tuple:
        out += _T_LIST if type(value) is list else _T_TUPLE
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif type(value) is dict:
        # Insertion order is preserved — deterministic for the dicts the
        # engines build (they are populated in sorted fan-out order).
        out += _T_DICT
        out += _U32.pack(len(value))
        for k, v in value.items():
            _encode_into(out, k)
            _encode_into(out, v)
    else:
        raise TypeError(f"WAL codec cannot encode {type(value).__name__}: "
                        f"{value!r}")


def encode_value(value: Any) -> bytes:
    """Serialise ``value`` deterministically."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_at(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise WalCorruption("truncated payload")
    tag = data[pos:pos + 1]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_BOTTOM:
        return BOTTOM, pos
    if tag == _T_INT:
        end = pos + 8
        if end > len(data):
            raise WalCorruption("truncated int")
        return _I64.unpack_from(data, pos)[0], end
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(data):
            raise WalCorruption("truncated float")
        return _F64.unpack_from(data, pos)[0], end
    if tag == _T_TS:
        end = pos + 16
        if end > len(data):
            raise WalCorruption("truncated timestamp")
        return Timestamp(*_TS.unpack_from(data, pos)), end
    if tag in (_T_STR, _T_BYTES, _T_BIGINT):
        if pos + 4 > len(data):
            raise WalCorruption("truncated length")
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        end = pos + length
        if end > len(data):
            raise WalCorruption("truncated body")
        raw = data[pos:end]
        if tag == _T_BYTES:
            return raw, end
        try:
            text = raw.decode("utf-8" if tag == _T_STR else "ascii")
        except UnicodeDecodeError as exc:
            raise WalCorruption("undecodable body") from exc
        return (text if tag == _T_STR else int(text)), end
    if tag in (_T_LIST, _T_TUPLE, _T_DICT):
        if pos + 4 > len(data):
            raise WalCorruption("truncated count")
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        if tag == _T_DICT:
            result: dict = {}
            for _ in range(count):
                k, pos = _decode_at(data, pos)
                v, pos = _decode_at(data, pos)
                result[k] = v
            return result, pos
        items = []
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    raise WalCorruption(f"unknown tag {tag!r}")


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing garbage."""
    value, pos = _decode_at(data, 0)
    if pos != len(data):
        raise WalCorruption(f"{len(data) - pos} trailing bytes")
    return value


def frame(payload: bytes) -> bytes:
    """Wrap an encoded payload in the length+CRC frame."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def replay_records(data: bytes) -> list[Any]:
    """Decode the longest clean prefix of a (possibly torn) WAL image.

    Stops at the first incomplete frame, CRC mismatch or undecodable
    payload; everything before it is returned.  Truncating a log at any
    byte offset therefore yields a *prefix* of the original record list —
    the torn-tail property the hypothesis test in ``tests/repl`` checks.
    """
    records: list[Any] = []
    pos = 0
    total = len(data)
    while pos + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, pos)
        start = pos + _HEADER.size
        end = start + length
        if end > total:
            break  # torn tail: frame body incomplete
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt frame: stop at the last good record
        try:
            records.append(decode_value(payload))
        except WalCorruption:
            break
        pos = end
    return records


class WriteAheadLog:
    """An append-only byte log with framed records (one server's WAL file).

    The backing buffer survives simulated crashes by construction: the
    server object drops its *volatile* state on ``crash()`` but keeps the
    :class:`~repro.repl.checkpoint.DurableStore` (and thus this buffer),
    exactly as a real process keeps its disk.

    Framing is lazy: :meth:`append` keeps the record, and the bytes are
    produced — every pending record, in log order — when something reads
    them (:meth:`image`, :meth:`replay`, :attr:`size_bytes`).  Nothing but
    recovery and tests reads a log, and most of a log is truncated by the
    next checkpoint unread, so the codec runs for the records somebody
    reads.  The bytes are the ones eager framing gives, as long as a
    record is not mutated after ``append`` (the servers log tuples of
    immutable values).  A record the codec refuses raises ``TypeError`` at
    the first read (and at every read after it), not at ``append``.
    """

    __slots__ = ("_buf", "_pending", "records_appended", "records_by_kind")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Records appended since the bytes were last produced, oldest
        #: first; framed onto ``_buf`` by :meth:`_framed`.
        self._pending: list[Any] = []
        self.records_appended = 0
        #: Lifetime append counts per record kind (first tuple element) —
        #: survives :meth:`truncate` like ``records_appended``, so the obs
        #: layer can report how much of the log traffic was sync replay
        #: versus ordinary commits.
        self.records_by_kind: dict[Any, int] = {}

    def append(self, record: Any) -> None:
        self._pending.append(record)
        self.records_appended += 1
        kind = record[0] if isinstance(record, tuple) and record else None
        self.records_by_kind[kind] = self.records_by_kind.get(kind, 0) + 1

    def _framed(self) -> bytearray:
        """The on-disk bytes, after framing every pending record."""
        pending = self._pending
        if pending:
            # All or nothing: a refused record leaves the buffer as it was.
            self._buf += b"".join([frame(encode_value(record))
                                   for record in pending])
            pending.clear()
        return self._buf

    def image(self) -> bytes:
        """The raw on-disk bytes (for tests and torn-tail simulation)."""
        return bytes(self._framed())

    def load_image(self, data: bytes) -> None:
        """Make ``data`` the on-disk bytes, as if the log had been written
        up to them — a torn tail is any prefix of :meth:`image`.  Counters
        are untouched: they count appends, not what the disk holds."""
        self._buf = bytearray(data)
        self._pending.clear()

    def replay(self) -> list[Any]:
        return replay_records(self._framed())

    def truncate(self) -> None:
        """Discard all records (called after a checkpoint supersedes them)."""
        self._buf.clear()
        self._pending.clear()

    @property
    def size_bytes(self) -> int:
        return len(self._framed())

    def __len__(self) -> int:
        return self.records_appended

    def __iter__(self) -> Iterator[Any]:
        return iter(self.replay())
