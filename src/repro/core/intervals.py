"""Interval algebra over the timestamp line.

MVTL locks *sets of timestamps*.  Conceptually the lock state is one lock per
timestamp — an infinite state — but every algorithm in the paper only ever
locks contiguous ranges, so a practical implementation compresses the state
into intervals (§6, "Reducing lock state space").  This module provides the
exact interval arithmetic that the lock table and the policies are built on.

The timestamp domain is ``(value: float, pid: int)`` ordered lexicographically
(§4.1).  Within one clock value the pid axis gives every timestamp a
*successor* ``(v, pid+1)`` and *predecessor* ``(v, pid-1)``, so every
non-empty interval — however its endpoints were specified — is equal to a
**closed** interval ``[min_member, max_member]``.  We canonicalize on
construction: the paper's discrete ``[tr+1, te]`` (read-lock range "just
after the version read") is built with :meth:`TsInterval.open_closed`, which
yields ``[succ(tr), te]``.  Canonical closed form makes intersection, union,
subtraction, adjacency, and min/max selection exact integer/float
comparisons with no epsilon fudging and no unrepresentable "open gaps".

Representation: an :class:`IntervalSet` stores its pieces as one **flat
tuple of scalars**, four per piece — ``(lo_v, lo_p, hi_v, hi_p, ...)`` — and
the set algebra runs in the :mod:`repro._fastcore` kernels without
allocating a single :class:`TsInterval`/``Timestamp`` on the hot path.
``TsInterval`` remains the boundary type: the :attr:`IntervalSet.pieces`
view materializes (and caches) interval objects on demand, so policies,
locks, and dist messages are untouched.  The kernels reuse operand tuples
when a result equals an operand, which this module maps back to the operand
*set* object — making "did the lock state change?" an ``is``-level
comparison downstream.

Classes
-------
:class:`TsInterval`
    A non-empty contiguous range, canonically closed.
:class:`IntervalSet`
    A normalized (sorted, disjoint, non-adjacent) set of intervals; the
    value type for "the timestamps transaction tx holds locked on key k".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .timestamp import TS_INF, TS_ZERO, Timestamp
from .._fastcore import (iv_contains, iv_intersect, iv_normalize,
                         iv_subtract, iv_union)

__all__ = ["TsInterval", "IntervalSet", "EMPTY_SET", "FULL_INTERVAL",
           "ts_succ", "ts_pred"]


def ts_succ(ts: Timestamp) -> Timestamp:
    """The immediately following timestamp: ``(v, pid+1)``."""
    return Timestamp(ts.value, ts.pid + 1)


def ts_pred(ts: Timestamp) -> Timestamp:
    """The immediately preceding timestamp: ``(v, pid-1)``."""
    return Timestamp(ts.value, ts.pid - 1)


@dataclass(unsafe_hash=True, slots=True)
class TsInterval:
    """A non-empty closed interval ``[lo, hi]`` of timestamps.

    Use the named constructors to build from open/half-open specifications;
    they canonicalize to closed form (e.g. ``open_closed(a, b) ==
    closed(succ(a), b)``).
    """

    lo: Timestamp
    hi: Timestamp

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo!r}, {self.hi!r}]")

    # -- constructors ------------------------------------------------------

    @classmethod
    def closed(cls, lo: Timestamp, hi: Timestamp) -> "TsInterval":
        """``[lo, hi]``."""
        return cls(lo, hi)

    @classmethod
    def open_closed(cls, lo: Timestamp, hi: Timestamp) -> "TsInterval":
        """``(lo, hi]`` — the paper's read-lock range "[tr+1, te]"."""
        return cls(ts_succ(lo), hi)

    @classmethod
    def closed_open(cls, lo: Timestamp, hi: Timestamp) -> "TsInterval":
        """``[lo, hi)``."""
        return cls(lo, ts_pred(hi))

    @classmethod
    def open(cls, lo: Timestamp, hi: Timestamp) -> "TsInterval":
        """``(lo, hi)``."""
        return cls(ts_succ(lo), ts_pred(hi))

    @classmethod
    def point(cls, ts: Timestamp) -> "TsInterval":
        """The single timestamp ``[ts, ts]`` — a write-lock point."""
        return cls(ts, ts)

    @classmethod
    def after(cls, ts: Timestamp) -> "TsInterval":
        """``(ts, +inf]`` — everything strictly above ``ts``."""
        return cls(ts_succ(ts), TS_INF)

    # -- predicates --------------------------------------------------------

    def contains(self, ts: Timestamp) -> bool:
        """Whether ``ts`` lies in this interval."""
        return self.lo <= ts <= self.hi

    def contains_just_after(self, ts: Timestamp) -> bool:
        """Whether the interval covers the timestamp immediately above ``ts``.

        Used to find the contiguous lock coverage adjacent to a version read
        at ``ts``: a read-lock interval protects the read only if it starts
        right after the version, with no gap.  The successor comparison is
        unrolled — ``contains(ts_succ(ts))`` without the allocation.
        """
        v = ts.value
        p = ts.pid + 1
        lo = self.lo
        hi = self.hi
        return ((lo.value < v or (lo.value == v and lo.pid <= p))
                and (v < hi.value or (v == hi.value and p <= hi.pid)))

    def contains_interval(self, other: "TsInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "TsInterval") -> bool:
        """Whether the two intervals share at least one timestamp."""
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def touches(self, other: "TsInterval") -> bool:
        """Whether the intervals overlap or are immediately adjacent.

        Equivalent to ``max(lo) <= ts_succ(min(hi))`` with the successor
        comparison unrolled so no Timestamp is allocated.
        """
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return lo.value < hi.value or (lo.value == hi.value
                                       and lo.pid <= hi.pid + 1)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "TsInterval") -> "TsInterval | None":
        """The overlap of two intervals, or None if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return TsInterval(lo, hi)

    def union_contiguous(self, other: "TsInterval") -> "TsInterval":
        """Union of two touching/overlapping intervals.

        Raises ValueError if the intervals have a gap between them.
        """
        if not self.touches(other):
            raise ValueError(f"disjoint intervals: {self} | {other}")
        return TsInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def subtract(self, other: "TsInterval") -> list["TsInterval"]:
        """This interval minus ``other``: zero, one, or two pieces."""
        if not self.overlaps(other):
            return [self]
        pieces: list[TsInterval] = []
        if self.lo < other.lo:
            pieces.append(TsInterval(self.lo, ts_pred(other.lo)))
        if other.hi < self.hi:
            pieces.append(TsInterval(ts_succ(other.hi), self.hi))
        return pieces

    # -- flat view ---------------------------------------------------------

    @property
    def flat(self) -> tuple:
        """The kernel operand form ``(lo_v, lo_p, hi_v, hi_p)``."""
        lo = self.lo
        hi = self.hi
        return (lo.value, lo.pid, hi.value, hi.pid)

    # -- members -----------------------------------------------------------

    def min_member(self) -> Timestamp:
        return self.lo

    def max_member(self) -> Timestamp:
        return self.hi

    def sample(self) -> Timestamp:
        """Some member (the low endpoint)."""
        return self.lo

    def __repr__(self) -> str:
        if self.lo == self.hi:
            return f"[{self.lo!r}]"
        return f"[{self.lo!r}, {self.hi!r}]"


#: The whole timestamp line ``[TS_ZERO, TS_INF]``.
FULL_INTERVAL = TsInterval(TS_ZERO, TS_INF)


class IntervalSet:
    """An immutable, normalized set of timestamps.

    Stored as a flat scalar tuple (four scalars per sorted, pairwise
    disjoint, non-adjacent piece); see the module docstring.  This is the
    value type for questions like "which timestamps does transaction tx hold
    read-locked on key k?" and for the commit-time computation "the set T of
    timestamps locked across every accessed key" (Algorithm 1, line 13) —
    which is simply the n-way intersection of per-key IntervalSets.
    """

    __slots__ = ("_flat", "_pieces")

    def __init__(self, pieces: Iterable[TsInterval] = ()) -> None:
        self._flat: tuple = iv_normalize(
            [(p.lo.value, p.lo.pid, p.hi.value, p.hi.pid) for p in pieces])
        self._pieces: tuple[TsInterval, ...] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_flat(cls, flat: tuple) -> "IntervalSet":
        """Wrap an already-canonical kernel result (no validation)."""
        s = cls.__new__(cls)
        s._flat = flat
        s._pieces = None
        return s

    @classmethod
    def from_interval(cls, interval: TsInterval) -> "IntervalSet":
        s = cls.__new__(cls)
        lo = interval.lo
        hi = interval.hi
        s._flat = (lo.value, lo.pid, hi.value, hi.pid)
        s._pieces = (interval,)
        return s

    @classmethod
    def point(cls, ts: Timestamp) -> "IntervalSet":
        return cls.from_interval(TsInterval.point(ts))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return EMPTY_SET

    # -- queries -----------------------------------------------------------

    @property
    def flat(self) -> tuple:
        """The raw scalar tuple — the kernel operand form."""
        return self._flat

    @property
    def pieces(self) -> tuple[TsInterval, ...]:
        p = self._pieces
        if p is None:
            f = self._flat
            p = tuple(TsInterval(Timestamp(f[i], f[i + 1]),
                                 Timestamp(f[i + 2], f[i + 3]))
                      for i in range(0, len(f), 4))
            self._pieces = p
        return p

    @property
    def is_empty(self) -> bool:
        return not self._flat

    def __bool__(self) -> bool:
        return bool(self._flat)

    def __iter__(self) -> Iterator[TsInterval]:
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self._flat) // 4

    def contains(self, ts: Timestamp) -> bool:
        return iv_contains(self._flat, ts.value, ts.pid)

    def min_member(self) -> Timestamp:
        f = self._flat
        if not f:
            raise ValueError("empty IntervalSet has no minimum")
        return Timestamp(f[0], f[1])

    def max_member(self) -> Timestamp:
        f = self._flat
        if not f:
            raise ValueError("empty IntervalSet has no maximum")
        return Timestamp(f[-2], f[-1])

    def sample(self) -> Timestamp:
        f = self._flat
        if not f:
            raise ValueError("cannot sample an empty IntervalSet")
        return Timestamp(f[0], f[1])

    def pick_low(self) -> Timestamp:
        """The smallest member (the paper's ``min T``)."""
        return self.min_member()

    def pick_high(self) -> Timestamp:
        """The largest member (``max T``)."""
        return self.max_member()

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "IntervalSet | TsInterval") -> "IntervalSet":
        if isinstance(other, TsInterval):
            lo = other.lo
            hi = other.hi
            b: tuple = (lo.value, lo.pid, hi.value, hi.pid)
            other_set = None
        else:
            b = other._flat
            other_set = other
        a = self._flat
        res = iv_intersect(a, b)
        if res is a:
            return self
        if res is b and other_set is not None:
            return other_set
        if not res:
            return EMPTY_SET
        return IntervalSet._from_flat(res)

    def union(self, other: "IntervalSet | TsInterval") -> "IntervalSet":
        if isinstance(other, TsInterval):
            if not self._flat:
                return IntervalSet.from_interval(other)
            lo = other.lo
            hi = other.hi
            b: tuple = (lo.value, lo.pid, hi.value, hi.pid)
            other_set = None
        else:
            b = other._flat
            other_set = other
        a = self._flat
        res = iv_union(a, b)
        if res is a:
            return self
        if res is b and other_set is not None:
            return other_set
        return IntervalSet._from_flat(res)

    def subtract(self, other: "IntervalSet | TsInterval") -> "IntervalSet":
        if isinstance(other, TsInterval):
            lo = other.lo
            hi = other.hi
            b: tuple = (lo.value, lo.pid, hi.value, hi.pid)
        else:
            b = other._flat
        a = self._flat
        res = iv_subtract(a, b)
        if res is a:
            return self
        if not res:
            return EMPTY_SET
        return IntervalSet._from_flat(res)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._flat is other._flat or self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        if not self._flat:
            return "IntervalSet()"
        return "IntervalSet(" + " U ".join(map(repr, self.pieces)) + ")"


#: The empty set of timestamps.
EMPTY_SET = IntervalSet()
