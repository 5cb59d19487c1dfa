"""Property tests: single-interval fast paths vs the general path, and the
flat-array kernels vs the object-level reference.

The PR-5 hot-path work gave :class:`IntervalSet` dedicated branches for the
ubiquitous one-piece case (and for raw :class:`TsInterval` operands).
These tests pin them to reference implementations of the original
general/normalized algorithms on randomized inputs, so the fast paths can
never drift from the semantics they shortcut.

The fast-core work then moved the algebra onto flat quad tuples
(``repro._fastcore.kernels``).  Every kernel must agree with the
object-level reference input for input.
"""

from __future__ import annotations

from hypothesis import given

from repro._fastcore import kernels
from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval, ts_succ
from tests.conftest import interval_sets, intervals, timestamps


# -- reference implementations (the pre-fast-path general algorithms) --------

def ref_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = []
    for x in a.pieces:
        for y in b.pieces:
            got = x.intersect(y)
            if got is not None:
                out.append(got)
    return IntervalSet(out)


def ref_union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet(list(a.pieces) + list(b.pieces))


def ref_subtract(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    pieces = list(a.pieces)
    for y in b.pieces:
        pieces = [q for x in pieces for q in x.subtract(y)]
    return IntervalSet(pieces)


def assert_normalized(s: IntervalSet) -> None:
    """Pieces must be sorted, disjoint, and non-adjacent."""
    for p, q in zip(s.pieces, s.pieces[1:]):
        assert p.hi < q.lo, f"unsorted/overlapping pieces: {p} {q}"
        assert ts_succ(p.hi) < q.lo, f"adjacent unmerged pieces: {p} {q}"


# -- agreement on arbitrary sets (1-piece inputs hit the fast paths) ---------

class TestAgainstReference:
    @given(interval_sets(), interval_sets())
    def test_intersect(self, a, b):
        got = a.intersect(b)
        assert got == ref_intersect(a, b)
        assert_normalized(got)

    @given(interval_sets(), interval_sets())
    def test_union(self, a, b):
        got = a.union(b)
        assert got == ref_union(a, b)
        assert_normalized(got)

    @given(interval_sets(), interval_sets())
    def test_subtract(self, a, b):
        got = a.subtract(b)
        assert got == ref_subtract(a, b)
        assert_normalized(got)


class TestSinglePieceExplicit:
    """Force the 1x1 fast path and compare against the reference."""

    @given(intervals(), intervals())
    def test_intersect(self, x, y):
        a, b = IntervalSet.from_interval(x), IntervalSet.from_interval(y)
        assert a.intersect(b) == ref_intersect(a, b)

    @given(intervals(), intervals())
    def test_union(self, x, y):
        a, b = IntervalSet.from_interval(x), IntervalSet.from_interval(y)
        assert a.union(b) == ref_union(a, b)

    @given(intervals(), intervals())
    def test_subtract(self, x, y):
        a, b = IntervalSet.from_interval(x), IntervalSet.from_interval(y)
        assert a.subtract(b) == ref_subtract(a, b)


class TestRawIntervalOperand:
    """Passing a TsInterval must equal passing its one-piece IntervalSet."""

    @given(interval_sets(), intervals())
    def test_intersect(self, a, y):
        assert a.intersect(y) == a.intersect(IntervalSet.from_interval(y))

    @given(interval_sets(), intervals())
    def test_union(self, a, y):
        assert a.union(y) == a.union(IntervalSet.from_interval(y))

    @given(interval_sets(), intervals())
    def test_subtract(self, a, y):
        assert a.subtract(y) == a.subtract(IntervalSet.from_interval(y))


class TestEmptyIdentities:
    @given(interval_sets())
    def test_empty_ops(self, a):
        assert a.intersect(EMPTY_SET) == EMPTY_SET
        assert EMPTY_SET.intersect(a) == EMPTY_SET
        assert a.union(EMPTY_SET) == a
        assert EMPTY_SET.union(a) == a
        assert a.subtract(EMPTY_SET) == a
        assert EMPTY_SET.subtract(a) == EMPTY_SET

    @given(intervals())
    def test_empty_set_with_raw_interval(self, y):
        assert EMPTY_SET.union(y) == IntervalSet.from_interval(y)
        assert EMPTY_SET.intersect(y) == EMPTY_SET
        assert EMPTY_SET.subtract(y) == EMPTY_SET

    @given(intervals())
    def test_self_inverse(self, y):
        a = IntervalSet.from_interval(y)
        assert a.subtract(a) == EMPTY_SET
        assert a.intersect(a) == a
        assert a.union(a) == a


# -- flat kernels vs the object-level reference ------------------------------

class TestKernels:
    """Each kernel must match the reference algorithms.

    The reference side goes through :class:`IntervalSet` piece objects (the
    pre-flat semantics); the kernel side operates on raw ``.flat`` quads.
    Equality of the resulting flats is exact tuple equality.
    """

    @given(interval_sets(), interval_sets())
    def test_intersect(self, a, b):
        assert kernels.iv_intersect(a.flat, b.flat) == ref_intersect(a, b).flat

    @given(interval_sets(), interval_sets())
    def test_union(self, a, b):
        assert kernels.iv_union(a.flat, b.flat) == ref_union(a, b).flat

    @given(interval_sets(), interval_sets())
    def test_subtract(self, a, b):
        assert kernels.iv_subtract(a.flat, b.flat) == ref_subtract(a, b).flat

    @given(interval_sets(), timestamps())
    def test_contains(self, a, ts):
        want = any(piece.contains(ts) for piece in a.pieces)
        assert kernels.iv_contains(a.flat, ts.value, ts.pid) == want

    @given(interval_sets(), interval_sets())
    def test_normalize(self, a, b):
        # Feeding both sets' quads, interleaved and unsorted, must
        # renormalize to exactly the union's flat.
        quads = []
        for flat in (b.flat, a.flat):
            for i in range(0, len(flat), 4):
                quads.append(tuple(flat[i:i + 4]))
        assert kernels.iv_normalize(quads) == ref_union(a, b).flat

    @given(interval_sets())
    def test_normalize_idempotent(self, a):
        quads = [tuple(a.flat[i:i + 4]) for i in range(0, len(a.flat), 4)]
        assert kernels.iv_normalize(quads) == a.flat
