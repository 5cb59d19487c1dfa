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

The lock-table work gave the kernels a binary-searched entry for one piece
against a long run; ``TestKernelsLongRuns`` drives it on 16-64 piece runs
with the single piece's endpoints taken from the run's own (so adjacency,
containment and equality edges dominate), in both operand orders.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._fastcore import kernels
from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval, ts_succ
from repro.core.timestamp import Timestamp
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


def assert_operand_identity(got: tuple, *operands: tuple) -> None:
    """A result equal to an operand must BE that operand's tuple."""
    for operand in operands:
        if got == operand:
            assert any(got is o for o in operands if o == got)
            return


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
        got = kernels.iv_intersect(a.flat, b.flat)
        assert got == ref_intersect(a, b).flat
        assert_operand_identity(got, a.flat, b.flat)

    @given(interval_sets(), interval_sets())
    def test_union(self, a, b):
        got = kernels.iv_union(a.flat, b.flat)
        assert got == ref_union(a, b).flat
        assert_operand_identity(got, a.flat, b.flat)

    @given(interval_sets(), interval_sets())
    def test_subtract(self, a, b):
        got = kernels.iv_subtract(a.flat, b.flat)
        assert got == ref_subtract(a, b).flat
        assert_operand_identity(got, a.flat)

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


# -- one piece against a long run (the binary-searched kernel entries) --------

def long_interval_sets(min_pieces: int = 16, max_pieces: int = 64,
                       value=float):
    """Canonical sets of 16-64 pieces: long enough that the one-piece
    kernels must seek into the run instead of merging from its start.
    Pieces sit on a coarse clock grid with small pid offsets, including
    several pieces at one clock value separated only on the pid axis."""

    def build(steps):
        pieces, v = [], 0
        for gap, width, p, q in steps:
            v += gap
            lo, hi = Timestamp(value(v), p), Timestamp(value(v + width), q)
            pieces.append(TsInterval(min(lo, hi), max(lo, hi)))
            v += width
        return IntervalSet(pieces)

    step = st.tuples(st.integers(0, 3), st.integers(0, 2),
                     st.integers(-4, 4), st.integers(-4, 4))
    return (st.lists(step, min_size=min_pieces + 8, max_size=max_pieces)
            .map(build)
            .filter(lambda s: min_pieces <= len(s) <= max_pieces))


@st.composite
def run_and_piece(draw, value=float):
    """A long run plus one piece whose endpoints are drawn *from the run's
    own endpoints*, nudged by -1/0/+1 on the pid axis: every touch-merge
    edge (``want.lo == succ(piece.hi)``, ``want.hi == pred(piece.lo)``,
    equal clock value with adjacent pids), exact containment and exact
    equality with a piece shows up constantly."""
    run = draw(long_interval_sets(value=value))
    flat = run.flat
    ends = [Timestamp(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]

    def endpoint():
        base = draw(st.sampled_from(ends))
        return Timestamp(base.value, base.pid + draw(st.integers(-2, 2)))

    a, b = endpoint(), endpoint()
    return run, IntervalSet.from_interval(TsInterval(min(a, b), max(a, b)))


class TestKernelsLongRuns:
    """One piece x long run, in both operand orders, against the reference
    algebra — plus the identity contract and scalar pass-through."""

    @given(run_and_piece())
    def test_intersect(self, pair):
        run, one = pair
        for a, b in ((run, one), (one, run)):
            got = kernels.iv_intersect(a.flat, b.flat)
            assert got == ref_intersect(a, b).flat
            assert_operand_identity(got, a.flat, b.flat)

    @given(run_and_piece())
    def test_union(self, pair):
        run, one = pair
        for a, b in ((run, one), (one, run)):
            got = kernels.iv_union(a.flat, b.flat)
            assert got == ref_union(a, b).flat
            assert_operand_identity(got, a.flat, b.flat)

    @given(run_and_piece())
    def test_subtract(self, pair):
        run, one = pair
        for a, b in ((run, one), (one, run)):
            got = kernels.iv_subtract(a.flat, b.flat)
            assert got == ref_subtract(a, b).flat
            assert_operand_identity(got, a.flat)

    @given(run_and_piece())
    def test_contains_and_seek(self, pair):
        run, one = pair
        for ts in (one.min_member(), one.max_member()):
            want = any(piece.contains(ts) for piece in run.pieces)
            assert kernels.iv_contains(run.flat, ts.value, ts.pid) == want
            below = sum(1 for piece in run.pieces if piece.hi < ts)
            assert kernels.iv_seek(run.flat, ts.value, ts.pid) == 4 * below

    @settings(max_examples=20)
    @given(long_interval_sets(), long_interval_sets())
    def test_long_against_long(self, a, b):
        # The multi-piece x multi-piece merges are untouched by the
        # one-piece entries: still the reference, still the identity.
        assert kernels.iv_intersect(a.flat, b.flat) == ref_intersect(a, b).flat
        assert kernels.iv_union(a.flat, b.flat) == ref_union(a, b).flat
        assert kernels.iv_subtract(a.flat, b.flat) == ref_subtract(a, b).flat
        assert kernels.iv_union(a.flat, a.flat) is a.flat
        assert kernels.iv_intersect(a.flat, a.flat) is a.flat

    @given(run_and_piece(value=int))
    def test_int_endpoints_stay_int(self, pair):
        run, one = pair
        for op in (kernels.iv_intersect, kernels.iv_union,
                   kernels.iv_subtract):
            for a, b in ((run, one), (one, run)):
                assert all(type(x) is int for x in op(a.flat, b.flat))

    def test_touch_merge_edges(self):
        """The three adjacency edges, spelled out on a fixed run."""
        run = IntervalSet([TsInterval(Timestamp(float(10 * k), 0),
                                      Timestamp(float(10 * k), 3))
                           for k in range(20)])

        def one(lo, hi):
            return IntervalSet.from_interval(TsInterval(lo, hi))

        # want.lo == succ(piece.hi): merges with the piece below it.
        up = one(Timestamp(50.0, 4), Timestamp(55.0, 0))
        got = run.union(up)
        assert len(got) == len(run) and got.contains(Timestamp(52.0, 0))
        assert got == ref_union(run, up)
        # want.hi == pred(piece.lo): merges with the piece above it.
        down = one(Timestamp(45.0, 0), Timestamp(50.0, -1))
        got = run.union(down)
        assert len(got) == len(run) and got == ref_union(run, down)
        # Both at once: bridges two pieces into one.
        bridge = one(Timestamp(50.0, 4), Timestamp(60.0, -1))
        got = run.union(bridge)
        assert len(got) == len(run) - 1 and got == ref_union(run, bridge)
        # Equal clock value, one pid short of adjacent: stays separate.
        apart = one(Timestamp(50.0, 5), Timestamp(50.0, 6))
        got = run.union(apart)
        assert len(got) == len(run) + 1 and got == ref_union(run, apart)
        # Adjacent is not overlapping: intersect/subtract see nothing.
        assert run.intersect(up).is_empty and run.subtract(up) is run
        assert up.subtract(run) is up
