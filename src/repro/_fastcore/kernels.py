"""Pure-Python fast-core kernels over flat interval/version arrays.

This module is the one implementation behind :mod:`repro._fastcore`; the
differential hypothesis suites (``tests/core/test_intervals_fastpath.py``,
``tests/core/test_versions_model.py``) pin it against the original
object-based algebra and a naive version-chain model.

Representation
--------------
An interval set is a **flat tuple** of scalars, four per piece::

    (lo_v, lo_p, hi_v, hi_p,  lo_v, lo_p, hi_v, hi_p,  ...)

where ``(v, p)`` is a timestamp — clock ``value`` (float) and ``pid``
(int), ordered lexicographically exactly like
:class:`repro.core.timestamp.Timestamp`.  Pieces are sorted, pairwise
disjoint, and non-adjacent (the canonical form
:func:`repro.core.intervals.IntervalSet` always maintained); every piece is
a canonically *closed* range ``[lo, hi]`` with ``lo <= hi``.

The discrete successor/predecessor on the timestamp line are
``succ(v, p) = (v, p + 1)`` and ``pred(v, p) = (v, p - 1)`` — the pid axis
makes every timestamp's neighbours representable, so subtraction and
adjacency need no open endpoints.

Version chains are **parallel arrays** ``ts_v`` (values) / ``ts_p`` (pids)
plus a values list kept by the caller; :func:`vc_floor` is the shared
lexicographic bisect.

Object identity contract
------------------------
Scalars flow through unchanged: output endpoints reuse the *objects* from
the input tuples (so an ``int``-valued timestamp stays an ``int``), and
when an operation's result equals one of its operands the operand tuple
itself is returned.  Callers exploit this: ``IntervalSet`` maps
``result is operand_flat`` back to the operand set object, which makes the
ubiquitous ``new_state != old_state`` checks in the lock table an identity
comparison.

One piece against a long run
----------------------------
The lock table's traffic is narrow: a request is one piece, a per-key
sealed run is dozens.  ``iv_intersect`` / ``iv_union`` / ``iv_subtract``
therefore enter through :func:`iv_seek` — a binary search for the first
piece of the run that reaches the single piece — touch only the pieces the
single piece overlaps, and splice the run's untouched head and tail back
with tuple slices, so the cost is O(log n) comparisons plus one C-level
copy instead of a Python-level merge over every piece.  The two-stream
merges below remain the general path for multi-piece × multi-piece.

Numeric domain: timestamp values are clock readings (floats, or small ints
in tests).
"""

from __future__ import annotations

__all__ = ["iv_contains", "iv_intersect", "iv_normalize", "iv_seek",
           "iv_subtract", "iv_union", "vc_floor"]


def iv_seek(flat: tuple, v: float, p: int) -> int:
    """Offset of the first piece whose ``hi`` is at or above ``(v, p)``.

    Binary search over the sorted pieces (``len(flat)`` when every piece
    lies below): the piece found is the only candidate to contain
    ``(v, p)`` and the first that an interval starting there can overlap.
    """
    lo = 0
    hi = len(flat) >> 2
    while lo < hi:
        mid = (lo + hi) >> 1
        k = (mid << 2) + 2
        hv = flat[k]
        if hv < v or (hv == v and flat[k + 1] < p):
            lo = mid + 1
        else:
            hi = mid
    return lo << 2


def iv_contains(flat: tuple, v: float, p: int) -> bool:
    """Whether timestamp ``(v, p)`` lies in the set.

    Linear scan with an early exit: piece counts are tiny (usually 1-2),
    and pieces are sorted, so the first piece starting above ``(v, p)``
    ends the search.
    """
    for i in range(0, len(flat), 4):
        lo_v = flat[i]
        if v < lo_v or (v == lo_v and p < flat[i + 1]):
            return False  # sorted: every later piece starts higher still
        hi_v = flat[i + 2]
        if v < hi_v or (v == hi_v and p <= flat[i + 3]):
            return True
    return False


def iv_intersect(a: tuple, b: tuple) -> tuple:
    """Intersection of two flat sets (canonical in, canonical out)."""
    if not a or not b:
        return ()
    if len(a) == 4 and len(b) == 4:
        # Fast path: lock state is almost always one contiguous range.
        alo_v, alo_p, ahi_v, ahi_p = a
        blo_v, blo_p, bhi_v, bhi_p = b
        if alo_v > blo_v or (alo_v == blo_v and alo_p >= blo_p):
            lo_v, lo_p, lo_src = alo_v, alo_p, a
        else:
            lo_v, lo_p, lo_src = blo_v, blo_p, b
        if ahi_v < bhi_v or (ahi_v == bhi_v and ahi_p <= bhi_p):
            hi_v, hi_p, hi_src = ahi_v, ahi_p, a
        else:
            hi_v, hi_p, hi_src = bhi_v, bhi_p, b
        if lo_v > hi_v or (lo_v == hi_v and lo_p > hi_p):
            return ()
        if lo_src is hi_src:
            return lo_src  # containment: the result IS one operand
        res = (lo_v, lo_p, hi_v, hi_p)
        # Mixed sources can still equal b numerically (ties prefer a's
        # endpoint): keep the contract "equal to an operand IS the operand".
        # Equalling a is impossible here — that would make both picks a.
        if res == b:
            return b
        return res
    if len(a) == 4:
        return _clip_run(b, a)
    if len(b) == 4:
        return _clip_run(a, b)
    out: list = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        alo_v, alo_p, ahi_v, ahi_p = a[i], a[i + 1], a[i + 2], a[i + 3]
        blo_v, blo_p, bhi_v, bhi_p = b[j], b[j + 1], b[j + 2], b[j + 3]
        if alo_v > blo_v or (alo_v == blo_v and alo_p >= blo_p):
            lo_v, lo_p = alo_v, alo_p
        else:
            lo_v, lo_p = blo_v, blo_p
        if ahi_v < bhi_v or (ahi_v == bhi_v and ahi_p <= bhi_p):
            hi_v, hi_p = ahi_v, ahi_p
            i += 4  # a's piece is exhausted first
        else:
            hi_v, hi_p = bhi_v, bhi_p
            j += 4
        if lo_v < hi_v or (lo_v == hi_v and lo_p <= hi_p):
            out.append(lo_v)
            out.append(lo_p)
            out.append(hi_v)
            out.append(hi_p)
    res = tuple(out)
    if res == a:
        return a
    if res == b:
        return b
    return res


def _span(run: tuple, lo_v: float, lo_p: int, hi_v: float,
          hi_p: int) -> tuple[int, int]:
    """Offsets ``(i, j)`` of the pieces of ``run`` overlapping ``[lo, hi]``:
    seek to the first piece reaching ``lo``, walk while pieces start at or
    below ``hi`` (``i == j`` when none does)."""
    i = j = iv_seek(run, lo_v, lo_p)
    n = len(run)
    while j < n and (run[j] < hi_v or (run[j] == hi_v and run[j + 1] <= hi_p)):
        j += 4
    return i, j


def _clip_run(run: tuple, one: tuple) -> tuple:
    """``run ∩ one`` for a multi-piece ``run`` and a single piece ``one``.

    Only the first and last overlapping pieces can be cut; the pieces
    between them lie inside ``one`` and are copied as one slice.
    """
    lo_v, lo_p, hi_v, hi_p = one
    i, j = _span(run, lo_v, lo_p, hi_v, hi_p)
    if j == i:
        return ()  # every piece ends below one.lo or starts above one.hi
    flo_v, flo_p = run[i], run[i + 1]
    lhi_v, lhi_p = run[j - 2], run[j - 1]
    trim_lo = flo_v < lo_v or (flo_v == lo_v and flo_p < lo_p)
    trim_hi = lhi_v > hi_v or (lhi_v == hi_v and lhi_p > hi_p)
    if trim_lo or trim_hi:
        res = (((lo_v, lo_p) if trim_lo else (flo_v, flo_p))
               + run[i + 2:j - 2]
               + ((hi_v, hi_p) if trim_hi else (lhi_v, lhi_p)))
    elif j - i == len(run):
        return run  # every piece of the run lies inside one
    else:
        res = run[i:j]
    return one if res == one else res


def iv_union(a: tuple, b: tuple) -> tuple:
    """Union of two flat sets, merging touching/adjacent pieces."""
    if not a:
        return b
    if not b:
        return a
    if len(a) == 4 and len(b) == 4:
        alo_v, alo_p, ahi_v, ahi_p = a
        blo_v, blo_p, bhi_v, bhi_p = b
        # touches: max(lo) <= succ(min(hi)), successor unrolled.
        if alo_v > blo_v or (alo_v == blo_v and alo_p >= blo_p):
            mlo_v, mlo_p = alo_v, alo_p
        else:
            mlo_v, mlo_p = blo_v, blo_p
        if ahi_v < bhi_v or (ahi_v == bhi_v and ahi_p <= bhi_p):
            mhi_v, mhi_p = ahi_v, ahi_p
        else:
            mhi_v, mhi_p = bhi_v, bhi_p
        if mlo_v < mhi_v or (mlo_v == mhi_v and mlo_p <= mhi_p + 1):
            # Overlapping/adjacent: one merged piece (reuse a containing
            # operand outright).
            if alo_v < blo_v or (alo_v == blo_v and alo_p <= blo_p):
                lo_v, lo_p, lo_src = alo_v, alo_p, a
            else:
                lo_v, lo_p, lo_src = blo_v, blo_p, b
            if ahi_v > bhi_v or (ahi_v == bhi_v and ahi_p >= bhi_p):
                hi_v, hi_p, hi_src = ahi_v, ahi_p, a
            else:
                hi_v, hi_p, hi_src = bhi_v, bhi_p, b
            if lo_src is hi_src:
                return lo_src
            res = (lo_v, lo_p, hi_v, hi_p)
            if res == b:  # ties pick a's endpoint; see iv_intersect
                return b
            return res
        if alo_v < blo_v or (alo_v == blo_v and alo_p < blo_p):
            return a + b
        return b + a
    if len(a) == 4:
        return _splice_run(b, a)
    if len(b) == 4:
        return _splice_run(a, b)
    # Linear merge of two sorted piece streams with touch-merging.
    out: list = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        if j >= nb:
            src, k = a, i
            i += 4
        elif i >= na:
            src, k = b, j
            j += 4
        else:
            alo_v, alo_p = a[i], a[i + 1]
            blo_v, blo_p = b[j], b[j + 1]
            if alo_v < blo_v or (alo_v == blo_v and alo_p <= blo_p):
                src, k = a, i
                i += 4
            else:
                src, k = b, j
                j += 4
        lo_v, lo_p = src[k], src[k + 1]
        hi_v, hi_p = src[k + 2], src[k + 3]
        if out:
            phi_v, phi_p = out[-2], out[-1]
            # touches(prev, piece): lo <= succ(prev.hi) (pieces arrive in
            # lo order, so prev.lo <= lo always).
            if lo_v < phi_v or (lo_v == phi_v and lo_p <= phi_p + 1):
                if hi_v > phi_v or (hi_v == phi_v and hi_p > phi_p):
                    out[-2] = hi_v
                    out[-1] = hi_p
                continue
        out.append(lo_v)
        out.append(lo_p)
        out.append(hi_v)
        out.append(hi_p)
    res = tuple(out)
    if res == a:
        return a
    if res == b:
        return b
    return res


def _splice_run(run: tuple, one: tuple) -> tuple:
    """``run ∪ one`` for a multi-piece ``run`` and a single piece ``one``:
    the pieces ``one`` touches collapse into one piece, spliced between the
    run's untouched head and tail."""
    lo_v, lo_p, hi_v, hi_p = one
    # Touching is overlapping [pred(one.lo), succ(one.hi)].
    i, j = _span(run, lo_v, lo_p - 1, hi_v, hi_p + 1)
    if j == i:
        return run[:i] + one + run[i:]  # touches nothing: plain insert
    flo_v, flo_p = run[i], run[i + 1]
    lhi_v, lhi_p = run[j - 2], run[j - 1]
    grow_lo = lo_v < flo_v or (lo_v == flo_v and lo_p < flo_p)
    grow_hi = hi_v > lhi_v or (hi_v == lhi_v and hi_p > lhi_p)
    if not grow_lo and not grow_hi and j == i + 4:
        return run  # one already lies inside a piece of the run
    res = (run[:i] + ((lo_v, lo_p) if grow_lo else (flo_v, flo_p))
           + ((hi_v, hi_p) if grow_hi else (lhi_v, lhi_p)) + run[j:])
    return one if res == one else res  # one swallowed the whole run


def iv_subtract(a: tuple, b: tuple) -> tuple:
    """Set difference ``a - b`` over flat sets."""
    if not a or not b:
        return a
    if len(a) == 4 and len(b) == 4:
        alo_v, alo_p, ahi_v, ahi_p = a
        blo_v, blo_p, bhi_v, bhi_p = b
        if (blo_v > ahi_v or (blo_v == ahi_v and blo_p > ahi_p)
                or alo_v > bhi_v or (alo_v == bhi_v and alo_p > bhi_p)):
            return a  # disjoint
        out: list = []
        if alo_v < blo_v or (alo_v == blo_v and alo_p < blo_p):
            out += (alo_v, alo_p, blo_v, blo_p - 1)  # [a.lo, pred(b.lo)]
        if bhi_v < ahi_v or (bhi_v == ahi_v and bhi_p < ahi_p):
            out += (bhi_v, bhi_p + 1, ahi_v, ahi_p)  # [succ(b.hi), a.hi]
        return tuple(out)
    if len(b) == 4:
        return _cut_run(a, b)
    if len(a) == 4:
        return _gaps_of_run(a, b)
    out = []
    j = 0
    nb = len(b)
    for i in range(0, len(a), 4):
        lo_v, lo_p = a[i], a[i + 1]
        hi_v, hi_p = a[i + 2], a[i + 3]
        # b pieces entirely below this a piece stay below later ones too.
        while j < nb and (b[j + 2] < lo_v
                          or (b[j + 2] == lo_v and b[j + 3] < lo_p)):
            j += 4
        k = j
        while k < nb:
            blo_v, blo_p = b[k], b[k + 1]
            bhi_v, bhi_p = b[k + 2], b[k + 3]
            if blo_v > hi_v or (blo_v == hi_v and blo_p > hi_p):
                break  # b piece starts past the remainder
            if lo_v < blo_v or (lo_v == blo_v and lo_p < blo_p):
                out += (lo_v, lo_p, blo_v, blo_p - 1)
            # Remainder continues just above b's piece.
            lo_v, lo_p = bhi_v, bhi_p + 1
            if lo_v > hi_v or (lo_v == hi_v and lo_p > hi_p):
                lo_v = None  # fully consumed
                break
            k += 4
        if lo_v is not None:
            out += (lo_v, lo_p, hi_v, hi_p)
    res = tuple(out)
    if res == a:
        return a
    return res


def _cut_run(run: tuple, one: tuple) -> tuple:
    """``run - one`` for a multi-piece ``run`` and a single piece ``one``:
    drop the pieces inside ``one``, keep what sticks out of it at either
    end, splice head and tail back."""
    lo_v, lo_p, hi_v, hi_p = one
    i, j = _span(run, lo_v, lo_p, hi_v, hi_p)
    if j == i:
        return run  # disjoint
    mid: tuple = ()
    flo_v, flo_p = run[i], run[i + 1]
    if flo_v < lo_v or (flo_v == lo_v and flo_p < lo_p):
        mid = (flo_v, flo_p, lo_v, lo_p - 1)  # [piece.lo, pred(one.lo)]
    lhi_v, lhi_p = run[j - 2], run[j - 1]
    if lhi_v > hi_v or (lhi_v == hi_v and lhi_p > hi_p):
        mid += (hi_v, hi_p + 1, lhi_v, lhi_p)  # [succ(one.hi), piece.hi]
    return run[:i] + mid + run[j:]


def _gaps_of_run(one: tuple, run: tuple) -> tuple:
    """``one - run`` for a single piece ``one`` and a multi-piece ``run``:
    what is left of ``one`` between the pieces of the run it overlaps."""
    lo_v, lo_p, hi_v, hi_p = one
    k = iv_seek(run, lo_v, lo_p)
    n = len(run)
    if k == n or run[k] > hi_v or (run[k] == hi_v and run[k + 1] > hi_p):
        return one  # disjoint
    out: list = []
    while k < n:
        blo_v, blo_p = run[k], run[k + 1]
        if blo_v > hi_v or (blo_v == hi_v and blo_p > hi_p):
            break  # starts past the remainder
        if lo_v < blo_v or (lo_v == blo_v and lo_p < blo_p):
            out += (lo_v, lo_p, blo_v, blo_p - 1)
        lo_v, lo_p = run[k + 2], run[k + 3] + 1  # resume just above
        if lo_v > hi_v or (lo_v == hi_v and lo_p > hi_p):
            return tuple(out)  # remainder fully consumed
        k += 4
    out += (lo_v, lo_p, hi_v, hi_p)
    return tuple(out)


def iv_normalize(quads: list) -> tuple:
    """Canonicalize arbitrary ``(lo_v, lo_p, hi_v, hi_p)`` quads.

    Sorts by ``lo`` and merges overlapping/adjacent pieces — the
    construction path of :class:`~repro.core.intervals.IntervalSet`.  Each
    quad must already satisfy ``lo <= hi``.
    """
    if not quads:
        return ()
    quads = sorted(quads, key=lambda q: (q[0], q[1]))
    out: list = []
    for lo_v, lo_p, hi_v, hi_p in quads:
        if out:
            phi_v, phi_p = out[-2], out[-1]
            if lo_v < phi_v or (lo_v == phi_v and lo_p <= phi_p + 1):
                if hi_v > phi_v or (hi_v == phi_v and hi_p > phi_p):
                    out[-2] = hi_v
                    out[-1] = hi_p
                continue
        out += (lo_v, lo_p, hi_v, hi_p)
    return tuple(out)


def vc_floor(ts_v: list, ts_p: list, v: float, p: int) -> int:
    """Lexicographic bisect over a version chain's parallel arrays.

    Returns the number of chain entries strictly below ``(v, p)`` —
    ``bisect_left`` semantics, so ``index - 1`` is the floor version and an
    exact match sits *at* the returned index.
    """
    lo = 0
    hi = len(ts_v)
    while lo < hi:
        mid = (lo + hi) // 2
        mv = ts_v[mid]
        if mv < v or (mv == v and ts_p[mid] < p):
            lo = mid + 1
        else:
            hi = mid
    return lo
