"""Rule-based differential testing of the freezable lock table.

Hypothesis drives arbitrary acquire / grant / freeze / release / seal /
purge sequences — and the servers' one-call request entry points —
against two lock states in lockstep — the
object-level reference model (``tests/core/lock_model.py``, the
implementation as it stood before the flat-quad rewrite) and
:class:`repro.core.locks.KeyLockState` — and compares every observable
after every rule: what each call returned (grant, the conflict *set*,
``fully_acquired`` / ``any_frozen_conflict``), ``FrozenConflictError``
parity, whether ``version`` moved, and the whole queryable state (``held``
/ ``frozen`` per owner and mode, both sealed ranges,
``frozen_write_ranges``, ``record_count``, ``is_empty``, ``owners``).

The safety invariants of the original suite still run on the
implementation after every step:

* no two owners hold conflicting locks at any timestamp;
* frozen is always a subset of held;
* sealed ranges never overlap a live owner's conflicting grants.

Two machines share the rules.  ``TestLockTableStateful`` works on a small
dense grid (values 0..12, pids -1..2) where overlap, containment and
pid-adjacency collide constantly.  ``TestLockTableLongRuns`` first seals
40+ disjoint points and spans, so every probe, seal and purge meets sealed
runs long enough to take the binary-searched paths rather than the <= 4
pieces the small grid produces.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import FrozenConflictError, KeyLockState, LockMode
from repro.core.timestamp import Timestamp
from tests.core import lock_model

OWNERS = ["t1", "t2", "t3"]
MODES = [LockMode.READ, LockMode.WRITE]


def T(v, p=0):
    return Timestamp(float(v), p)


def intervals_on(max_value: int):
    """Closed intervals on a dense grid: ties, containment and pid
    adjacency (``hi.pid + 1 == lo.pid`` at one clock value) are common.
    Mostly narrow (a few clock values wide), sometimes arbitrary."""
    width = st.one_of(st.integers(0, 3), st.integers(0, max_value))
    pids = st.integers(-1, 2)

    def build(a, w, p, q):
        lo, hi = T(a, p), T(a + w, q)
        return TsInterval(min(lo, hi), max(lo, hi))

    return st.builds(build, st.integers(0, max_value), width, pids, pids)


def wants_on(max_value: int):
    """A request operand: a raw TsInterval or a multi-piece IntervalSet."""
    iv = intervals_on(max_value)
    return st.one_of(iv, st.lists(iv, min_size=1, max_size=3).map(IntervalSet))


def _outcome(call, state):
    """Normalize one call's result so model and implementation compare."""
    try:
        out = call(state)
    except FrozenConflictError:
        return "FrozenConflictError"
    if hasattr(out, "conflicts"):  # an acquire/probe result
        return (out.acquired,
                frozenset((c.interval, c.holder, c.mode, c.frozen)
                          for c in out.conflicts),
                out.fully_acquired, out.any_frozen_conflict)
    return out


def _flat(span):
    """A drawn span as the flat quads ``seal`` takes; ``()`` for none."""
    return () if span is None else span.flat


def make_machine(max_value: int, presealed: int = 0):
    """Build the lockstep machine over ``[0, max_value]``; ``presealed``
    disjoint sealed records are laid down before the first rule."""
    spans = wants_on(max_value)
    stamps = st.builds(T, st.integers(0, max_value), st.integers(-1, 2))
    owners = st.sampled_from(OWNERS)
    modes = st.sampled_from(MODES)

    class Machine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.model = lock_model.KeyLockState()
            self.impl = KeyLockState()

        def both(self, call):
            """Apply ``call`` to both states and compare what came back."""
            mv, iv = self.model.version, self.impl.version
            expected = _outcome(call, self.model)
            got = _outcome(call, self.impl)
            assert got == expected
            assert ((self.impl.version != iv)
                    == (self.model.version != mv)), "version movement"

        @initialize()
        def preseal(self):
            # Alternate sealed write points and sealed read spans two clock
            # values apart, so the runs stay disjoint and unmerged.
            for i in range(presealed):
                owner = ("seed", i)
                if i % 2:
                    mode, span = LockMode.READ, TsInterval(T(2 * i),
                                                           T(2 * i, 2))
                else:
                    mode, span = LockMode.WRITE, TsInterval.point(T(2 * i))
                for state in (self.model, self.impl):
                    state.try_acquire(owner, mode, span)
                    state.freeze(owner, mode, span)
                    state.seal(owner)

        def both_ways(self, on_model, on_impl):
            """``both`` for the one-call entry points: the model runs the
            parent server's call chain, the implementation its one call."""
            self.both(lambda s: (on_model if s is self.model else on_impl)(s))

        @rule(owner=owners, mode=modes, want=spans)
        def acquire(self, owner, mode, want):
            results = []

            def call(state):
                results.append(state.try_acquire(owner, mode, want))
                return results[-1]

            self.both(call)
            # What the servers reply with: after an acquire the owner's
            # hold inside the request is exactly the range reported.
            got = results[-1].acquired
            assert self.impl.held(owner, mode).intersect(want) == got

        @rule(owner=owners, mode=modes, want=spans, wait=st.booleans(),
              all_or_nothing=st.booleans())
        def acquire_with_flags(self, owner, mode, want, wait,
                               all_or_nothing):
            self.both_ways(
                lambda m: lock_model.acquire_with_flags(
                    m, owner, mode, want, wait, all_or_nothing),
                lambda i: i.try_acquire(owner, mode, want, wait=wait,
                                        all_or_nothing=all_or_nothing))

        @rule(owner=owners, tr=stamps, reach=stamps,
              floor=st.none() | stamps, wait=st.booleans())
        def read_after(self, owner, tr, reach, floor, wait):
            if tr == reach:
                return  # the servers only ask above the version read
            tr, upper = min(tr, reach), max(tr, reach)
            self.both_ways(
                lambda m: lock_model.read_lock_after(m, owner, tr, upper,
                                                     floor, wait),
                lambda i: i.acquire_read_after(owner, tr, upper, floor,
                                               wait))

        @rule(owner=owners, span=spans)
        def mirror_read(self, owner, span):
            self.both_ways(
                lambda m: lock_model.hold_read(m, owner, span),
                lambda i: i.hold_read(owner, span))

        @rule(ts=stamps)
        def snapshot_guard(self, ts):
            self.both_ways(
                lambda m: lock_model.unfrozen_write_at_or_below(m, ts),
                lambda i: i.unfrozen_write_at_or_below(ts))

        @rule(owner=owners, mode=modes, want=spans)
        def grant(self, owner, mode, want):
            # ``grant`` records a range its caller knows is free: here, the
            # model's dry run of the acquire.
            granted = self.model.lockable(owner, mode, want).acquired
            self.both(lambda s: s.grant(owner, mode, granted))

        @rule(owner=owners)
        def unfrozen_writes(self, owner):
            self.both_ways(
                lambda m: m.held(owner, LockMode.WRITE).subtract(
                    m.frozen(owner, LockMode.WRITE)),
                lambda i: i.unfrozen_writes(owner))

        @rule(owner=owners, mode=modes, span=spans)
        def freeze(self, owner, mode, span):
            self.both(lambda s: s.freeze(owner, mode, span))

        @rule(owner=owners, mode=modes, span=spans)
        def release(self, owner, mode, span):
            self.both(lambda s: s.release(owner, mode, span))

        @rule(owner=owners)
        def release_unfrozen(self, owner):
            self.both(lambda s: s.release_unfrozen(owner))

        @rule(owner=owners, keep=st.booleans(),
              read_span=st.none() | spans, write_span=st.none() | spans)
        def seal(self, owner, keep, read_span, write_span):
            self.both_ways(
                lambda m: lock_model.seal_with_spans(m, owner, read_span,
                                                     write_span, keep),
                lambda i: i.seal(owner, _flat(read_span),
                                 _flat(write_span), keep))

        @rule(lo=st.integers(0, max_value),
              width=st.one_of(st.integers(0, 3), st.integers(0, max_value)))
        def purge(self, lo, width):
            bound = TsInterval.closed(T(lo), T(lo + width))
            self.both(lambda s: s.purge_below(bound))

        # -- lockstep state comparison -------------------------------------

        @invariant()
        def same_state(self):
            m, i = self.model, self.impl
            assert set(i.owners()) == set(m.owners())
            for owner in OWNERS:
                for mode in MODES:
                    assert i.held(owner, mode) == m.held(owner, mode)
                    assert i.frozen(owner, mode) == m.frozen(owner, mode)
            assert i.sealed_read_ranges() == m.sealed_read_ranges()
            assert i.sealed_write_ranges() == m.sealed_write_ranges()
            assert i.frozen_write_ranges() == m.frozen_write_ranges()
            assert i.record_count() == m.record_count()
            assert i.is_empty == m.is_empty

        # -- safety invariants (on the implementation) ---------------------

        @invariant()
        def no_conflicting_grants(self):
            state = self.impl
            live = list(state.owners())
            for n, a in enumerate(live):
                aw = state.held(a, LockMode.WRITE)
                ar = state.held(a, LockMode.READ)
                for b in live[n + 1:]:
                    bw = state.held(b, LockMode.WRITE)
                    br = state.held(b, LockMode.READ)
                    assert aw.intersect(bw).is_empty
                    assert aw.intersect(br).is_empty
                    assert bw.intersect(ar).is_empty
                assert aw.intersect(state.sealed_read_ranges()).is_empty
                assert aw.intersect(state.sealed_write_ranges()).is_empty
                assert ar.intersect(state.sealed_write_ranges()).is_empty

        @invariant()
        def frozen_subset_of_held(self):
            for owner in self.impl.owners():
                for mode in MODES:
                    frozen = self.impl.frozen(owner, mode)
                    held = self.impl.held(owner, mode)
                    assert frozen.subtract(held).is_empty

    return Machine


LockTableMachine = make_machine(max_value=12)
LockTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestLockTableStateful = LockTableMachine.TestCase

LongRunMachine = make_machine(max_value=200, presealed=96)
LongRunMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestLockTableLongRuns = LongRunMachine.TestCase
