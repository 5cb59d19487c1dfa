"""Theorem 5 as a lockstep differential: MVTL-TO behaves as MVTO+.

Hypothesis drives the standalone MVTO+ engine (``mvto_model.py``:
per-version read-timestamps, no locks) and
``MVTLEngine(MVTLTimestampOrdering())`` through one single-thread schedule:
a seed writer puts a version on every key, then transactions (up to five
at a time) begin, read, write, commit and abort over one to four keys,
and old versions are purged.  Each engine has its own :class:`LogicalClock`, read
through the same per-pid skews, so a later transaction can take a smaller
timestamp than an earlier one (the serial aborts of §5.3).

After every step the two must agree on each transaction's begin
timestamp, every read (value, or that it aborted), every commit outcome
and commit timestamp, and every key's version chain; and each version's
MVTO+ read-timestamp must be the top of MVTL-TO's read locks above it.  Abort reasons are
not compared: the engines name the same abort differently (MVTO+'s
``read-timestamp-conflict`` is MVTL-TO's ``no-common-timestamp``).

Purges follow §6's timestamp service: a purge bound lies at or below the
timestamp of every live transaction and of every transaction that can
still begin (the clock's next reading under the smallest skew).  A
transaction below a past bound is outside the theorem: MVTO+ fails its
reads there, while MVTL-TO reads the version the purge kept and fails at
commit (``test_baselines.py::TestMVTLTOBasics``).
"""

from __future__ import annotations

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.clocks.clock import LogicalClock, SkewedClock
from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.core.intervals import TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import BOTTOM, TS_INF, TS_ZERO, Timestamp
from repro.policies import MVTLTimestampOrdering
from tests.baselines.mvto_model import MVTOEngine

KEYS = ("a", "b", "c", "d")
PIDS = (1, 2, 3)
#: The seed writer's pid; its clock is not skewed.
SEED_PID = 0
SKEWS = (-3.0, -1.0, 0.0, 0.5, 2.0)
MAX_ACTIVE = 5
#: LogicalClock's first reading: above zero under the smallest skew, as a
#: clock reads (MVTL never commits at or below TS_ZERO).
CLOCK_START = 4.0


def build(engine_factory, skews):
    logical = LogicalClock(start=CLOCK_START)
    clocks = {pid: SkewedClock(logical.now, skews.get(pid, 0.0))
              for pid in (SEED_PID, *PIDS)}
    return engine_factory(clocks.__getitem__)


def outcome(call):
    try:
        return ("ok", call())
    except TransactionAborted:
        return ("aborted",)


def chain(engine, key):
    """``key``'s version chain as ``((ts, value), ...)``."""
    if isinstance(engine, MVTOEngine):
        versions = engine._keys.get(key)
        if versions is None:
            return ((TS_ZERO, BOTTOM),)
        return tuple((v.ts, v.value) for v in versions.versions)
    if key not in engine.store:
        return ((TS_ZERO, BOTTOM),)
    return engine.store.snapshot_row(key)[1]


def mvto_read_tops(engine, key, bound):
    """MVTO+'s read-timestamp of each version of ``key`` that was read, at
    or above the purge ``bound``."""
    versions = engine._keys.get(key)
    if versions is None:
        return {}
    return {v.ts: v.read_ts for v in versions.versions
            if v.read_ts > v.ts and (bound is None or v.read_ts >= bound)}


def mvtl_read_tops(engine, key):
    """MVTL-TO's counterpart: the top of the read locks (any owner, frozen
    or sealed) between each version of ``key`` and the next.  Reads lock
    ``(tr, ts]``, so that top is the largest timestamp that read it."""
    state = engine.locks.peek(key)
    if state is None:
        return {}
    read = state.sealed_read_ranges()
    for owner in state.owners():
        read = read.union(state.held(owner, LockMode.READ))
    stamps = [ts for ts, _ in chain(engine, key)] + [TS_INF]
    tops = {}
    for lo, hi in zip(stamps, stamps[1:]):
        above = read.intersect(TsInterval.open_closed(lo, hi))
        if above:
            tops[lo] = above.max_member()
    return tops


class Thm5Lockstep(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pairs = []

    @initialize(nkeys=st.integers(1, len(KEYS)),
                skews=st.lists(st.sampled_from(SKEWS), min_size=len(PIDS),
                               max_size=len(PIDS)))
    def setup(self, nkeys, skews):
        self.keys = KEYS[:nkeys]
        self.skews = dict(zip(PIDS, skews))
        self.mvto = build(lambda c: MVTOEngine(clock_for_pid=c), self.skews)
        self.mvtl = build(lambda c: MVTLEngine(
            MVTLTimestampOrdering(), clock_for_pid=c, default_timeout=0),
            self.skews)
        self.clock_reads = 0
        seed = self.begin_pair(SEED_PID)
        for n, key in enumerate(self.keys):
            for engine, tx in zip((self.mvto, self.mvtl), seed):
                engine.write(tx, key, f"seed-{n}")
        assert self.mvto.commit(seed[0]) and self.mvtl.commit(seed[1])

    def begin_pair(self, pid):
        pair = (self.mvto.begin(pid=pid), self.mvtl.begin(pid=pid))
        self.clock_reads += 1
        assert pair[0].state.ts == pair[1].state.ts
        self.pairs.append(pair)
        return pair

    def active(self):
        return [p for p in self.pairs if p[0].is_active]

    def pick(self, i):
        """The ``i``-th active pair (modulo); begins one if none is."""
        active = self.active()
        if not active:
            return self.begin_pair(PIDS[i % len(PIDS)])
        return active[i % len(active)]

    def key(self, key):
        return self.keys[KEYS.index(key) % len(self.keys)]

    @precondition(lambda self: len(self.active()) < MAX_ACTIVE)
    @rule(pid=st.sampled_from(PIDS))
    def begin(self, pid):
        self.begin_pair(pid)

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS))
    def read(self, i, key):
        key = self.key(key)
        pair = self.pick(i)
        got = [outcome(lambda e=e, tx=tx: e.read(tx, key))
               for e, tx in zip((self.mvto, self.mvtl), pair)]
        assert got[0] == got[1]
        event(f"read: {got[0][0]}")

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS),
          value=st.integers(0, 9))
    def write(self, i, key, value):
        key = self.key(key)
        for engine, tx in zip((self.mvto, self.mvtl), self.pick(i)):
            engine.write(tx, key, value)

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def commit(self, i):
        pair = self.pick(i)
        committed = self.mvto.commit(pair[0])
        assert committed == self.mvtl.commit(pair[1])
        assert pair[0].commit_ts == pair[1].commit_ts
        event(f"commit: {committed}")

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def abort(self, i):
        for engine, tx in zip((self.mvto, self.mvtl), self.pick(i)):
            engine.abort(tx)

    @rule(below=st.sampled_from((0.0, 0.5, 1.0, 2.0, 4.0)))
    def purge(self, below):
        """Purge ``below`` under §6's limit: no live transaction, and none
        that can still begin, lies below the bound."""
        upcoming = (CLOCK_START + self.clock_reads) + min(self.skews.values())
        limit = min([upcoming] + [p[0].state.ts.value for p in self.active()])
        bound = Timestamp(limit - below, 0)
        self.mvto.purge_before(bound)
        self.mvtl.purge_versions_before(bound)
        event("purged")

    @invariant()
    def same_transactions(self):
        for m, r in self.pairs:
            assert m.id == r.id
            assert m.state.ts == r.state.ts
            assert m.status is r.status
            assert m.commit_ts == r.commit_ts
            assert m.readset == r.readset

    @invariant()
    def same_versions(self):
        if not self.pairs:
            return
        for key in KEYS:
            assert chain(self.mvto, key) == chain(self.mvtl, key), key

    @invariant()
    def read_timestamps_are_read_locks(self):
        """Theorem 5's correspondence, state for state: a version's
        read-timestamp is the top of the read locks above it — those of
        aborted readers included (the ghost aborts of §5.5).  A purge
        drops the lock state below its bound, so only read-timestamps at
        or above it are compared."""
        if not self.pairs:
            return
        bound = self.mvtl.mvtl.floor
        for key in KEYS:
            assert (mvto_read_tops(self.mvto, key, bound)
                    == mvtl_read_tops(self.mvtl, key)), key


Thm5Lockstep.TestCase.settings = settings(
    max_examples=300, stateful_step_count=30, deadline=None)
TestTheorem5Lockstep = Thm5Lockstep.TestCase
