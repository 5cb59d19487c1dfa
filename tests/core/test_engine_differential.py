"""Rule-based differential testing of the threaded engine's transaction
path.

Hypothesis drives two engines through one single-thread schedule: the
reference model (``tests/core/engine_model.py``: the three-acquisition
MVTIL read, the acquire-then-``held`` MVTIL write, one acquire loop for
every mode, commit followed by a separate ``gc`` acquisition that freezes
each read prefix and then seals, a set-built contiguous cover, and a
collector that collects every finished transaction again) and
:class:`repro.core.engine.MVTLEngine` with
:class:`repro.core.collector.BackgroundCollector`.  The rules begin, read,
write, commit and abort transactions, freeze a transaction's write locks
ahead of its commit, sweep the collector and purge old versions, on one to
four keys, with a :class:`LogicalClock` seen through
per-process skewed clocks so that intervals overlap, shrink and miss.

Four policies run.  Both MVTIL variants, with and without commit-time GC;
MVTIL whose commit-time GC collects committed transactions only (it reads
``tx.committed``, so it tells whether the engine asks after the outcome is
set); MVTL-Ghostbuster, whose reads and commit-time write locks wait; and
MVTL-epsilon-clock, whose writes wait.  ``default_timeout=0`` makes a
blocked wait time out at once instead of parking the single thread.  The
collector both collects and keeps aborted transactions.

After every rule the read results, each transaction's policy state,
outcome, commit timestamp and abort reason, every key's per-owner held and
frozen ranges, its sealed runs and record count, and the version store
must be equal.  The stripe-contention counters are not compared: the
one-pass read counts a read cut short by a frozen write as contended, as
the DES server does.
"""

from __future__ import annotations

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.clocks.clock import LogicalClock, SkewedClock
from repro.core.collector import BackgroundCollector
from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.core.locks import LockMode
from repro.core.timestamp import Timestamp
from repro.policies import MVTIL, MVTLEpsilonClock, MVTLGhostbuster
from tests.core.engine_model import ModelCollector, ModelEngine, ModelMVTIL

KEYS = ("a", "b", "c", "d")
PIDS = (1, 2, 3)
MAX_ACTIVE = 5


class CommittedGC(MVTIL):
    """MVTIL that collects committed transactions only: its answer depends
    on the transaction's status when the engine asks."""

    def commit_gc(self, engine, tx):
        return tx.committed


class ModelCommittedGC(ModelMVTIL):
    commit_gc = CommittedGC.commit_gc


def _mvtil(cls):
    return lambda delta, late, gc_on_commit: cls(
        delta=delta, late=late, gc_on_commit=gc_on_commit)


#: Policy name -> (model factory, real factory), each taking the drawn
#: ``delta``, ``late`` and ``gc_on_commit`` (used where they apply).
POLICIES = {
    "mvtil": (_mvtil(ModelMVTIL), _mvtil(MVTIL)),
    "mvtil-committed-gc": (_mvtil(ModelCommittedGC), _mvtil(CommittedGC)),
    "ghostbuster": ((lambda *_: MVTLGhostbuster(),) * 2),
    "epsilon-clock": ((lambda delta, *_: MVTLEpsilonClock(delta),) * 2),
}


def build(engine_cls, policy_factory, collector_cls, *, delta, late,
          gc_on_commit, collect_aborted, skews):
    logical = LogicalClock()
    clocks = {pid: SkewedClock(logical.now, skew)
              for pid, skew in zip(PIDS, skews)}
    engine = engine_cls(policy_factory(delta, late, gc_on_commit),
                        logical, clock_for_pid=clocks.__getitem__,
                        default_timeout=0)
    return engine, collector_cls(engine, collect_aborted=collect_aborted)


def lock_view(engine, key, tx_ids):
    """Everything observable about ``key``'s lock state."""
    state = engine.locks.peek(key)
    if state is None:
        return (), (), 0, {}
    owners = {
        owner: tuple(f(owner, mode).flat
                     for f in (state.held, state.frozen)
                     for mode in (LockMode.READ, LockMode.WRITE))
        for owner in state.owners()}
    assert set(owners) <= set(tx_ids)
    return (state.sealed_read_ranges().flat,
            state.sealed_write_ranges().flat, state.record_count(), owners)


def outcome(call):
    try:
        return ("ok", call())
    except TransactionAborted as exc:
        return ("aborted", exc.reason)


class EngineLockstep(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pairs = []

    @initialize(nkeys=st.integers(1, len(KEYS)),
                policy=st.sampled_from(sorted(POLICIES)),
                delta=st.sampled_from((0.5, 1.5, 4.0)),
                late=st.booleans(), gc_on_commit=st.booleans(),
                collect_aborted=st.booleans(),
                skews=st.lists(st.sampled_from((-3.0, -1.0, 0.0, 0.5, 2.0)),
                               min_size=len(PIDS), max_size=len(PIDS)))
    def setup(self, nkeys, policy, **kwargs):
        self.keys = KEYS[:nkeys]
        event(f"policy: {policy}")
        model_policy, real_policy = POLICIES[policy]
        self.model, self.model_gc = build(ModelEngine, model_policy,
                                          ModelCollector, **kwargs)
        self.real, self.real_gc = build(MVTLEngine, real_policy,
                                        BackgroundCollector, **kwargs)

    def active(self):
        return [p for p in self.pairs if p[1].is_active]

    def pick(self, i):
        """The ``i``-th active pair (modulo); begins one if none is."""
        active = self.active()
        if not active:
            self.begin(PIDS[i % len(PIDS)])
            active = self.active()
        return active[i % len(active)]

    def finished(self, pair):
        if not pair[1].is_active:
            self.model_gc.note_finished(pair[0])
            self.real_gc.note_finished(pair[1])

    @precondition(lambda self: len(self.active()) < MAX_ACTIVE)
    @rule(pid=st.sampled_from(PIDS))
    def begin(self, pid):
        self.pairs.append((self.model.begin(pid=pid),
                           self.real.begin(pid=pid)))

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS))
    def read(self, i, key):
        key = self.keys[KEYS.index(key) % len(self.keys)]
        pair = self.pick(i)
        got = [outcome(lambda e=e, tx=tx: e.read(tx, key))
               for e, tx in zip((self.model, self.real), pair)]
        assert got[0] == got[1]
        event(f"read: {got[1][0] if got[1][0] == 'ok' else got[1][1]}")
        self.finished(pair)

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS),
          value=st.integers(0, 9))
    def write(self, i, key, value):
        key = self.keys[KEYS.index(key) % len(self.keys)]
        pair = self.pick(i)
        got = [outcome(lambda e=e, tx=tx: e.write(tx, key, value))
               for e, tx in zip((self.model, self.real), pair)]
        assert got[0] == got[1]
        self.finished(pair)

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def commit(self, i):
        pair = self.pick(i)
        committed = self.model.commit(pair[0])
        assert committed == self.real.commit(pair[1])
        event(f"commit: {committed}")
        self.finished(pair)

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def abort(self, i):
        pair = self.pick(i)
        self.model.abort(pair[0])
        self.real.abort(pair[1])
        self.finished(pair)

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS))
    def freeze_writes(self, i, key):
        """Freeze a transaction's write locks on ``key`` ahead of its
        commit.  Once sealed, the range carries no version, so a later read
        below it is cut there by the frozen-write truncation alone."""
        key = self.keys[KEYS.index(key) % len(self.keys)]
        for engine, tx in zip((self.model, self.real), self.pick(i)):
            span = engine.locks.held(tx.id, key, LockMode.WRITE)
            if span:
                engine.freeze(tx, key, LockMode.WRITE, span)

    @rule()
    def collect_now(self):
        self.model_gc.collect_now()
        self.real_gc.collect_now()

    @rule(bound=st.integers(0, 12))
    def purge(self, bound):
        ts = Timestamp(float(bound), 0)
        assert (self.model.purge_versions_before(ts)
                == self.real.purge_versions_before(ts))

    @invariant()
    def same_transactions(self):
        for m, r in self.pairs:
            assert m.id == r.id
            assert m.status is r.status
            assert m.commit_ts == r.commit_ts
            assert m.abort_reason == r.abort_reason
            assert m.readset == r.readset
            assert m.writeset == r.writeset
            assert m.state == r.state

    @invariant()
    def same_lock_state(self):
        if not self.pairs:
            return
        ids = [m.id for m, _ in self.pairs]
        for key in KEYS:
            assert (lock_view(self.model, key, ids)
                    == lock_view(self.real, key, ids)), key
        assert self.model.lock_record_count() == self.real.lock_record_count()

    @invariant()
    def same_versions(self):
        if not self.pairs:
            return
        assert self.model.store.snapshot() == self.real.store.snapshot()
        for stat in ("commits", "aborts"):
            assert self.model.stats[stat] == self.real.stats[stat]


EngineLockstep.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestEngineDifferential = EngineLockstep.TestCase
