"""Theorem 6 as a lockstep differential: MVTL-Pessimistic behaves as 2PL.

Hypothesis drives the standalone strict-2PL engine (``twopl_model.py``:
one readers-writer lock per key, held to the end) and
``MVTLEngine(MVTLPessimistic())`` through one single-thread schedule: a
seed writer puts a version on every key, then transactions (up to five at
a time) begin, read, write, commit and abort over one to four keys.

What the theorem gives, written down.  The two engines wait differently:
2PL gives up at ``lock_timeout``; the policy waits under
``default_timeout`` and a timed-out wait does not fail every request (a
write keeps the part it was granted, and its conflict surfaces at commit
as ``no-common-timestamp``).  Both run with timeout 0, so a request that
would wait fails at once, and the equivalence is:

* the lock tables agree: on every key, the transactions holding 2PL's
  write lock are those holding unfrozen MVTL write locks, and 2PL's
  readers are those holding unfrozen MVTL read locks and no write lock
  (committed and aborted transactions hold nothing unfrozen in either);
* hence a request meets a conflict in one engine exactly when it meets
  the same conflict — the same holders — in the other: a read conflicts
  with a writer, a write with a writer or a reader.  Such a request fails
  in 2PL (``lock-timeout``) and times out in MVTL, where the requester
  gives up too: the read aborts, and the write is aborted by the suite;
* a request without a conflict succeeds in both, and every commit
  succeeds in both, so the committed sets are the same;
* a read returns the same value in both, except after a blind write that
  MVTL serialized in the past.  The policy commits at the lowest
  timestamp its locks share (Alg. 9), so a write the transaction did not
  read first lands in the first unfrozen gap of the key's timeline, which
  may lie below the key's latest version; 2PL puts every write last.  The
  committed sets agree, the serialization orders do not: until the key is
  written again, 2PL reads the blind write and MVTL the version above it.
  The suite checks that only a blind write ever commits below a key's
  latest version and that reads agree whenever the two engines' last
  writers of the key agree.

Commit timestamps are not compared (2PL draws them from a counter), and
neither are purges, which 2PL's single-version store does not have.
"""

from __future__ import annotations

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.engine import MVTLEngine
from repro.core.exceptions import AbortReason, TransactionAborted
from repro.core.locks import LockMode
from repro.policies import MVTLPessimistic
from tests.baselines.twopl_model import TwoPLEngine

KEYS = ("a", "b", "c", "d")
PIDS = (1, 2, 3)
MAX_ACTIVE = 5


def twopl_holders(engine, key):
    """``(writers, readers)`` of ``key`` in 2PL."""
    lock = engine._locks.get(key)
    if lock is None:
        return frozenset(), frozenset()
    writers = frozenset() if lock.writer is None else frozenset({lock.writer})
    return writers, frozenset(lock.readers)


def mvtl_holders(engine, key):
    """``(writers, readers)`` of ``key`` in MVTL: owners of unfrozen write
    locks, and owners of unfrozen read locks that hold no write lock."""
    state = engine.locks.peek(key)
    if state is None:
        return frozenset(), frozenset()

    def live(owner, mode):
        return not state.held(owner, mode).subtract(
            state.frozen(owner, mode)).is_empty

    owners = list(state.owners())
    writers = frozenset(o for o in owners if live(o, LockMode.WRITE))
    readers = frozenset(o for o in owners
                        if o not in writers and live(o, LockMode.READ))
    return writers, readers


def blockers(holders, tx_id, write):
    """Who a request by ``tx_id`` must wait for."""
    writers, readers = holders
    return (writers | readers if write else writers) - {tx_id}


class Thm6Lockstep(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pairs = []

    @initialize(nkeys=st.integers(1, len(KEYS)))
    def setup(self, nkeys):
        self.keys = KEYS[:nkeys]
        self.twopl = TwoPLEngine(lock_timeout=0)
        self.mvtl = MVTLEngine(MVTLPessimistic(), default_timeout=0)
        seed = self.begin_pair(PIDS[0])
        for n, key in enumerate(self.keys):
            self.request(seed, key, write=True, value=f"seed-{n}")
        self.commit_pair(seed)

    def begin_pair(self, pid):
        pair = (self.twopl.begin(pid=pid), self.mvtl.begin(pid=pid))
        assert pair[0].id == pair[1].id
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

    def request(self, pair, key, *, write, value=None):
        """One read or write in both engines: the same conflict, or the
        same success."""
        t2, tm = pair
        blocked = blockers(twopl_holders(self.twopl, key), t2.id, write)
        assert blocked == blockers(mvtl_holders(self.mvtl, key), tm.id, write)
        timeouts = self.mvtl.stats["lock_timeouts"]
        if write:
            calls = (lambda: self.twopl.write(t2, key, value),
                     lambda: self.mvtl.write(tm, key, value))
        else:
            calls = (lambda: self.twopl.read(t2, key),
                     lambda: self.mvtl.read(tm, key))
        got = []
        for call in calls:
            try:
                got.append(("ok", call()))
            except TransactionAborted as exc:
                got.append(("aborted", exc.reason))
        assert (self.mvtl.stats["lock_timeouts"] - timeouts) == bool(blocked)
        if blocked:
            assert got[0] == ("aborted", AbortReason.LOCK_TIMEOUT)
            if write:
                assert got[1] == ("ok", None)
                self.mvtl.abort(tm)  # the requester gives up, as in 2PL
            else:
                assert got[1] == ("aborted", AbortReason.READ_FAILED)
        elif write or key in t2.writeset or self.last_writers_agree(key):
            assert got[0] == got[1]
        else:
            # A blind write was serialized below the version 2PL
            # overwrote: each engine reads its own last writer's value.
            assert got[0][0] == got[1][0] == "ok"
            event("read: key reordered by a blind write")
        event(f"{'write' if write else 'read'}: "
              f"{'conflict' if blocked else 'granted'}")

    def last_writers_agree(self, key):
        """Whether ``key``'s current value in 2PL and its latest version
        in MVTL come from the same transaction."""
        value_ts = self.twopl._values[key][1]
        latest_ts = self.mvtl.store.latest(key).ts
        return any(t2.commit_ts == value_ts and tm.commit_ts == latest_ts
                   for t2, tm in self.pairs)

    def commit_pair(self, pair):
        t2, tm = pair
        latest = {key: self.mvtl.store.latest(key).ts
                  for key in tm.writeset}
        assert self.twopl.commit(t2)
        assert self.mvtl.commit(tm)
        read = {key for key, _ in tm.readset}
        for key, ts in latest.items():
            if tm.commit_ts < ts:
                # Alg. 9 commits at the lowest commonly locked timestamp:
                # a write the transaction did not read before lands in the
                # first unfrozen gap, which may lie below the latest
                # version.  A read-modify-write never does.
                assert key not in read
                event("commit: blind write below the latest version")

    @precondition(lambda self: len(self.active()) < MAX_ACTIVE)
    @rule(pid=st.sampled_from(PIDS))
    def begin(self, pid):
        self.begin_pair(pid)

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS))
    def read(self, i, key):
        self.request(self.pick(i), self.key(key), write=False)

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS),
          value=st.integers(0, 9))
    def write(self, i, key, value):
        self.request(self.pick(i), self.key(key), write=True, value=value)

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def commit(self, i):
        self.commit_pair(self.pick(i))

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def abort(self, i):
        for engine, tx in zip((self.twopl, self.mvtl), self.pick(i)):
            engine.abort(tx)

    @invariant()
    def same_transactions(self):
        for t2, tm in self.pairs:
            assert t2.status is tm.status
            assert [k for k, _ in t2.readset] == [k for k, _ in tm.readset]
            if not t2.aborted:  # MVTL buffered the write that conflicted
                assert t2.writeset == tm.writeset

    @invariant()
    def same_lock_tables(self):
        if not self.pairs:
            return
        for key in KEYS:
            assert (twopl_holders(self.twopl, key)
                    == mvtl_holders(self.mvtl, key)), key


Thm6Lockstep.TestCase.settings = settings(
    max_examples=300, stateful_step_count=30, deadline=None)
TestTheorem6Lockstep = Thm6Lockstep.TestCase
