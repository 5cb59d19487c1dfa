"""Server lockstep: :class:`~repro.dist.server.MVTLServer`'s Alg. 13
handlers against :class:`~repro.core.engine.MVTLEngine` under MVTIL-early.

The paper runs the same per-key steps in both of its settings: the server
of Alg. 13 and the centralized Alg. 1 over an Alg. 2 policy.  Hypothesis
drives one server and one engine (``default_timeout=0``) through the same
transactions.  The engine runs them through ``begin`` / ``read`` /
``write`` / ``commit`` / ``abort``; the test plays an MVTIL-early client
for the server with the engine's own decisions, so every server request is
the one the engine's policy makes at that point:

* a read sends ``MVTLReadReq(upper = max I)``, non-waiting or waiting with
  ``floor = min I`` as ``MVTILClient`` does; a parked read is a read that
  timed out at once, as a blocked engine wait does at ``default_timeout=0``;
* a write sends ``MVTLWriteLockReq(want = I)``, non-waiting;
* commit picks ``min I`` and sends one ``CommitReq`` with the read spans
  ``(tr, ts]``, releasing the rest;
* an abort, the client's or the engine's, sends ``ReleaseReq``;
* a purge sends ``PurgeReq`` under §6's limit: no live transaction, and
  none that can still begin, lies below the bound.

The server is called handler by handler: no network, no service time, no
loss, and a write-lock timeout that never fires.  Compared after every
rule: each read's ``tr``, value and ``locked`` against the engine's
``read_prefix``, each write's ``acquired`` against its ``try_acquire``,
the interval either side derives from them, the commit outcome and
timestamp, and — as invariants — the version stores, every key's
per-owner held and frozen ranges, its sealed runs and record count, the
``lock_record_count`` totals, and that no ended transaction still owns
lock state or a buffered value.

``test_purge_above_a_live_interval`` is ROADMAP item 15 as one schedule:
a purge above a live transaction's interval, which the engine answers by
refusing the commit and the server by applying it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.clocks.clock import LogicalClock, SkewedClock
from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import Timestamp
from repro.dist.commitment import CommitmentRegistry
from repro.dist.messages import (CommitReq, MVTLReadReq, MVTLWriteLockReq,
                                 PurgeReq, ReleaseReq)
from repro.dist.server import MVTLServer
from repro.policies import MVTIL
from repro.sim.simulator import Simulator
from repro.sim.testbed import LOCAL_TESTBED

KEYS = ("a", "b", "c")
PIDS = (1, 2, 3)
MAX_ACTIVE = 4
CLOCK_START = 10.0
SKEWS = (-3.0, -1.0, 0.0, 0.5, 2.0)


class Wire:
    """The server's network: every reply is kept, nothing is lost."""

    def __init__(self):
        self.replies = []

    def register(self, node, handler):
        pass

    def unregister(self, node):
        pass

    def send(self, dst, msg, src=None):
        self.replies.append(msg)


def lock_view(holder, key):
    """Everything observable about ``key``'s lock state."""
    state = holder.locks.peek(key)
    if state is None:
        return (), (), 0, {}
    owners = {
        owner: tuple(f(owner, mode).flat
                     for f in (state.held, state.frozen)
                     for mode in (LockMode.READ, LockMode.WRITE))
        for owner in state.owners()}
    return (state.sealed_read_ranges().flat,
            state.sealed_write_ranges().flat, state.record_count(), owners)


def capture(engine, name, log):
    """Record what ``engine.<name>`` returns each time the policy calls it."""
    method = getattr(engine, name)

    def captured(*args):
        got = method(*args)
        log.append(got)
        return got

    setattr(engine, name, captured)


class ServerLockstep(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.txs = []

    @initialize(nkeys=st.integers(1, len(KEYS)),
                delta=st.sampled_from((0.5, 1.5, 4.0)),
                skews=st.lists(st.sampled_from(SKEWS), min_size=len(PIDS),
                               max_size=len(PIDS)))
    def setup(self, nkeys, delta, skews):
        self.keys = KEYS[:nkeys]
        self.skews = dict(zip(PIDS, skews))
        self.clock_reads = 0
        logical = LogicalClock(start=CLOCK_START)
        clocks = {pid: SkewedClock(logical.now, skew)
                  for pid, skew in self.skews.items()}
        self.engine = MVTLEngine(MVTIL(delta=delta), logical,
                                 clock_for_pid=clocks.__getitem__,
                                 default_timeout=0)
        self.prefixes, self.grants = [], []
        capture(self.engine, "read_prefix", self.prefixes)
        capture(self.engine, "try_acquire", self.grants)
        sim = Simulator()
        self.wire = Wire()
        self.server = MVTLServer(sim, self.wire, "srv", LOCAL_TESTBED,
                                 np.random.default_rng(0),
                                 CommitmentRegistry(sim),
                                 write_lock_timeout=1e9)
        self.req_ids = 0
        self.purged = 0

    # -- the client side -----------------------------------------------------

    def send(self, cls, tx_id, **fields):
        """Hand one request to the server's handler; its reply, or None."""
        self.req_ids += 1
        before = len(self.wire.replies)
        self.server._handle(cls(tx_id, "cli", self.req_ids, **fields))
        replies = self.wire.replies[before:]
        assert len(replies) <= 1
        return replies[0] if replies else None

    def release(self, tx):
        assert self.send(ReleaseReq, tx.id) is None

    def active(self):
        return [tx for tx in self.txs if tx.is_active]

    def pick(self, i):
        """The ``i``-th active transaction (modulo); begins one if none is."""
        active = self.active()
        if not active:
            self.begin(PIDS[i % len(PIDS)])
            active = self.active()
        return active[i % len(active)]

    def key(self, key):
        return self.keys[KEYS.index(key) % len(self.keys)]

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.active()) < MAX_ACTIVE)
    @rule(pid=st.sampled_from(PIDS))
    def begin(self, pid):
        self.txs.append(self.engine.begin(pid=pid))
        self.clock_reads += 1

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS),
          wait=st.booleans())
    def read(self, i, key, wait):
        tx, key = self.pick(i), self.key(key)
        if key in tx.writeset:
            return  # read-your-writes: no request on either side
        interval = tx.state.interval
        reply = None
        if interval:
            reply = self.send(MVTLReadReq, tx.id, key=key,
                              upper=interval.pick_high(), wait=wait,
                              floor=interval.pick_low() if wait else None)
        try:
            value = self.engine.read(tx, key)
        except TransactionAborted:
            value = None
        if reply is not None and reply.tr is not None:
            version, locked = self.prefixes[-1]
            assert (reply.tr, reply.value, reply.locked) == (
                version.ts, version.value, locked)
            interval = interval.intersect(reply.locked)
        elif reply is not None:
            assert self.prefixes[-1] is None  # purged on both sides
            interval = EMPTY_SET
        else:
            interval = EMPTY_SET  # parked (timed out at once), or doomed
        event(f"read: {'ok' if interval else 'aborted'}")
        if not interval:
            assert tx.aborted
            self.release(tx)
            return
        assert tx.is_active and value == reply.value
        assert tx.state.interval == interval

    @rule(i=st.integers(0, MAX_ACTIVE - 1), key=st.sampled_from(KEYS),
          value=st.integers(0, 9))
    def write(self, i, key, value):
        tx, key = self.pick(i), self.key(key)
        interval = tx.state.interval
        grants = len(self.grants)
        self.engine.write(tx, key, value)
        if not interval:
            assert len(self.grants) == grants  # doomed: nothing requested
            return
        reply = self.send(MVTLWriteLockReq, tx.id, key=key, value=value,
                          want=interval, wait=False)
        assert reply.acquired == self.grants[-1].acquired
        assert tx.state.interval == interval.intersect(reply.acquired)

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def commit(self, i):
        tx = self.pick(i)
        interval = tx.state.interval
        committed = self.engine.commit(tx)
        event(f"commit: {committed}")
        assert committed == bool(interval)
        if not interval:
            self.release(tx)
            return
        ts = interval.pick_low()
        assert tx.commit_ts == ts
        spans = {key: (IntervalSet.from_interval(
                           TsInterval.open_closed(tr, ts))
                       if tr < ts else EMPTY_SET)
                 for key, tr in tx.readset}
        assert self.send(CommitReq, tx.id, ts=ts,
                         write_keys=tuple(tx.writeset), spans=spans,
                         release=True, values=dict(tx.writeset)) is None

    @rule(i=st.integers(0, MAX_ACTIVE - 1))
    def abort(self, i):
        tx = self.pick(i)
        self.engine.abort(tx)
        self.release(tx)

    @rule(below=st.sampled_from((0.0, 0.5, 1.0, 2.0, 4.0)))
    def purge(self, below):
        """Purge ``below`` under §6's limit."""
        upcoming = (CLOCK_START + self.clock_reads) + min(self.skews.values())
        limit = min([upcoming] + [tx.state.interval.pick_low().value
                                  for tx in self.active()
                                  if tx.state.interval])
        self.purge_at(Timestamp(limit - below, 0))
        event("purged")

    def purge_at(self, bound):
        self.purged += self.engine.purge_versions_before(bound)
        self.send(PurgeReq, "gc", bound=bound)
        assert self.server.stats.get("purged_versions", 0) == self.purged

    # -- invariants -----------------------------------------------------------

    @invariant()
    def same_versions(self):
        assert (self.server.store.snapshot()
                == self.engine.store.snapshot())

    @invariant()
    def same_lock_state(self):
        for key in KEYS:
            assert (lock_view(self.server, key)
                    == lock_view(self.engine, key)), key
        assert (self.server.lock_record_count()
                == self.engine.lock_record_count())

    @invariant()
    def ended_transactions_hold_nothing(self):
        live = {tx.id for tx in self.active()}
        for holder in (self.server, self.engine):
            assert set(holder.locks.owners()) <= live
            for key in KEYS:
                state = holder.locks.peek(key)
                if state is not None:
                    assert set(state.owners()) <= live, key
        assert {tx_id for tx_id, _ in self.server.pending} <= live


ServerLockstep.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestServerEngineLockstep = ServerLockstep.TestCase


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: the server applies a commit below its purge floor "
    "that the engine refuses"))
def test_purge_above_a_live_interval():
    machine = ServerLockstep()
    machine.setup(nkeys=1, delta=4.0, skews=[0.0] * len(PIDS))
    machine.begin(pid=1)  # I = [10, 14]
    machine.read(0, "a", wait=False)
    machine.purge_at(Timestamp(20.0, 0))  # above all of I: not §6-legal
    machine.commit(0)
