"""Unit tests for the MVTL storage server (Alg. 13) driven directly."""

import numpy as np
import pytest

from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import BOTTOM, TS_INF, Timestamp
from repro.dist.commitment import ABORT, CommitmentRegistry
from repro.dist.messages import (CommitReq, MVTLBatchLockReq,
                                 MVTLReadReply, MVTLReadReq,
                                 MVTLWriteLockReply, MVTLWriteLockReq,
                                 PurgeReq, ReleaseReq)
from repro.dist.server import MVTLServer
from repro.sim.network import LatencyModel, Network
from repro.sim.simulator import Simulator
from repro.sim.testbed import LOCAL_TESTBED


def T(v, p=0):
    return Timestamp(v, p)


class Harness:
    """A server plus a fake client mailbox collecting replies."""

    def __init__(self, write_lock_timeout=2.0):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-5, cv=0.01),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        self.server = MVTLServer(self.sim, self.net, "srv", LOCAL_TESTBED,
                                 np.random.default_rng(1), self.registry,
                                 write_lock_timeout=write_lock_timeout)
        self.replies = []
        self.net.register("cli", self.replies.append)
        self._req = 0

    def send(self, msg):
        # Advance just enough for delivery + service, without draining
        # far-future events (e.g. the write-lock timeout).
        self.net.send("srv", msg, src="cli")
        self.sim.run_until(self.sim.now + 0.05)

    def req_id(self):
        self._req += 1
        return self._req

    def read(self, tx, key, upper, wait=True, floor=None):
        rid = self.req_id()
        self.send(MVTLReadReq(tx, "cli", rid, key=key, upper=upper,
                              wait=wait, floor=floor))
        return self._last(rid)

    def write_lock(self, tx, key, value, want, wait=False,
                   all_or_nothing=False):
        rid = self.req_id()
        self.send(MVTLWriteLockReq(tx, "cli", rid, key=key, value=value,
                                   want=want, wait=wait,
                                   all_or_nothing=all_or_nothing))
        return self._last(rid)

    def commit(self, tx, ts, write_keys=(), spans=None, release=True):
        self.send(CommitReq(tx, "cli", self.req_id(), ts=ts,
                            write_keys=tuple(write_keys),
                            spans=spans or {}, release=release))

    def _last(self, rid):
        for r in reversed(self.replies):
            if r.req_id == rid:
                return r
        return None


class TestReadPath:
    def test_read_fresh_key(self):
        h = Harness()
        reply = h.read("t1", "k", T(5, 1))
        assert reply.value is BOTTOM
        assert not reply.locked.is_empty
        assert reply.locked.contains(T(5, 1))

    def test_read_after_commit(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.closed(T(1, 1), T(2, 1)))
        wl = h.write_lock("t1", "k", "v1", want)
        assert not wl.acquired.is_empty
        h.commit("t1", T(1, 1), write_keys=("k",))
        reply = h.read("t2", "k", T(9, 2))
        assert reply.value == "v1"
        assert reply.tr == T(1, 1)

    def test_waiting_read_parks_until_commit(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.closed(T(1, 1), T(3, 1)))
        h.write_lock("t1", "k", "v1", want)
        # t2 reads up to T(5): blocked by t1's unfrozen write locks.
        rid = h.req_id()
        h.send(MVTLReadReq("t2", "cli", rid, key="k", upper=T(5, 2),
                           wait=True))
        assert h._last(rid) is None  # parked
        h.commit("t1", T(2, 1), write_keys=("k",))
        h.sim.run()
        reply = h._last(rid)
        assert reply is not None
        assert reply.value == "v1"

    def test_nonwaiting_read_shrinks(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.closed(T(3, 1), T(6, 1)))
        h.write_lock("t1", "k", "v1", want)
        reply = h.read("t2", "k", T(9, 2), wait=False)
        assert reply.value is BOTTOM
        assert reply.locked.contains(T(1, 0))
        assert not reply.locked.contains(T(4, 0))  # truncated at t1's lock

    def test_read_with_floor_grants_partial(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.closed(T(5, 1), T(8, 1)))
        h.write_lock("t1", "k", "v", want)
        # Reader needs only something above floor=T(2): prefix suffices.
        reply = h.read("t2", "k", T(9, 2), wait=True, floor=T(2, 2))
        assert reply is not None
        assert reply.locked.contains(T(2, 2))

    def test_purged_read_fails(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.point(T(1, 1)))
        h.write_lock("t1", "k", "v1", want)
        h.commit("t1", T(1, 1), write_keys=("k",))
        want2 = IntervalSet.from_interval(TsInterval.point(T(10, 1)))
        h.write_lock("t3", "k", "v2", want2)
        h.commit("t3", T(10, 1), write_keys=("k",))
        h.send(PurgeReq("svc", "cli", 0, bound=T(8)))
        # v1@(1,1) is kept as newest-below-the-bound; reads above it are
        # still served, reads at or below it need purged data and fail.
        ok = h.read("t2", "k", T(5, 5))
        assert ok.value == "v1"
        reply = h.read("t4", "k", T(1, 0))  # below the kept version
        assert reply.tr is None


class TestWriteLockPath:
    def test_all_or_nothing_fails_on_conflict(self):
        h = Harness()
        h.read("reader", "k", T(5, 1))  # read locks up to (5,1)
        point = IntervalSet.from_interval(TsInterval.point(T(3, 2)))
        reply = h.write_lock("writer", "k", "v", point, all_or_nothing=True)
        assert reply.acquired.is_empty

    def test_partial_grant(self):
        h = Harness()
        h.read("reader", "k", T(5, 1))
        want = IntervalSet.from_interval(TsInterval.closed(T(3, 2), T(9, 2)))
        reply = h.write_lock("writer", "k", "v", want)
        assert not reply.acquired.is_empty
        assert not reply.acquired.contains(T(4, 2))
        assert reply.acquired.contains(T(8, 2))

    def test_waiting_write_unparks_on_release(self):
        h = Harness()
        h.read("reader", "k", T(5, 1))
        point = IntervalSet.from_interval(TsInterval.point(T(3, 2)))
        rid = h.req_id()
        h.send(MVTLWriteLockReq("writer", "cli", rid, key="k", value="v",
                                want=point, wait=True, all_or_nothing=True))
        assert h._last(rid) is None  # parked behind the read lock
        h.send(ReleaseReq("reader", "cli", h.req_id()))
        h.sim.run()
        reply = h._last(rid)
        assert reply is not None and reply.acquired.contains(T(3, 2))


class TestCommitAndTimeout:
    def test_commit_installs_and_freezes(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.closed(T(1, 1), T(4, 1)))
        h.write_lock("t1", "k", "val", want)
        h.commit("t1", T(2, 1), write_keys=("k",))
        assert h.server.store.version_at("k", T(2, 1)).value == "val"
        assert h.server.locks.state("k").frozen_write_ranges().contains(
            T(2, 1))

    def test_commit_freezes_read_span_and_releases_rest(self):
        """Alg. 11 gc behind CommitReq: the span up to the commit
        timestamp is frozen (and sealed), the rest of the read lock goes."""
        h = Harness()
        h.read("t1", "k", T(5, 1))
        span = IntervalSet.from_interval(
            TsInterval.open_closed(T(0, -2**31), T(2, 1)))
        h.commit("t1", T(2, 1), spans={"k": span}, release=True)
        state = h.server.locks.state("k")
        assert "t1" not in list(state.owners())
        assert state.sealed_read_ranges().contains(T(2, 1))
        assert not state.sealed_read_ranges().contains(T(4, 1))

    def test_commit_without_release_keeps_all_reads(self):
        """release=False is the no-GC regime of Fig. 6: every read lock
        persists past the commit, not only the frozen span."""
        h = Harness()
        h.read("t1", "k", T(5, 1))
        span = IntervalSet.from_interval(
            TsInterval.open_closed(T(0, -2**31), T(2, 1)))
        h.commit("t1", T(2, 1), spans={"k": span}, release=False)
        kept = h.server.locks.state("k").sealed_read_ranges()
        assert kept.contains(T(1, 1)) and kept.contains(T(4, 1))

    def test_commit_span_on_unknown_key_is_noop(self):
        h = Harness()
        h.commit("t1", T(1, 1), spans={"nope": IntervalSet.point(T(1))})
        assert h.server.locks.peek("nope") is None

    def test_commit_decided_abort_releases(self):
        h = Harness()
        want = IntervalSet.from_interval(TsInterval.point(T(1, 1)))
        h.write_lock("t1", "k", "v", want)
        h.registry.get("t1").propose(ABORT)   # e.g. another server timed out
        h.commit("t1", T(1, 1), write_keys=("k",))
        assert h.server.store.version_at("k", T(1, 1)) is None
        assert h.server.locks.state("k").held("t1", LockMode.WRITE).is_empty

    def test_orphaned_write_lock_times_out(self):
        """§H: a crashed coordinator's write locks are eventually aborted."""
        h = Harness(write_lock_timeout=0.5)
        want = IntervalSet.from_interval(TsInterval.point(T(1, 1)))
        h.write_lock("dead-tx", "k", "v", want)
        # Coordinator never commits; run past the timeout.
        h.sim.run_until(h.sim.now + 1.0)
        assert h.registry.get("dead-tx").decision == ABORT
        assert h.server.locks.state("k").held(
            "dead-tx", LockMode.WRITE).is_empty

    def test_timeout_after_client_decision_commits(self):
        """If the commitment already decided commit, the timeout freezes
        instead of aborting (Alg. 13 write-lock-timeout, commit branch)."""
        h = Harness(write_lock_timeout=0.5)
        want = IntervalSet.from_interval(TsInterval.point(T(1, 1)))
        h.write_lock("t1", "k", "v", want)
        h.registry.get("t1").propose(T(1, 1))  # decided commit
        h.sim.run_until(h.sim.now + 1.0)       # timeout fires
        assert h.server.store.version_at("k", T(1, 1)).value == "v"

    def test_release_write_only_keeps_read_locks(self):
        """MVTO+ abort: read locks persist as read-timestamps."""
        h = Harness()
        h.read("t1", "k", T(5, 1))
        want = IntervalSet.from_interval(TsInterval.point(T(9, 1)))
        h.write_lock("t1", "k2", "v", want)
        h.send(ReleaseReq("t1", "cli", h.req_id(), write_only=True))
        # Write lock gone...
        assert h.server.locks.state("k2").held("t1", LockMode.WRITE).is_empty
        # ...but the read range still blocks writers (sealed).
        probe = h.write_lock("t2", "k", "v2",
                             IntervalSet.from_interval(
                                 TsInterval.point(T(3, 2))),
                             all_or_nothing=True)
        assert probe.acquired.is_empty


class TestWriteLockTimers:
    """Each granted write lock arms one timer at hold time +
    ``write_lock_timeout`` (Alg. 13); only the server's next one sits in
    the simulator's heap, but every one fires at its own instant."""

    @staticmethod
    def spy(h, probes=False):
        """Record ``(now, tx, key)`` of every hold and every timer fire.
        With ``probes``, each hold also schedules a ``("probe", tx, key)``
        entry for the instant its timer is due: scheduled after the timer
        was armed, it must fire right after it."""
        holds, fired = [], []
        server = h.server
        hold, timeout = server._hold_write, server._write_lock_timeout

        def spy_hold(tx, key, value):
            holds.append((h.sim.now, tx, key))
            hold(tx, key, value)
            if probes:
                h.sim.schedule(server.write_lock_timeout,
                               lambda: fired.append(("probe", tx, key)))

        def spy_timeout(tx, key):
            fired.append((h.sim.now, tx, key))
            timeout(tx, key)

        server._hold_write = spy_hold
        server._write_lock_timeout = spy_timeout
        return holds, fired

    @staticmethod
    def point(v):
        return IntervalSet.from_interval(TsInterval.point(T(v, 1)))

    def test_timeouts_fire_at_hold_time_plus_timeout_in_hold_order(self):
        h = Harness(write_lock_timeout=0.5)
        holds, fired = self.spy(h, probes=True)
        for i, key in enumerate(["a", "b", "c", "a"]):
            h.write_lock(f"t{i}", key, "v", self.point(i + 1))
        h.sim.run_until(h.sim.now + 0.3)
        # Two holds at one instant: their timers tie on time and keep the
        # order their keys were reserved in, each ahead of its probe.
        h.send(MVTLBatchLockReq("t8", "cli", h.req_id(), items=(
            ("e", "v", self.point(30)), ("f", "v", self.point(31)))))
        h.write_lock("t9", "d", "v", self.point(20))
        h.sim.run_until(h.sim.now + 2.0)
        assert len(holds) == 7 and holds[4][0] == holds[5][0]
        assert fired == [entry for t, tx, key in holds
                         for entry in ((t + 0.5, tx, key), ("probe", tx, key))]
        assert h.sim.pending_events == 0

    def test_a_committed_holds_timer_is_a_noop(self):
        h = Harness(write_lock_timeout=0.5)
        _holds, fired = self.spy(h)
        h.write_lock("t1", "k", "val", self.point(2))
        h.commit("t1", T(2, 1), write_keys=("k",))
        h.sim.run_until(h.sim.now + 1.0)
        assert [tx for _t, tx, _k in fired] == ["t1"]
        assert h.registry.decision_of("t1") == T(2, 1)  # not ABORT
        assert h.server.store.version_at("k", T(2, 1)).value == "val"

    def test_a_timer_armed_before_a_crash_fires_after_restart(self):
        h = Harness(write_lock_timeout=0.5)
        holds, fired = self.spy(h)
        h.write_lock("t1", "k", "v", self.point(1))
        h.server.crash()
        h.sim.run_until(h.sim.now + 0.1)
        h.server.restart()
        h.write_lock("t2", "k", "v", self.point(2))
        h.sim.run_until(h.sim.now + 1.0)
        assert fired == [(t + 0.5, tx, key) for t, tx, key in holds]
        # The pre-crash hold evaporated with the lock table: no-op.
        assert h.registry.decision_of("t1") is None
        assert h.registry.decision_of("t2") == ABORT

    def test_two_holds_of_one_tx_key_both_fire(self):
        h = Harness(write_lock_timeout=0.5)
        holds, fired = self.spy(h)
        h.write_lock("t1", "k", "v", self.point(1))
        h.write_lock("t1", "k", "v", self.point(3))
        h.sim.run_until(h.sim.now + 1.0)
        assert [(tx, key) for _t, tx, key in holds] == [("t1", "k")] * 2
        assert fired == [(t + 0.5, tx, key) for t, tx, key in holds]
