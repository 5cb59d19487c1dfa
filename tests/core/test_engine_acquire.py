"""Tests for the engine's blocking acquire primitive — the three waiting
idioms the paper's pseudo-code uses (§4.3, Algorithms 3-10)."""

import threading
import time

import numpy as np
import pytest

from repro.core.engine import MVTLEngine
from repro.core.intervals import FULL_INTERVAL, IntervalSet, TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import Timestamp
from repro.policies import MVTLPessimistic, MVTLTimestampOrdering
from repro.workload import WorkloadConfig, WorkloadGenerator


def T(v, p=0):
    return Timestamp(v, p)


@pytest.fixture
def engine():
    return MVTLEngine(MVTLTimestampOrdering(), default_timeout=2.0)


def iv(a, b):
    return TsInterval.closed(T(a), T(b))


class TestNoWait:
    def test_grants_free_part_immediately(self, engine):
        t1 = engine.begin(pid=1)
        t2 = engine.begin(pid=2)
        engine.acquire(t1, "k", LockMode.WRITE, iv(3, 5), wait=False)
        result = engine.acquire(t2, "k", LockMode.WRITE, iv(1, 9),
                                wait=False)
        assert result.acquired.contains(T(1))
        assert result.acquired.contains(T(8))
        assert not result.acquired.contains(T(4))
        assert result.conflicts
        assert not result.ok

    def test_ok_when_no_conflict(self, engine):
        tx = engine.begin(pid=1)
        result = engine.acquire(tx, "k", LockMode.READ, iv(1, 5),
                                wait=False)
        assert result.ok and not result.timed_out

    @pytest.mark.parametrize("stop_on_frozen", [True, False])
    def test_one_probe_past_frozen_and_unfrozen_holds(self, engine,
                                                      stop_on_frozen):
        """Without waiting, frozen holds cost nothing extra: one probe
        grants everything free and reports every hold that cut it."""
        t1 = engine.begin(pid=1)
        t2 = engine.begin(pid=2)
        t3 = engine.begin(pid=3)
        engine.acquire(t1, "k", LockMode.WRITE, iv(2, 3), wait=False)
        engine.freeze(t1, "k", LockMode.WRITE, iv(2, 3))
        engine.acquire(t2, "k", LockMode.WRITE, iv(6, 7), wait=False)
        result = engine.acquire(t3, "k", LockMode.WRITE, iv(1, 9),
                                wait=False, stop_on_frozen=stop_on_frozen)
        assert result.acquired == IntervalSet.from_interval(iv(1, 9)).subtract(
            IntervalSet.from_interval(iv(2, 3))).subtract(
            IntervalSet.from_interval(iv(6, 7)))
        assert sorted(c.frozen for c in result.conflicts) == [False, True]
        assert engine.stripe_contention()["conflicts"][
            engine.stripe_of("k")] == 1


class TestWaitStopOnFrozen:
    def test_wakes_on_release(self, engine):
        t1 = engine.begin(pid=1)
        t2 = engine.begin(pid=2)
        engine.acquire(t1, "k", LockMode.WRITE, iv(3, 5), wait=False)
        got = {}

        def waiter():
            got["result"] = engine.acquire(t2, "k", LockMode.READ, iv(1, 9),
                                           wait=True, stop_on_frozen=True)

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.1)
        engine.release(t1, "k", LockMode.WRITE, iv(3, 5))
        th.join(timeout=5)
        assert got["result"].ok

    def test_returns_on_freeze(self, engine):
        t1 = engine.begin(pid=1)
        t2 = engine.begin(pid=2)
        engine.acquire(t1, "k", LockMode.WRITE, iv(3, 5), wait=False)
        got = {}

        def waiter():
            got["result"] = engine.acquire(t2, "k", LockMode.READ, iv(1, 9),
                                           wait=True, stop_on_frozen=True)

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.1)
        engine.freeze(t1, "k", LockMode.WRITE, TsInterval.point(T(4)))
        th.join(timeout=5)
        result = got["result"]
        assert result.frozen_conflicts  # stopped because of the frozen lock

    def test_timeout(self, engine):
        t1 = engine.begin(pid=1)
        t2 = engine.begin(pid=2)
        engine.acquire(t1, "k", LockMode.WRITE, iv(3, 5), wait=False)
        result = engine.acquire(t2, "k", LockMode.READ, iv(1, 9),
                                wait=True, timeout=0.2)
        assert result.timed_out
        assert engine.stats["lock_timeouts"] == 1


class TestWaitSkipFrozen:
    def test_skips_frozen_waits_for_unfrozen(self, engine):
        holder = engine.begin(pid=1)
        engine.acquire(holder, "k", LockMode.WRITE, TsInterval.point(T(2)),
                       wait=False)
        engine.freeze(holder, "k", LockMode.WRITE, TsInterval.point(T(2)))
        blocker = engine.begin(pid=2)
        engine.acquire(blocker, "k", LockMode.READ, iv(5, 6), wait=False)
        asker = engine.begin(pid=3)
        got = {}

        def waiter():
            got["result"] = engine.acquire(
                asker, "k", LockMode.WRITE, iv(1, 9),
                wait=True, stop_on_frozen=False)

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.1)
        engine.release(blocker, "k", LockMode.READ, iv(5, 6))
        th.join(timeout=5)
        result = got["result"]
        # Everything except the frozen point was eventually acquired.
        assert result.acquired.contains(T(1))
        assert result.acquired.contains(T(9))
        assert result.acquired.contains(T(5))
        assert not result.acquired.contains(T(2))
        # The skipped frozen range is reported.
        assert result.frozen_conflicts


class TestTimeoutSentinel:
    """Regression: ``timeout=None`` must mean *wait forever*, not *use the
    default* — the old code treated None as the not-passed sentinel and
    silently substituted ``default_timeout``."""

    def test_none_waits_past_default_timeout(self):
        engine = MVTLEngine(MVTLTimestampOrdering(), default_timeout=0.2)
        holder = engine.begin(pid=1)
        engine.acquire(holder, "k", LockMode.WRITE, iv(3, 5), wait=False)
        got = {}

        def waiter():
            t2 = engine.begin(pid=2)
            got["result"] = engine.acquire(t2, "k", LockMode.READ, iv(1, 9),
                                           wait=True, timeout=None)

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.5)  # well past default_timeout
        assert th.is_alive(), "timeout=None gave up at default_timeout"
        engine.release(holder, "k", LockMode.WRITE, iv(3, 5))
        th.join(timeout=5)
        assert got["result"].ok
        assert engine.stats["lock_timeouts"] == 0

    def test_not_passed_still_uses_default(self):
        engine = MVTLEngine(MVTLTimestampOrdering(), default_timeout=0.2)
        holder = engine.begin(pid=1)
        engine.acquire(holder, "k", LockMode.WRITE, iv(3, 5), wait=False)
        t2 = engine.begin(pid=2)
        start = time.monotonic()
        result = engine.acquire(t2, "k", LockMode.READ, iv(1, 9), wait=True)
        assert result.timed_out
        assert time.monotonic() - start < 2.0


class TestReleaseAllWriteLocks:
    def test_backs_out_unfrozen_only(self, engine):
        tx = engine.begin(pid=1)
        engine.acquire(tx, "a", LockMode.WRITE, TsInterval.point(T(1)),
                       wait=False)
        engine.acquire(tx, "b", LockMode.WRITE, TsInterval.point(T(1)),
                       wait=False)
        engine.acquire(tx, "b", LockMode.READ, iv(3, 4), wait=False)
        engine.freeze(tx, "a", LockMode.WRITE, TsInterval.point(T(1)))
        engine.release_all_write_locks(tx)
        assert engine.locks.held(tx.id, "a", LockMode.WRITE) == \
            IntervalSet.point(T(1))  # frozen stays
        assert engine.locks.held(tx.id, "b", LockMode.WRITE).is_empty
        assert not engine.locks.held(tx.id, "b", LockMode.READ).is_empty


class TestContentionCount:
    """``stripe_contention()["conflicts"]`` counts a waiting acquire only
    when it meets a live (unfrozen) holder: ``mvtl-adaptive`` reads the
    counter as its contention signal, and frozen history is no contention."""

    def test_one_thread_pessimistic_counts_nothing(self):
        """One thread, one transaction at a time: every write meets the
        frozen history of the transactions before it, never a live
        holder."""
        engine = MVTLEngine(MVTLPessimistic(), default_timeout=0)
        gen = WorkloadGenerator(
            WorkloadConfig(num_keys=64, tx_size=4, write_fraction=0.5,
                           zipf_s=0.8), np.random.default_rng(7))
        for _ in range(500):
            tx = engine.begin(pid=1)
            for op in gen.next_tx().ops:
                if op.is_write:
                    engine.write(tx, op.key, op.value)
                else:
                    engine.read(tx, op.key)
            assert engine.commit(tx)
        counters = engine.stripe_contention()
        assert sum(counters["conflicts"]) == 0
        assert sum(counters["waits"]) == 0
        assert engine.stats["commits"] == 500

    def test_skipped_frozen_range_is_not_counted(self, engine):
        t1 = engine.begin(pid=1)
        engine.acquire(t1, "k", LockMode.WRITE, iv(2, 3), wait=False)
        engine.freeze(t1, "k", LockMode.WRITE, iv(2, 3))
        t2 = engine.begin(pid=2)
        result = engine.acquire(t2, "k", LockMode.WRITE, iv(1, 9),
                                wait=True, stop_on_frozen=False)
        assert not result.timed_out
        assert [c.frozen for c in result.conflicts] == [True]
        assert sum(engine.stripe_contention()["conflicts"]) == 0

    @pytest.mark.parametrize("stop_on_frozen", [False, True])
    def test_live_holder_is_counted(self, engine, stop_on_frozen):
        t1 = engine.begin(pid=1)
        engine.acquire(t1, "k", LockMode.WRITE, iv(2, 3), wait=False)
        t2 = engine.begin(pid=2)
        result = engine.acquire(t2, "k", LockMode.WRITE, iv(1, 9),
                                wait=True, stop_on_frozen=stop_on_frozen,
                                timeout=0)
        assert result.timed_out
        assert engine.stripe_contention()["conflicts"][
            engine.stripe_of("k")] == 1
