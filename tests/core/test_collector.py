"""Tests for the background collector (deferred Algorithm 1 gc)."""

import threading
import time

import pytest

from repro.core.collector import BackgroundCollector
from repro.core.engine import MVTLEngine
from repro.core.locks import LockMode
from repro.core.timestamp import Timestamp
from repro.policies import MVTIL, MVTLTimestampOrdering


@pytest.fixture
def engine():
    return MVTLEngine(MVTLTimestampOrdering())


class TestCollectNow:
    def test_collects_committed_locks(self, engine):
        collector = BackgroundCollector(engine)
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v")
        assert engine.commit(t1)
        collector.note_finished(t1)
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "k") == "v"
        assert engine.commit(t2)
        collector.note_finished(t2)
        assert collector.collect_now() == 2
        # t2's read locks are frozen up to its commit ts and sealed into
        # the key's ownerless aggregate; its owner record is gone.
        state = engine.locks.peek("k")
        assert t2.id not in state.owners()
        assert state.sealed_read_ranges().contains(t2.commit_ts)

    def test_grace_period_defers(self, engine):
        collector = BackgroundCollector(engine, grace=100.0)
        tx = engine.begin(pid=1)
        engine.commit(tx)
        collector.note_finished(tx)
        assert collector.collect_now() == 0
        assert collector.pending == 1
        # Far in the "future", it collects.
        assert collector.collect_now(now=time.monotonic() + 200.0) == 1
        assert collector.pending == 0

    def test_collect_aborted_removes_ghost_locks(self, engine):
        collector = BackgroundCollector(engine, collect_aborted=True)
        t1 = engine.begin(pid=1)
        engine.read(t1, "x")
        engine.abort(t1)
        collector.note_finished(t1)
        collector.collect_now()
        state = engine.locks.peek("x")
        assert state is None or state.held(t1.id, LockMode.READ).is_empty

    def test_keep_aborted_preserves_mvto_semantics(self, engine):
        collector = BackgroundCollector(engine, collect_aborted=False)
        t1 = engine.begin(pid=1)
        engine.read(t1, "x")
        engine.abort(t1)
        collector.note_finished(t1)
        collector.collect_now()
        # The aborted transaction's read locks persist (ghost-abort mode).
        assert not engine.locks.held(t1.id, "x", LockMode.READ).is_empty

    def test_active_tx_rejected(self, engine):
        collector = BackgroundCollector(engine)
        tx = engine.begin()
        with pytest.raises(ValueError):
            collector.note_finished(tx)
        engine.abort(tx)

    def test_purge_horizon(self, engine):
        collector = BackgroundCollector(engine, purge_horizon=0.0)
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "old")
        assert engine.commit(t1)
        t2 = engine.begin(pid=2)
        engine.write(t2, "k", "new")
        assert engine.commit(t2)
        collector.note_finished(t1)
        collector.note_finished(t2)
        before = engine.store.version_count()
        collector.collect_now()
        assert engine.store.version_count() < before
        assert collector.stats["purged_versions"] > 0


class _CountingLock:
    """An RLock that counts acquisitions (condition waits excluded)."""

    def __init__(self, counts):
        self._lock = threading.RLock()
        self._counts = counts

    def acquire(self, *args, **kwargs):
        self._counts["stripes"] += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()

    def _is_owned(self):
        return self._lock._is_owned()

    def _release_save(self):
        return self._lock._release_save()

    def _acquire_restore(self, state):
        self._lock._acquire_restore(state)


@pytest.fixture
def counted(monkeypatch):
    """Stripe acquisitions (of an engine built by :func:`counting_engine`)
    and GC passes (``MVTLEngine._collect`` calls)."""
    counts = {"stripes": 0, "seals": 0}
    collect = MVTLEngine._collect

    def counting_collect(self, *args):
        counts["seals"] += 1
        collect(self, *args)

    monkeypatch.setattr(MVTLEngine, "_collect", counting_collect)
    return counts


def counting_engine(policy, counts):
    engine = MVTLEngine(policy)
    engine._stripes = tuple(
        threading.Condition(_CountingLock(counts))
        for _ in engine._stripes)
    return engine


def read_write_commit(engine, pid, read_key, write_key, value):
    tx = engine.begin(pid=pid)
    engine.read(tx, read_key)
    engine.write(tx, write_key, value)
    assert engine.commit(tx)
    return tx


class TestCollectedOnce:
    """Algorithm 1 runs gc once per transaction: at commit, or later."""

    def test_commit_gc_transaction_is_not_collected_again(self, counted):
        engine = counting_engine(MVTIL(), counted)
        collector = BackgroundCollector(engine)
        t1 = read_write_commit(engine, 1, "x", "k", "v1")
        t2 = read_write_commit(engine, 2, "k", "y", "v2")
        assert t1.collected and t2.collected
        assert counted["seals"] == 2
        collector.note_finished(t1)
        collector.note_finished(t2)
        assert collector.pending == 0
        stripes = counted["stripes"]
        assert collector.collect_now() == 0
        engine.gc(t1)  # a direct call is a no-op too
        assert counted["stripes"] == stripes  # no stripe re-taken
        assert counted["seals"] == 2  # nothing re-sealed
        assert engine.locks.owners() == []

    def test_collected_abort_is_not_queued(self, counted):
        engine = counting_engine(MVTIL(), counted)
        collector = BackgroundCollector(engine)
        tx = engine.begin(pid=1)
        engine.read(tx, "x")
        engine.abort(tx)  # MVTIL collects aborted transactions at once
        assert tx.collected and counted["seals"] == 1
        collector.note_finished(tx)
        assert collector.pending == 0
        assert engine.locks.peek("x").held(tx.id, LockMode.READ).is_empty

    def test_mvtil_without_commit_gc_is_still_collected(self, counted):
        engine = counting_engine(MVTIL(gc_on_commit=False), counted)
        collector = BackgroundCollector(engine)
        tx = read_write_commit(engine, 1, "x", "k", "v")
        assert not tx.collected and counted["seals"] == 0
        state = engine.locks.peek("x")
        assert tx.id in state.owners()
        collector.note_finished(tx)
        assert collector.collect_now() == 1
        assert tx.collected and counted["seals"] == 1
        # The read span up to the commit timestamp was frozen and sealed.
        assert tx.id not in state.owners()
        assert state.sealed_read_ranges().contains(tx.commit_ts)
        collector.note_finished(tx)
        assert collector.collect_now() == 0
        assert counted["seals"] == 1

    def test_mvtl_to_is_still_collected(self, counted):
        engine = counting_engine(MVTLTimestampOrdering(), counted)
        collector = BackgroundCollector(engine)
        t1 = read_write_commit(engine, 1, "x", "k", "v")
        assert not t1.collected and counted["seals"] == 0
        collector.note_finished(t1)
        assert collector.collect_now() == 1
        assert t1.collected and counted["seals"] == 1
        assert engine.locks.owners() == []


class TestDaemonMode:
    def test_start_stop(self, engine):
        collector = BackgroundCollector(engine)
        collector.start(period=0.01)
        tx = engine.begin(pid=1)
        engine.write(tx, "k", 1)
        engine.commit(tx)
        collector.note_finished(tx)
        deadline = time.monotonic() + 5.0
        while collector.pending and time.monotonic() < deadline:
            time.sleep(0.01)
        collector.stop()
        assert collector.pending == 0
        assert collector.stats["collected"] >= 1

    def test_double_start_rejected(self, engine):
        collector = BackgroundCollector(engine)
        collector.start(period=1.0)
        try:
            with pytest.raises(RuntimeError):
                collector.start()
        finally:
            collector.stop()

    def test_stop_idempotent(self, engine):
        collector = BackgroundCollector(engine)
        collector.stop()  # never started: no-op
