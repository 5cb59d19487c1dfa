"""Unit tests for the generic MVTL engine (Algorithm 1)."""

import threading

import pytest

from repro.core.engine import MVTLEngine
from repro.core.exceptions import (PolicyError, TransactionAborted,
                                   TransactionStateError)
from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import BOTTOM, TS_ZERO, Timestamp
from repro.core.transaction import TxStatus
from repro.clocks.clock import LogicalClock
from repro.policies import (MVTIL, MVTLEpsilonClock, MVTLGhostbuster,
                            MVTLPessimistic, MVTLTimestampOrdering)
from repro.verify import HistoryRecorder, check_serializable


@pytest.fixture
def engine():
    return MVTLEngine(MVTLTimestampOrdering())


class TestBasicLifecycle:
    def test_read_your_writes(self, engine):
        tx = engine.begin()
        engine.write(tx, "k", 42)
        assert engine.read(tx, "k") == 42

    def test_fresh_key_reads_bottom(self, engine):
        tx = engine.begin()
        assert engine.read(tx, "k") is BOTTOM

    def test_commit_then_visible(self, engine):
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v")
        assert engine.commit(t1)
        assert t1.status is TxStatus.COMMITTED
        assert t1.commit_ts is not None
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "k") == "v"

    def test_aborted_write_invisible(self, engine):
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "dirty")
        engine.abort(t1)
        assert t1.status is TxStatus.ABORTED
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "k") is BOTTOM

    def test_empty_transaction_commits(self, engine):
        tx = engine.begin()
        assert engine.commit(tx)

    def test_read_only_transaction_commits(self, engine):
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", 1)
        assert engine.commit(t1)
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "k") == 1
        assert engine.commit(t2)

    def test_operations_on_finished_tx_raise(self, engine):
        tx = engine.begin()
        engine.commit(tx)
        with pytest.raises(TransactionStateError):
            engine.read(tx, "k")
        with pytest.raises(TransactionStateError):
            engine.write(tx, "k", 1)
        with pytest.raises(TransactionStateError):
            engine.commit(tx)

    def test_gc_on_active_tx_raises(self, engine):
        tx = engine.begin()
        with pytest.raises(TransactionStateError):
            engine.gc(tx)

    def test_stats_track_outcomes(self, engine):
        t1 = engine.begin()
        engine.commit(t1)
        t2 = engine.begin()
        engine.abort(t2)
        assert engine.stats["commits"] == 1
        assert engine.stats["aborts"] == 1


class TestCommitMechanics:
    def test_commit_freezes_write_point(self, engine):
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v")
        assert engine.commit(t1)
        state = engine.locks.peek("k")
        frozen = state.frozen(t1.id, LockMode.WRITE)
        assert frozen.contains(t1.commit_ts)

    def test_gc_freezes_read_prefix(self):
        engine = MVTLEngine(MVTLGhostbuster())  # gc on commit
        t1 = engine.begin(pid=1)
        engine.write(t1, "a", 1)
        assert engine.commit(t1)
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "a") == 1
        engine.write(t2, "b", 2)
        assert engine.commit(t2)
        state = engine.locks.peek("a")
        # The prefix (t1.commit_ts, t2.commit_ts] is frozen, and commit-gc
        # sealed it into the key's ownerless aggregate.
        assert t2.id not in state.owners()
        assert state.sealed_read_ranges().contains(t2.commit_ts)

    def test_candidates_exclude_ts_zero(self, engine):
        # A blind write must not commit at TS_ZERO (initial version slot).
        tx = engine.begin(pid=1)
        engine.write(tx, "k", "v")
        assert engine.commit(tx)
        assert tx.commit_ts > TS_ZERO

    def test_no_commit_at_or_below_a_purge_floor(self):
        """A purge keeps the newest version below its bound and drops the
        lock state under the bound, that version's frozen write point
        included.  A commit must still not land on that version's
        timestamp (a second install there raised) or below it."""
        engine = MVTLEngine(MVTLEpsilonClock(epsilon=5.0), LogicalClock())
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v1")
        assert engine.commit(t1)  # the lowest candidate: just above TS_ZERO
        engine.purge_versions_before(Timestamp(2.0, 0))
        _key, _versions, floor = engine.store.snapshot_row("k")
        assert floor == t1.commit_ts
        t2 = engine.begin(pid=1)  # its interval reaches below the floor
        engine.write(t2, "k", "v2")
        assert engine.commit(t2)
        assert t2.commit_ts > floor
        assert engine.store.version_count("k") == 2

    @pytest.mark.parametrize(
        "policy", [MVTLTimestampOrdering, MVTIL, MVTLPessimistic])
    def test_reader_commits_across_a_purge(self, policy):
        """A purge below a live reader's timestamp (§6 allows it) drops
        the start of the reader's read lock with the lock state below the
        bound.  The reader's cover counts from the bound, so it still
        commits — as it does under MVTO+."""
        engine = MVTLEngine(policy(), LogicalClock())
        t0 = engine.begin()
        engine.write(t0, "x", 1)
        assert engine.commit(t0)
        t1 = engine.begin()
        assert engine.read(t1, "x") == 1
        engine.purge_versions_before(Timestamp(1.25, 0))
        assert engine.commit(t1)
        assert t1.commit_ts >= Timestamp(1.25, 0)

    def test_read_below_a_purge_must_be_newest_there(self):
        """A read below the purge bound counts its cover from the bound
        only while the version it read is still the newest below it.
        Here a version committed above the read's (cut-short) lock and
        below the bound; the reader also write-locked the key above that
        version, so after the purge it holds the bound itself — yet it
        read the older version and must not commit (a lost update)."""
        engine = MVTLEngine(MVTLPessimistic(), LogicalClock(),
                            default_timeout=0)
        f = Timestamp(1.5, 0)
        writer = engine.begin(pid=1)
        engine.acquire(writer, "x", LockMode.WRITE, TsInterval.point(f),
                       wait=False)
        engine.freeze(writer, "x", LockMode.WRITE, TsInterval.point(f))
        reader = engine.begin(pid=2)
        assert engine.read(reader, "x") is BOTTOM  # locks (0, f), cut at f
        engine.write(writer, "x", "w")  # meets the read lock; keeps f
        assert engine.commit(writer)
        assert writer.commit_ts == f
        engine.write(reader, "x", "r")  # everything but f
        engine.purge_versions_before(Timestamp(2.0, 0))
        assert not engine.commit(reader)

    def test_policy_picking_unlocked_ts_raises(self):
        class BadPolicy(MVTLTimestampOrdering):
            def commit_ts(self, engine, tx, candidates):
                return Timestamp(99999.0, 99)  # never locked

        engine = MVTLEngine(BadPolicy())
        tx = engine.begin(pid=1)
        engine.write(tx, "k", 1)
        with pytest.raises(PolicyError):
            engine.commit(tx)
        assert tx.aborted

    def test_policy_error_still_releases_locks(self):
        """Regression: the PolicyError path must GC before re-raising —
        otherwise the doomed transaction's locks leak and block the key
        forever.  (Uses a collecting policy: MVTL-TO keeps aborted
        transactions' locks on purpose, per MVTO+'s ghost aborts.)"""
        class BadPolicy(MVTLGhostbuster):
            def commit_ts(self, engine, tx, candidates):
                return Timestamp(99999.0, 99)  # never locked

        engine = MVTLEngine(BadPolicy())
        tx = engine.begin(pid=1)
        engine.write(tx, "k", 1)
        with pytest.raises(PolicyError):
            engine.commit(tx)
        state = engine.locks.peek("k")
        assert state is None or tx.id not in state.owners()
        # The key is usable again by a sane transaction.
        engine2_tx = engine.begin(pid=2)
        result = engine.acquire(engine2_tx, "k", LockMode.WRITE,
                                TsInterval.closed(TS_ZERO, Timestamp(1e6, 0)),
                                wait=False)
        assert not result.acquired.is_empty


class TestHistoryRecording:
    def test_history_records_everything(self):
        history = HistoryRecorder()
        engine = MVTLEngine(MVTLTimestampOrdering(), history=history)
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v")
        engine.commit(t1)
        t2 = engine.begin(pid=2)
        engine.read(t2, "k")
        engine.commit(t2)
        t3 = engine.begin(pid=3)
        engine.abort(t3, "test")
        records = {r.tx_id: r for r in history.records()}
        assert records[t1.tx_id if hasattr(t1, 'tx_id') else t1.id].writes == ("k",)
        assert records[t2.id].reads == [("k", t1.commit_ts)]
        assert records[t3.id].aborted

    def test_history_serializable(self):
        history = HistoryRecorder()
        engine = MVTLEngine(MVTLTimestampOrdering(), history=history)
        for i in range(20):
            tx = engine.begin(pid=1)
            engine.read(tx, f"k{i % 3}")
            engine.write(tx, f"k{(i + 1) % 3}", i)
            engine.commit(tx)
        assert check_serializable(history).serializable


class TestConcurrentEngine:
    """Real threads against one engine: mutual exclusion + serializability."""

    def test_concurrent_counter_increments_never_lost(self):
        history = HistoryRecorder()
        engine = MVTLEngine(MVTLGhostbuster(), history=history,
                            default_timeout=5.0)
        committed = []
        lock = threading.Lock()

        def worker(wid):
            done = 0
            while done < 15:
                tx = engine.begin(pid=wid)
                try:
                    v = engine.read(tx, "counter")
                    v = 0 if v is BOTTOM else v
                    engine.write(tx, "counter", v + 1)
                    if engine.commit(tx):
                        done += 1
                        with lock:
                            committed.append(tx)
                except TransactionAborted:
                    pass

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every committed increment must be visible: final value == count.
        final = engine.begin(pid=99)
        assert engine.read(final, "counter") == 4 * 15
        assert check_serializable(history).serializable
