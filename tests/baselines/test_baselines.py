"""Behaviour cases of MVTO+ and strict 2PL, each run on the reference
model (``mvto_model.py`` / ``twopl_model.py``) and on the MVTL policy that
Theorem 5 / 6 says behaves the same: ``MVTLEngine(MVTLTimestampOrdering())``
and ``MVTLEngine(MVTLPessimistic())``.  A case runs on the policy engine
wherever the lockstep suites (``test_thm5_lockstep.py``,
``test_thm6_lockstep.py``) say the two agree; the one that lies outside
that equivalence is overridden with what the policy engine does there."""

import random
import threading

import pytest

from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted, TransactionStateError
from repro.core.timestamp import BOTTOM, Timestamp
from repro.policies import MVTLPessimistic, MVTLTimestampOrdering
from repro.verify import HistoryRecorder, check_serializable
from tests.baselines.mvto_model import MVTOEngine
from tests.baselines.twopl_model import TwoPLEngine


class TestMVTOBasics:
    engine = staticmethod(MVTOEngine)

    @staticmethod
    def purge(engine, bound):
        engine.purge_before(bound)

    def test_read_write_commit(self):
        engine = self.engine()
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v")
        assert engine.commit(t1)
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "k") == "v"
        assert engine.commit(t2)

    def test_reads_never_abort(self):
        engine = self.engine()
        for i in range(30):
            tx = engine.begin(pid=1)
            engine.read(tx, f"k{i % 3}")
            assert engine.commit(tx)

    def test_read_timestamp_conflict_aborts_writer(self):
        engine = self.engine()
        reader = engine.begin(pid=2)      # ts 1
        writer = engine.begin(pid=1)      # ts 2... order matters:
        # reader must have the LARGER timestamp; re-begin to fix order.
        engine2 = self.engine()
        w = engine2.begin(pid=1)          # ts 1
        r = engine2.begin(pid=2)          # ts 2
        assert engine2.read(r, "x") is BOTTOM  # read-ts of v0 becomes 2
        engine2.write(w, "x", "late")
        assert not engine2.commit(w)      # write at ts 1 under read-ts 2

    def test_write_above_read_timestamp_commits(self):
        engine = self.engine()
        r = engine.begin(pid=1)           # ts 1
        engine.read(r, "x")
        w = engine.begin(pid=2)           # ts 2 > read-ts 1
        engine.write(w, "x", "ok")
        assert engine.commit(w)

    def test_read_your_writes(self):
        engine = self.engine()
        tx = engine.begin()
        engine.write(tx, "k", 7)
        assert engine.read(tx, "k") == 7

    def test_purge_aborts_old_readers(self):
        engine = self.engine()
        w1 = engine.begin(pid=1)
        engine.write(w1, "k", "v1")
        assert engine.commit(w1)
        w2 = engine.begin(pid=2)
        engine.write(w2, "k", "v2")
        assert engine.commit(w2)
        self.purge(engine, w2.commit_ts)
        old = engine.begin(pid=3)
        old.state.ts = Timestamp(w1.commit_ts.value, 99)  # pre-purge view
        with pytest.raises(TransactionAborted):
            engine.read(old, "k")

    def test_finished_tx_rejected(self):
        engine = self.engine()
        tx = engine.begin()
        engine.commit(tx)
        with pytest.raises(TransactionStateError):
            engine.write(tx, "k", 1)

    def test_version_count_metric(self):
        engine = self.engine()
        t = engine.begin()
        engine.write(t, "a", 1)
        engine.write(t, "b", 2)
        engine.commit(t)
        assert engine.version_count() == 4  # 2 keys x (initial + 1)


class TestMVTOConcurrent:
    engine = staticmethod(MVTOEngine)

    def test_threaded_serializable(self):
        history = HistoryRecorder()
        engine = self.engine(history=history)

        def worker(wid):
            rnd = random.Random(wid)
            for i in range(50):
                tx = engine.begin(pid=wid)
                try:
                    for _ in range(3):
                        k = f"k{rnd.randrange(5)}"
                        if rnd.random() < 0.5:
                            engine.read(tx, k)
                        else:
                            engine.write(tx, k, (wid, i))
                    engine.commit(tx)
                except TransactionAborted:
                    pass

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert check_serializable(history).serializable


class TestTwoPLBasics:
    engine = staticmethod(TwoPLEngine)

    def test_read_write_commit(self):
        engine = self.engine()
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", "v")
        assert engine.commit(t1)
        t2 = engine.begin(pid=2)
        assert engine.read(t2, "k") == "v"
        assert engine.commit(t2)

    def test_lock_timeout_aborts(self):
        engine = self.engine(lock_timeout=0.05)
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", 1)      # holds X lock
        t2 = engine.begin(pid=2)
        with pytest.raises(TransactionAborted):
            engine.read(t2, "k")
        assert engine.stats["lock_timeouts"] == 1
        assert engine.commit(t1)

    def test_shared_readers(self):
        engine = self.engine()
        t1 = engine.begin(pid=1)
        t2 = engine.begin(pid=2)
        assert engine.read(t1, "k") is BOTTOM
        assert engine.read(t2, "k") is BOTTOM  # no blocking
        assert engine.commit(t1) and engine.commit(t2)

    def test_upgrade_own_lock(self):
        engine = self.engine()
        tx = engine.begin()
        engine.read(tx, "k")
        engine.write(tx, "k", 1)  # read -> write upgrade, same tx
        assert engine.commit(tx)

    def test_abort_releases_locks(self):
        engine = self.engine(lock_timeout=0.05)
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", 1)
        engine.abort(t1)
        t2 = engine.begin(pid=2)
        engine.write(t2, "k", 2)   # no timeout: lock was released
        assert engine.commit(t2)

    def test_commit_ts_monotonic_for_conflicting_txs(self):
        engine = self.engine()
        t1 = engine.begin(pid=1)
        engine.write(t1, "k", 1)
        engine.commit(t1)
        t2 = engine.begin(pid=2)
        engine.write(t2, "k", 2)
        engine.commit(t2)
        assert t1.commit_ts < t2.commit_ts


class TestTwoPLConcurrent:
    engine = staticmethod(TwoPLEngine)

    def test_threaded_serializable(self):
        history = HistoryRecorder()
        engine = self.engine(history=history, lock_timeout=0.2)

        def worker(wid):
            rnd = random.Random(wid)
            for i in range(40):
                tx = engine.begin(pid=wid)
                try:
                    for _ in range(3):
                        k = f"k{rnd.randrange(5)}"
                        if rnd.random() < 0.5:
                            engine.read(tx, k)
                        else:
                            engine.write(tx, k, (wid, i))
                    engine.commit(tx)
                except TransactionAborted:
                    pass

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert check_serializable(history).serializable

    def test_no_lost_updates(self):
        engine = self.engine(lock_timeout=1.0)

        def worker(wid, n):
            done = 0
            while done < n:
                tx = engine.begin(pid=wid)
                try:
                    v = engine.read(tx, "c")
                    engine.write(tx, "c", (0 if v is BOTTOM else v) + 1)
                    if engine.commit(tx):
                        done += 1
                except TransactionAborted:
                    pass

        threads = [threading.Thread(target=worker, args=(w, 20))
                   for w in range(1, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = engine.begin(pid=9)
        assert engine.read(final, "c") == 60


def mvtl_to(**kwargs):
    return MVTLEngine(MVTLTimestampOrdering(), **kwargs)


def mvtl_pessimistic(lock_timeout=0.5, **kwargs):
    """The policy engine with 2PL's lock-wait bound as its wait timeout."""
    return MVTLEngine(MVTLPessimistic(), default_timeout=lock_timeout,
                      **kwargs)


class TestMVTLTOBasics(TestMVTOBasics):
    """The MVTO+ cases on MVTL-TO (Theorem 5)."""

    engine = staticmethod(mvtl_to)

    @staticmethod
    def purge(engine, bound):
        engine.purge_versions_before(bound)

    def test_purge_aborts_old_readers(self):
        """Outside Theorem 5's equivalence: the transaction's timestamp is
        set below a past purge bound, which §6's timestamp service rules
        out.  MVTO+ fails its read; MVTL-TO still serves the read from the
        version the purge kept, and the transaction cannot commit."""
        engine = self.engine()
        w1 = engine.begin(pid=1)
        engine.write(w1, "k", "v1")
        assert engine.commit(w1)
        w2 = engine.begin(pid=2)
        engine.write(w2, "k", "v2")
        assert engine.commit(w2)
        self.purge(engine, w2.commit_ts)
        old = engine.begin(pid=3)
        old.state.ts = Timestamp(w1.commit_ts.value, 99)  # pre-purge view
        assert engine.read(old, "k") == "v1"
        assert not engine.commit(old)


class TestMVTLTOConcurrent(TestMVTOConcurrent):
    engine = staticmethod(mvtl_to)


class TestMVTLPessimisticBasics(TestTwoPLBasics):
    """The strict-2PL cases on MVTL-Pessimistic (Theorem 6)."""

    engine = staticmethod(mvtl_pessimistic)


class TestMVTLPessimisticConcurrent(TestTwoPLConcurrent):
    engine = staticmethod(mvtl_pessimistic)
