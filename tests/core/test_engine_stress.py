"""Concurrency stress tests for the striped engine (real threads, not DES).

Two regimes:

* disjoint per-thread keysets — must run conflict-free whatever stripes the
  keys hash to, every transaction commits, and the per-stripe contention
  counters stay zero;
* a shared hot keyset — transactions conflict, wait, and abort, and the
  recorded history must still be one-copy serializable.
"""

import sys
import threading

import pytest

from repro.core.collector import BackgroundCollector
from repro.core.engine import DEFAULT_STRIPES, MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.policies import MVTIL, MVTLPessimistic
from repro.verify.history import HistoryRecorder
from repro.verify.mvsg import check_serializable

THREADS = 8
TXS_PER_THREAD = 25


def _run_threads(worker, threads=THREADS):
    """Run ``worker(i)`` on ``threads`` threads after a common barrier."""
    barrier = threading.Barrier(threads)
    errors = []

    def wrapped(i):
        try:
            barrier.wait()
            worker(i)
        except Exception as exc:  # noqa: BLE001 - surfaced via assert below
            errors.append(exc)

    ts = [threading.Thread(target=wrapped, args=(i,))
          for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errors, errors


class TestDisjointKeysets:
    def test_disjoint_threads_commit_conflict_free(self):
        history = HistoryRecorder()
        engine = MVTLEngine(MVTIL(), default_timeout=10.0, history=history)
        committed = [0] * THREADS

        def worker(i):
            keys = [f"w{i}-{j}" for j in range(8)]
            for n in range(TXS_PER_THREAD):
                tx = engine.begin(pid=i)
                for key in {keys[n % 8], keys[(n + 1) % 8]}:
                    engine.read(tx, key)
                    engine.write(tx, key, (i, n))
                assert engine.commit(tx)
                committed[i] += 1

        _run_threads(worker)
        assert sum(committed) == THREADS * TXS_PER_THREAD
        report = check_serializable(history)
        assert report.serializable, report
        # Disjoint keysets never conflict, whatever stripe each key hashes
        # to — stripes serialize bookkeeping, they don't create conflicts.
        contention = engine.stripe_contention()
        assert sum(contention["conflicts"]) == 0
        assert sum(contention["waits"]) == 0

    def test_single_stripe_still_correct(self):
        # stripes=1 recovers the old single-condition engine; the same
        # disjoint workload must behave identically (slower, not wronger).
        engine = MVTLEngine(MVTIL(), default_timeout=10.0, stripes=1)
        committed = [0] * THREADS

        def worker(i):
            for n in range(TXS_PER_THREAD):
                tx = engine.begin(pid=i)
                engine.read(tx, f"s{i}")
                engine.write(tx, f"s{i}", n)
                assert engine.commit(tx)
                committed[i] += 1

        _run_threads(worker)
        assert sum(committed) == THREADS * TXS_PER_THREAD
        assert engine.num_stripes == 1


class TestHotKeyset:
    def test_contended_history_serializable(self):
        history = HistoryRecorder()
        engine = MVTLEngine(MVTLPessimistic(), default_timeout=10.0,
                            history=history)
        hot = [f"h{j}" for j in range(4)]
        committed = [0] * THREADS

        def worker(i):
            for n in range(TXS_PER_THREAD):
                tx = engine.begin(pid=i)
                try:
                    key = hot[(i + n) % len(hot)]
                    engine.read(tx, key)
                    engine.write(tx, key, (i, n))
                    if engine.commit(tx):
                        committed[i] += 1
                except TransactionAborted:
                    pass

        _run_threads(worker)
        assert sum(committed) > 0
        report = check_serializable(history)
        assert report.serializable, report

    def test_contended_mvtil_serializable(self):
        history = HistoryRecorder()
        engine = MVTLEngine(MVTIL(delta=0.002), default_timeout=10.0,
                            history=history)
        committed = [0] * THREADS

        def worker(i):
            for n in range(TXS_PER_THREAD):
                tx = engine.begin(pid=i)
                try:
                    engine.read(tx, "hot")
                    engine.write(tx, "hot", (i, n))
                    if engine.commit(tx):
                        committed[i] += 1
                except TransactionAborted:
                    pass

        _run_threads(worker)
        report = check_serializable(history)
        assert report.serializable, report
        assert engine.num_stripes == DEFAULT_STRIPES


class TestCollectorSweeps:
    @pytest.mark.parametrize("gc_on_commit", [True, False])
    def test_commits_interleaved_with_sweeps(self, gc_on_commit):
        # Two threads on a shared keyset, each sweeping the collector every
        # few transactions (the perflab engine-threads shape): commit-time
        # GC and background sweeps interleave on the same stripes.  A short
        # switch interval makes the interpreter interleave them finely.
        history = HistoryRecorder()
        engine = MVTLEngine(MVTIL(delta=0.002, gc_on_commit=gc_on_commit),
                            default_timeout=10.0, history=history)
        collector = BackgroundCollector(engine)
        keys = [f"k{j}" for j in range(6)]
        committed = [0, 0]

        def worker(i):
            for n in range(4 * TXS_PER_THREAD):
                tx = engine.begin(pid=i + 1)
                try:
                    engine.read(tx, keys[(i + n) % len(keys)])
                    engine.write(tx, keys[(i + 2 * n) % len(keys)], (i, n))
                    if engine.commit(tx):
                        committed[i] += 1
                except TransactionAborted:
                    pass
                collector.note_finished(tx)
                if n % 5 == 4:
                    collector.collect_now()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(worker, threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert sum(committed) > 0
        report = check_serializable(history)
        assert report.serializable, report
        collector.collect_now()
        assert collector.pending == 0
        assert engine.locks.owners() == []
        for key in keys:
            assert not list(engine.locks.state(key).owners()), key
