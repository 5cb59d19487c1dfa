"""Audit of the empty-locked-set early returns in ``read_lock_interval``.

``MVTLPolicy.read_lock_interval`` can return a *successful* read with an
empty locked interval set in three places: the requested interval
``(tr, upper]`` is empty, frozen-write truncation leaves nothing lockable,
or the surviving piece is not adjacent to the version read.  These tests
pin each path and prove the safety argument stated in the helper's
docstring: the engine derives commit candidates exclusively from the lock
table, so a key read without locks contributes an *empty* cover — it can
never smuggle an unlocked timestamp into the candidate set, and a
transaction whose only cover is empty aborts with NO_COMMON_TIMESTAMP
rather than committing at an unlocked point.  The same edge cases are
pinned for ``MVTLEngine.read_prefix``, the one-pass read MVTIL uses.
"""

import pytest

from repro.clocks.clock import PerfectClock
from repro.core.engine import MVTLEngine
from repro.core.exceptions import AbortReason, TransactionAborted
from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import Timestamp
from repro.policies import MVTIL, MVTLTimestampOrdering


def ts(value: float, pid: int = 0) -> Timestamp:
    return Timestamp(float(value), pid)


def make_engine(now: float = 5.0, policy=None):
    """Engine on a pinned clock; tests adjust ``src[0]`` to steer begin ts."""
    src = [now]
    engine = MVTLEngine(policy or MVTLTimestampOrdering(),
                        clock=PerfectClock(source=lambda: src[0]),
                        default_timeout=0.01)
    return engine, src


def freeze_write(engine, key, lo, hi, pid=9):
    """Simulate a committed writer's frozen write range (lo, hi]."""
    span = TsInterval.open_closed(ts(lo), ts(hi))
    writer = engine.begin(pid=pid)
    result = engine.acquire(writer, key, LockMode.WRITE, span, wait=False)
    assert result.ok, "test setup: frozen span must be uncontended"
    engine.locks.freeze(writer.id, key, LockMode.WRITE, span)
    return writer


def held_cover(engine, tx, key) -> IntervalSet:
    return engine.locks.held(tx.id, key, LockMode.READ).union(
        engine.locks.held(tx.id, key, LockMode.WRITE))


class TestEmptyLockedSetPaths:
    def test_empty_interval_when_version_at_or_above_upper(self):
        # Path 1: tr >= upper — the interval (tr, upper] is empty.
        engine, _ = make_engine()
        engine.store.install("k", ts(2.0), "v2")
        reader = engine.begin()
        got = engine.policy.read_lock_interval(
            engine, reader, "k", ts(1.0), version_below=ts(3.0))
        assert got is not None
        version, locked = got
        assert version.ts == ts(2.0)
        assert locked.is_empty
        assert engine.locks.held(reader.id, "k", LockMode.READ).is_empty

    def test_empty_when_frozen_covers_whole_range(self):
        # Path 2: (tr, upper] sits entirely inside frozen write ranges.
        engine, _ = make_engine()
        engine.store.install("k", ts(1.0), "v1")
        freeze_write(engine, "k", 1.0, 3.0)
        reader = engine.begin()
        got = engine.policy.read_lock_interval(
            engine, reader, "k", ts(2.0), version_below=ts(1.5))
        assert got is not None
        version, locked = got
        assert version.ts == ts(1.0)
        assert locked.is_empty
        assert engine.locks.held(reader.id, "k", LockMode.READ).is_empty

    def test_empty_when_first_piece_not_adjacent_to_version(self):
        # Path 3: a frozen write sits immediately above tr, but its version
        # is outside the lookup bound — the surviving piece (1.5, 2.5] is
        # not adjacent to the version read at 1.0, so nothing is locked.
        engine, _ = make_engine()
        engine.store.install("k", ts(1.0), "v1")
        freeze_write(engine, "k", 1.0, 1.5)
        reader = engine.begin()
        got = engine.policy.read_lock_interval(
            engine, reader, "k", ts(2.5), version_below=ts(1.2))
        assert got is not None
        version, locked = got
        assert version.ts == ts(1.0)
        assert locked.is_empty
        assert engine.locks.held(reader.id, "k", LockMode.READ).is_empty


def conflicts(engine) -> int:
    return sum(engine.stripe_contention()["conflicts"])


class TestOnePassReadPaths:
    """The same edge cases through ``MVTLEngine.read_prefix``, the one-pass
    read MVTIL uses: one stripe acquisition, nothing locked beyond the
    prefix it returns, and an MVTIL read that cannot be protected ends
    with an empty interval."""

    def mvtil_read(self, engine, src, key, begin_at, delta=1.0):
        """Begin an MVTIL transaction at ``begin_at`` and read ``key``;
        returns the transaction and the abort reason (None on success)."""
        src[0] = begin_at
        engine.policy.delta = delta
        tx = engine.begin(pid=1)
        try:
            engine.read(tx, key)
        except TransactionAborted as exc:
            return tx, exc.reason
        return tx, None

    def test_frozen_write_directly_above_tr(self):
        engine, src = make_engine(policy=MVTIL())
        engine.store.install("k", ts(1.0), "v1")
        freeze_write(engine, "k", 1.0, 1.5)
        reader = engine.begin()
        version, locked = engine.read_prefix(reader, "k", ts(1.2))
        assert version.ts == ts(1.0)
        assert locked.is_empty
        assert engine.locks.held(reader.id, "k", LockMode.READ).is_empty
        assert "k" not in engine.locks.keys_of(reader.id)
        # A version boundary the lookup raced with, not contention.
        assert conflicts(engine) == 0
        tx, reason = self.mvtil_read(engine, src, "k", 1.1, delta=0.1)
        assert reason == AbortReason.READ_FAILED
        assert tx.state.interval.is_empty

    def test_unfrozen_write_directly_above_tr(self):
        engine, src = make_engine(policy=MVTIL())
        engine.store.install("k", ts(1.0), "v1")
        writer = engine.begin(pid=9)
        engine.acquire(writer, "k", LockMode.WRITE,
                       TsInterval.open_closed(ts(1.0), ts(4.0)), wait=False)
        reader = engine.begin()
        version, locked = engine.read_prefix(reader, "k", ts(3.0))
        assert version.ts == ts(1.0)
        assert locked.is_empty
        assert engine.locks.held(reader.id, "k", LockMode.READ).is_empty
        assert conflicts(engine) == 1
        tx, reason = self.mvtil_read(engine, src, "k", 2.0)
        assert reason == AbortReason.READ_FAILED
        assert tx.state.interval.is_empty
        assert engine.locks.held(tx.id, "k", LockMode.READ).is_empty

    def test_nothing_locked_beyond_the_prefix(self):
        # Another owner's write lock inside (tr, upper]: the prefix stops
        # just below it and the range above it is not locked at all (the
        # three-pass read locked it and then released it).
        engine, src = make_engine(policy=MVTIL())
        engine.store.install("k", ts(1.0), "v1")
        writer = engine.begin(pid=9)
        engine.acquire(writer, "k", LockMode.WRITE,
                       TsInterval.closed(ts(2.0), ts(2.5)), wait=False)
        tx, reason = self.mvtil_read(engine, src, "k", 1.5, delta=2.0)
        assert reason is None
        prefix = TsInterval.closed_open(ts(1.0, 1), ts(2.0))
        assert (engine.locks.held(tx.id, "k", LockMode.READ)
                == IntervalSet.from_interval(prefix))
        assert tx.state.interval == IntervalSet.from_interval(
            TsInterval.closed(ts(1.5, 1), prefix.hi))
        assert conflicts(engine) == 1

    def test_version_at_upper_is_not_read(self):
        # ``tr >= upper`` cannot arise: the lookup is strictly below upper,
        # so a version at upper itself is skipped and (tr, upper] is locked.
        engine, _ = make_engine(policy=MVTIL())
        engine.store.install("k", ts(1.0), "v1")
        engine.store.install("k", ts(2.0), "v2")
        reader = engine.begin()
        version, locked = engine.read_prefix(reader, "k", ts(2.0))
        assert version.ts == ts(1.0)
        assert locked == IntervalSet.from_interval(
            TsInterval.open_closed(ts(1.0), ts(2.0)))

    def test_purged_version(self):
        engine, src = make_engine(policy=MVTIL())
        engine.store.install("k", ts(1.0), "v1")
        engine.store.install("k", ts(3.0), "v3")
        engine.purge_versions_before(ts(4.0))
        reader = engine.begin()
        assert engine.read_prefix(reader, "k", ts(2.0)) is None
        assert "k" not in engine.locks.keys_of(reader.id)
        tx, reason = self.mvtil_read(engine, src, "k", 1.5)
        assert reason == AbortReason.READ_FAILED
        # The read failed before any lock: the interval is left as it was.
        assert tx.state.interval == IntervalSet.from_interval(
            TsInterval.closed(ts(1.5, 1), ts(2.5, 1)))

    @pytest.mark.parametrize("late", [False, True])
    def test_mvtil_read_then_commit(self, late):
        # Control: an uncontended one-pass read protects the read and the
        # transaction commits inside it.
        engine, src = make_engine(policy=MVTIL(late=late))
        engine.store.install("k", ts(1.0), "v1")
        tx, reason = self.mvtil_read(engine, src, "k", 2.0)
        assert reason is None
        assert engine.commit(tx)
        assert ts(2.0, 1) <= tx.commit_ts <= ts(3.0, 1)
        assert tx.collected


class TestCandidatesStayWithinLockedTimestamps:
    """The regression the docstring promises: candidates ⊆ locked covers."""

    def test_unlocked_read_cannot_commit(self):
        # The whole readable range below the begin timestamp is frozen by
        # another owner: the read succeeds (empty cover), but commit must
        # abort with NO_COMMON_TIMESTAMP — never commit at an unlocked ts.
        engine, src = make_engine()
        # From below TS_ZERO so no lockable sliver survives above the
        # BOTTOM version.
        freeze_write(engine, "k", -1.0, 3.0)
        src[0] = 2.0
        tx = engine.begin(pid=1)
        engine.read(tx, "k")  # succeeds: BOTTOM version, empty locked set
        assert held_cover(engine, tx, "k").is_empty
        engine.write(tx, "w", "x")
        assert engine._candidates(tx).is_empty
        assert engine.commit(tx) is False
        assert tx.aborted
        assert tx.abort_reason == AbortReason.NO_COMMON_TIMESTAMP

    def test_truncated_cover_excludes_preferred_timestamp(self):
        # Partial truncation: the read locks only (1.0, 1.2], so the TO
        # policy's preferred commit point (the begin timestamp 2.0) is NOT
        # in the candidate set, and every candidate lies inside the held
        # cover.  The commit must abort rather than commit at 2.0.
        engine, src = make_engine()
        engine.store.install("k", ts(1.0), "v1")
        freeze_write(engine, "k", 1.2, 3.0)
        src[0] = 2.0
        tx = engine.begin(pid=1)
        engine.read(tx, "k")
        cover = held_cover(engine, tx, "k")
        assert not cover.is_empty
        candidates = engine._candidates(tx)
        assert candidates.subtract(cover).is_empty  # candidates ⊆ cover
        assert not candidates.contains(ts(2.0, pid=1))
        assert engine.commit(tx) is False
        assert tx.abort_reason == AbortReason.NO_COMMON_TIMESTAMP

    def test_candidates_subset_of_every_keys_cover(self):
        # Multi-key: candidates are the intersection of per-key covers, so
        # they must be a subset of each one — including keys whose cover
        # was truncated by frozen writes.
        engine, src = make_engine()
        engine.store.install("a", ts(0.5), "va")
        engine.store.install("b", ts(0.5), "vb")
        freeze_write(engine, "b", 1.5, 1.8)
        src[0] = 2.0
        tx = engine.begin(pid=1)
        engine.read(tx, "a")
        engine.read(tx, "b")
        candidates = engine._candidates(tx)
        assert not candidates.is_empty
        for key in ("a", "b"):
            cover = held_cover(engine, tx, key)
            assert candidates.subtract(cover).is_empty

    def test_uncontended_read_still_commits(self):
        # Control: with no frozen interference the same flow commits.
        engine, src = make_engine()
        engine.store.install("k", ts(1.0), "v1")
        src[0] = 2.0
        tx = engine.begin(pid=1)
        assert engine.read(tx, "k") == "v1"
        assert engine.commit(tx) is True
