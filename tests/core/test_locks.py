"""Unit + property tests for freezable interval locks (§4.2, §6)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval
from repro.core.locks import FrozenConflictError, KeyLockState, LockMode
from repro.core.timestamp import Timestamp
from repro.core.versions import MVTLStore
from tests.conftest import intervals


def T(v, p=0):
    return Timestamp(v, p)


def iv(a, b):
    return TsInterval.closed(T(a), T(b))


class TestReadWriteCompatibility:
    def test_read_read_share(self):
        st_ = KeyLockState()
        r1 = st_.try_acquire("t1", LockMode.READ, iv(1, 5))
        r2 = st_.try_acquire("t2", LockMode.READ, iv(3, 8))
        assert r1.fully_acquired and r2.fully_acquired

    def test_write_excludes_read(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.READ, iv(1, 5))
        r = st_.try_acquire("t2", LockMode.WRITE, iv(3, 8))
        assert not r.fully_acquired
        # The part above the read lock is granted.
        assert r.acquired.contains(T(6)) and not r.acquired.contains(T(4))
        (conflict,) = [c for c in r.conflicts]
        assert conflict.holder == "t1"
        assert conflict.mode is LockMode.READ and not conflict.frozen

    def test_write_excludes_write(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(2, 4))
        r = st_.try_acquire("t2", LockMode.WRITE, iv(4, 6))
        assert not r.acquired.contains(T(4))
        assert r.acquired.contains(T(5))

    def test_read_excludes_write_only(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(2, 4))
        r = st_.try_acquire("t2", LockMode.READ, iv(1, 6))
        assert not r.fully_acquired
        assert r.acquired.contains(T(1)) and r.acquired.contains(T(5))
        assert not r.acquired.contains(T(3))

    def test_self_never_conflicts(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.READ, iv(1, 5))
        r = st_.try_acquire("t1", LockMode.WRITE, iv(1, 5))
        assert r.fully_acquired  # upgrade allowed w.r.t. own read locks

    def test_idempotent_reacquire(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.READ, iv(1, 5))
        r = st_.try_acquire("t1", LockMode.READ, iv(1, 5))
        assert r.fully_acquired
        assert st_.held("t1", LockMode.READ) == IntervalSet.from_interval(
            iv(1, 5))


class TestFreezing:
    def test_freeze_marks_conflicts_frozen(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(2, 4))
        st_.freeze("t1", LockMode.WRITE, TsInterval.point(T(3)))
        r = st_.try_acquire("t2", LockMode.WRITE, iv(1, 6))
        frozen = [c for c in r.conflicts if c.frozen]
        unfrozen = [c for c in r.conflicts if not c.frozen]
        assert frozen and unfrozen
        assert all(c.interval.contains(T(3)) for c in frozen)

    def test_release_frozen_raises(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(2, 4))
        st_.freeze("t1", LockMode.WRITE, iv(2, 4))
        with pytest.raises(FrozenConflictError):
            st_.release("t1", LockMode.WRITE, iv(2, 4))

    def test_release_unfrozen_keeps_frozen(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(2, 8))
        st_.freeze("t1", LockMode.WRITE, TsInterval.point(T(5)))
        st_.release_unfrozen("t1")
        assert st_.held("t1", LockMode.WRITE) == IntervalSet.point(T(5))
        # The frozen point still blocks others.
        r = st_.try_acquire("t2", LockMode.WRITE, TsInterval.point(T(5)))
        assert r.acquired.is_empty and r.any_frozen_conflict

    def test_freeze_nothing_held_is_noop(self):
        st_ = KeyLockState()
        st_.freeze("ghost", LockMode.READ, iv(1, 2))  # no error
        assert st_.is_empty

    def test_freeze_clips_to_held(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.READ, iv(3, 5))
        st_.freeze("t1", LockMode.READ, iv(1, 9))
        assert st_.frozen("t1", LockMode.READ) == IntervalSet.from_interval(
            iv(3, 5))

    def test_frozen_write_ranges_union(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(1, 2))
        st_.try_acquire("t2", LockMode.WRITE, iv(5, 6))
        st_.freeze("t1", LockMode.WRITE, iv(1, 2))
        st_.freeze("t2", LockMode.WRITE, iv(5, 6))
        fr = st_.frozen_write_ranges()
        assert fr.contains(T(1)) and fr.contains(T(6))
        assert not fr.contains(T(3))


class TestRelease:
    def test_partial_release(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.READ, iv(1, 9))
        st_.release("t1", LockMode.READ, iv(4, 6))
        held = st_.held("t1", LockMode.READ)
        assert held.contains(T(2)) and held.contains(T(8))
        assert not held.contains(T(5))

    def test_release_unheld_is_noop(self):
        st_ = KeyLockState()
        st_.release("nobody", LockMode.READ, iv(1, 2))
        assert st_.is_empty

    def test_owner_pruned_when_empty(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.READ, iv(1, 2))
        st_.release("t1", LockMode.READ, iv(1, 2))
        assert "t1" not in list(st_.owners())

    def test_version_counter_bumps_on_change(self):
        st_ = KeyLockState()
        v0 = st_.version
        st_.try_acquire("t1", LockMode.READ, iv(1, 2))
        assert st_.version > v0


class TestPurge:
    def test_purge_below_drops_even_frozen(self):
        st_ = KeyLockState()
        st_.try_acquire("t1", LockMode.WRITE, iv(1, 3))
        st_.freeze("t1", LockMode.WRITE, iv(1, 3))
        st_.try_acquire("t1", LockMode.READ, iv(5, 9))
        st_.purge_below(TsInterval.closed(T(0), T(4)))
        assert st_.held("t1", LockMode.WRITE).is_empty
        assert not st_.held("t1", LockMode.READ).is_empty


class TestLockTable:
    # The table's one-owner release is the seal over ``forget_owner``:
    # MVTLStore.acquire indexes the owner, MVTLStore.seal ends it per key.

    def test_owner_key_tracking_and_release_all(self):
        store = MVTLStore()
        table = store.locks
        store.acquire("t1", "a", LockMode.READ, iv(1, 2))
        store.acquire("t1", "b", LockMode.WRITE, iv(1, 2))
        assert table.keys_of("t1") == {"a", "b"}
        for key in table.forget_owner("t1"):
            store.seal("t1", key)
        assert table.held("t1", "a", LockMode.READ).is_empty
        assert table.held("t1", "b", LockMode.WRITE).is_empty
        assert table.owners() == []

    def test_release_all_keeps_frozen(self):
        store = MVTLStore()
        table = store.locks
        store.acquire("t1", "a", LockMode.WRITE, iv(1, 5))
        table.freeze("t1", "a", LockMode.WRITE, TsInterval.point(T(3)))
        for key in table.forget_owner("t1"):
            store.seal("t1", key)
        assert (table.peek("a").sealed_write_ranges()
                == IntervalSet.point(T(3)))

    def test_record_count(self):
        store = MVTLStore()
        table = store.locks
        assert table.total_record_count() == 0
        store.acquire("t1", "a", LockMode.READ, iv(1, 2))
        store.acquire("t2", "a", LockMode.READ, iv(5, 6))
        store.acquire("t1", "b", LockMode.WRITE, iv(1, 2))
        assert table.total_record_count() == 3


class TestLockInvariants:
    """Property: no two owners ever hold conflicting locks at a point."""

    @given(st.lists(st.tuples(st.sampled_from(["t1", "t2", "t3"]),
                              st.sampled_from([LockMode.READ, LockMode.WRITE]),
                              intervals()),
                    min_size=1, max_size=12))
    def test_no_conflicting_grants(self, ops):
        st_ = KeyLockState()
        for owner, mode, want in ops:
            st_.try_acquire(owner, mode, want)
        owners = list(st_.owners())
        for i, a in enumerate(owners):
            for b in owners[i + 1:]:
                aw = st_.held(a, LockMode.WRITE)
                bw = st_.held(b, LockMode.WRITE)
                ar = st_.held(a, LockMode.READ)
                br = st_.held(b, LockMode.READ)
                assert aw.intersect(bw).is_empty
                assert aw.intersect(br).is_empty
                assert bw.intersect(ar).is_empty

    @given(st.lists(st.tuples(st.sampled_from(["t1", "t2"]),
                              st.sampled_from([LockMode.READ, LockMode.WRITE]),
                              intervals(),
                              st.booleans()),
                    min_size=1, max_size=10))
    def test_frozen_is_subset_of_held(self, ops):
        st_ = KeyLockState()
        for owner, mode, want, do_freeze in ops:
            st_.try_acquire(owner, mode, want)
            if do_freeze:
                st_.freeze(owner, mode, want)
            for o in list(st_.owners()):
                for m in LockMode:
                    assert st_.frozen(o, m).subtract(st_.held(o, m)).is_empty
