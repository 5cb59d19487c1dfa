"""The purge sweeps walk only what they can change — and nobody can tell.

``LockTable.purge_below`` visits the states that gained an owner since a
sweep last found them empty, and ``VersionStore.purge_before`` the chains
of two or more versions.  The oracles are the all-keys walks those sweeps
replaced, run in lockstep:

* for the lock table, one object-level reference state per key
  (``tests/core/lock_model.py``) purged on every key, as the server loop
  did before the table-wide sweep;
* for the version store, a second store purged by the loop over *every*
  chain, spelled out below as it stood before the walk.

The sequences interleave locks, seals and purges, so a key empties, leaves
the walk and comes back — including through a ``KeyLockState`` reference
taken before the sweep that emptied it, as any caller may hold one.  After
every step the record totals, every key's sealed and owner ranges, the
versions and the purge floors must be the reference's.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intervals import TsInterval
from repro.core.locks import KeyLockState, LockMode, LockTable
from repro.core.timestamp import Timestamp
from repro.core.versions import MVTLStore, VersionStore
from tests.core import lock_model

KEYS = ["k0", "k1", "k2", "k3"]
OWNERS = ["t1", "t2", "t3"]
MODES = [LockMode.READ, LockMode.WRITE]
INF = float("-inf")


def T(v, p=0):
    return Timestamp(float(v), p)


stamps = st.builds(T, st.integers(0, 30), st.integers(-1, 1))
spans = st.tuples(stamps, stamps).map(
    lambda pair: TsInterval(min(pair), max(pair)))
prefix = stamps.map(lambda b: TsInterval.closed_open(T(INF), b))
lock_steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["acquire", "acquire_via_table", "grant",
                               "freeze", "seal", "seal_keeping_reads",
                               "release_unfrozen", "commit"]),
              st.sampled_from(KEYS), st.sampled_from(OWNERS),
              st.sampled_from(MODES), spans, st.booleans()),
    st.tuples(st.just("purge"), st.just(""), st.just(""),
              st.just(LockMode.READ), prefix | spans, st.booleans())),
    max_size=40)


def assert_same(table, held, model):
    assert table.total_record_count() == sum(
        ref.record_count() for ref in model.values())
    for key, ref in model.items():
        state = held[key]
        assert table.peek(key) is state
        assert set(state.owners()) == set(ref.owners())
        for owner in OWNERS:
            for mode in MODES:
                assert state.held(owner, mode) == ref.held(owner, mode)
                assert state.frozen(owner, mode) == ref.frozen(owner, mode)
        assert state.sealed_read_ranges() == ref.sealed_read_ranges()
        assert state.sealed_write_ranges() == ref.sealed_write_ranges()
        assert state.record_count() == ref.record_count()
        assert state.is_empty == ref.is_empty


@settings(max_examples=200)
@given(lock_steps)
def test_the_lock_walk_equals_the_all_keys_walk(sequence):
    store = MVTLStore()
    table = store.locks
    model = {key: lock_model.KeyLockState() for key in KEYS}
    # One reference per key, taken before anything happened and used for
    # the whole run, purges included.
    held = {key: table.state(key) for key in KEYS}
    for op, key, owner, mode, span, fresh in sequence:
        if op == "purge":
            versions = {k: held[k].version for k in KEYS}
            expected = {k: ref.purge_below(span) for k, ref in model.items()}
            assert table.purge_below(span) == sum(expected.values())
            for k, changed in expected.items():
                assert (held[k].version != versions[k]) == bool(changed)
        else:
            state = table.state(key) if fresh else held[key]
            ref = model[key]
            if op == "acquire":
                state.try_acquire(owner, mode, span)
                ref.try_acquire(owner, mode, span)
            elif op == "acquire_via_table":
                store.acquire(owner, key, mode, span)
                ref.try_acquire(owner, mode, span)
            elif op == "grant":  # a range the caller knows is free
                grant = ref.lockable(owner, mode, span).acquired
                state.grant(owner, mode, grant)
                ref.grant(owner, mode, grant)
            elif op == "freeze":
                state.freeze(owner, mode, span)
                ref.freeze(owner, mode, span)
            elif op == "release_unfrozen":
                state.release_unfrozen(owner)
                ref.release_unfrozen(owner)
            elif op == "commit":  # lock, freeze and seal in one step
                for s in (state, ref):
                    s.try_acquire(owner, mode, span)
                    s.freeze(owner, mode, span)
                    s.seal(owner)
            else:
                keep = op == "seal_keeping_reads"
                state.seal(owner, keep_all_reads=keep)
                ref.seal(owner, keep_all_reads=keep)
        assert_same(table, held, model)


def test_a_read_lock_brings_an_emptied_state_back():
    """``acquire_read_after`` makes its own owner record: a state the
    sweep dropped as empty must be walked again after it."""
    table = LockTable()
    state = table.state("k")
    state.try_acquire("t1", LockMode.READ, TsInterval.closed(T(1), T(5)))
    state.seal("t1", keep_all_reads=True)
    below = TsInterval.closed_open(T(INF), T(10))
    assert table.purge_below(below) == 1
    assert state.is_empty and table.total_record_count() == 0
    locked, _ = state.acquire_read_after("t2", T(10), T(20))
    assert not locked.is_empty
    assert table.total_record_count() == 1
    state.seal("t2", keep_all_reads=True)
    assert table.purge_below(TsInterval.closed_open(T(INF), T(30))) == 1
    assert state.is_empty and table.total_record_count() == 0


def test_a_state_holding_only_sealed_writes_stays_walked():
    table = LockTable()
    state = table.state("k")
    state.try_acquire("t1", LockMode.WRITE, TsInterval.point(T(20)))
    state.freeze("t1", LockMode.WRITE, TsInterval.point(T(20)))
    state.seal("t1")
    assert table.purge_below(TsInterval.closed_open(T(INF), T(10))) == 0
    assert table.total_record_count() == 1
    assert table.purge_below(TsInterval.closed_open(T(INF), T(30))) == 1
    assert state.is_empty and table.total_record_count() == 0


def test_a_trimmed_record_starts_just_above_the_bound():
    """A record cut by ``(−∞, b)`` keeps ``[b, hi]`` — the successor of the
    bound's closed upper end, not the end itself: a later interior bound
    starting at ``b`` must leave it whole rather than split off a piece
    below it."""
    state, ref = KeyLockState(), lock_model.KeyLockState()
    for s in (state, ref):
        s.try_acquire("t1", LockMode.READ, TsInterval.closed(T(1), T(10)))
        s.seal("t1", keep_all_reads=True)
    for bound in (TsInterval.closed_open(T(INF), T(5)),
                  TsInterval.closed(T(5), T(6))):
        assert state.purge_below(bound) == ref.purge_below(bound) == 1
        assert state.sealed_read_ranges() == ref.sealed_read_ranges()
        assert state.record_count() == ref.record_count() == 1


def test_the_walk_holds_only_states_with_locks():
    """No walk before the first sweep; after it, states a read creates
    but never locks are not walked at all."""
    store = MVTLStore()
    table = store.locks
    for i in range(3):
        table.state(f"k{i}")
    store.acquire("t1", "k1", LockMode.WRITE, TsInterval.point(T(3)))
    assert table._walk is None and table.total_record_count() == 1
    below = TsInterval.closed_open(T(INF), T(1))
    assert table.purge_below(below) == 0
    assert list(table._walk) == [table.peek("k1")]
    for i in range(3, 6):
        table.state(f"k{i}")
    store.acquire("t2", "k4", LockMode.READ, TsInterval.point(T(4)))
    assert list(table._walk) == [table.peek("k1"), table.peek("k4")]
    for owner in ("t1", "t2"):
        for key in table.forget_owner(owner):
            store.seal(owner, key)
    assert table.purge_below(below) == 0
    assert list(table._walk) == [] and table.total_record_count() == 0


def test_the_chain_walk_starts_at_the_first_sweep():
    store = VersionStore()
    store.install("a", T(1.0), "x")
    store.latest_before("b", T(1.0))
    assert store._walk is None
    assert store.purge_before(T(0.5)) == 0
    assert list(store._walk) == ["a"]
    store.install("b", T(2.0), "y")
    store.install("b", T(3.0), "z")
    assert list(store._walk) == ["a", "b"]
    assert store.purge_before(T(2.5)) == 2
    assert list(store._walk) == ["b"]


# -- the version store ----------------------------------------------------------

def purge_every_chain(store: VersionStore, bound: Timestamp) -> int:
    """``VersionStore.purge_before`` as it stood before the walk: every
    chain of the store, tested inline, in key order."""
    dropped = 0
    bound_v = bound.value
    bound_p = bound.pid
    changed = store.changed
    for key, chain in store._keys.items():
        ts_v = chain.ts_v
        if len(ts_v) < 2:
            continue
        second = ts_v[1]
        if second > bound_v or (second == bound_v
                                and chain.ts_p[1] >= bound_p):
            continue
        n, kept = chain.purge_before(bound)
        dropped += n
        store._raise_floor(key, kept)
        if changed is not None:
            changed.add(key)
    store._total -= dropped
    return dropped


version_stamps = st.builds(Timestamp,
                           st.integers(0, 12).map(lambda v: v / 2.0),
                           st.integers(0, 2))
# ``7`` and ``7.0`` are one key spelled two ways.
VERSION_KEYS = ("a", "b", 7, 7.0)
version_steps = st.lists(st.tuples(
    st.sampled_from(("install", "reserve", "finalise", "drop", "read",
                     "purge", "purge_key", "load", "report")),
    st.sampled_from(VERSION_KEYS), version_stamps), max_size=50)


@settings(max_examples=300)
@given(version_steps)
@example([("load", "a", T(1.0)), ("purge", "", T(3.0))])
def test_the_chain_walk_equals_the_all_chains_loop(sequence):
    store, ref = VersionStore(), VersionStore()
    feeds = None
    for i, (op, key, ts) in enumerate(sequence):
        at = store.version_at(key, ts) if op != "read" else None
        assert at == (ref.version_at(key, ts) if op != "read" else None)
        if op == "purge":
            assert store.purge_before(ts) == purge_every_chain(ref, ts)
            continue
        for s in (store, ref):
            if op == "install" and at is None:
                s.install(key, ts, f"v{i}")
            elif op == "reserve" and at is None:
                s.install_pending(key, ts)
            elif op == "finalise" and at is not None and at.is_pending:
                s.install(key, ts, f"v{i}")
            elif op == "drop":
                s.drop(key, ts)
            elif op == "read":
                s.latest_before(key, ts)
            elif op == "purge_key":
                s.purge_key_before(key, ts)
            elif op == "load":
                s.load_chain(key, ((ts, f"v{i}"),
                                   (Timestamp(ts.value + 0.25, ts.pid), "w")),
                             floor=None if i % 2 else ts)
            elif op == "report":
                if feeds is None:
                    feeds = (store.track_changes(), ref.track_changes())
                for feed in feeds:
                    feed.clear()
        assert store.snapshot() == ref.snapshot()
        assert store.version_count() == ref.version_count()
        assert store._purge_floor == ref._purge_floor
        for probe in (T(0.5, 0), T(3.0, 1), T(6.0, 2)):
            for k in VERSION_KEYS:
                assert store.latest_before(k, probe) == ref.latest_before(
                    k, probe)
        if feeds is not None:
            assert feeds[0] == feeds[1]
