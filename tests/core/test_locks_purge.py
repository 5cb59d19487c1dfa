"""The table-wide lock purge against the per-key loop it replaced.

``LockTable.purge_below(bound)`` sweeps every key in one call, and
``KeyLockState.purge_below`` decides the common no-op by comparing the
bound's upper end with the first piece of each run.  The oracle is the
loop the server and the engine used to spell out — one ``purge_below`` per
key — run over the object-level reference states of
``tests/core/lock_model.py``, which subtract the bound from everything
unconditionally.  Bounds are the servers' ``(−∞, b)`` and interior holes
like ``test_locks_sealing.py``'s ``iv(40, 60)``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import TsInterval
from repro.core.locks import LockMode, LockTable
from repro.core.timestamp import Timestamp
from repro.core.versions import MVTLStore
from tests.core import lock_model

KEYS = ["k0", "k1", "k2", "k3"]
OWNERS = ["t1", "t2", "t3", "t4"]
MODES = [LockMode.READ, LockMode.WRITE]


def T(v, p=0):
    return Timestamp(float(v), p)


stamps = st.builds(T, st.integers(0, 40), st.integers(-1, 1))
spans = st.tuples(stamps, stamps).map(
    lambda pair: TsInterval(min(pair), max(pair)))
steps = st.lists(st.tuples(
    st.sampled_from(["acquire", "acquire_direct", "freeze", "seal",
                     "seal_keeping_reads"]),
    st.sampled_from(KEYS), st.sampled_from(OWNERS), st.sampled_from(MODES),
    spans), max_size=30)
bounds = st.one_of(
    stamps.map(lambda b: TsInterval.closed_open(T(float("-inf")), b)),
    spans)


def build(sequence):
    """One LockTable and one reference state per key, in lockstep."""
    store = MVTLStore()
    table = store.locks
    model = {}
    for op, key, owner, mode, span in sequence:
        ref = model.setdefault(key, lock_model.KeyLockState())
        if op == "acquire":
            store.acquire(owner, key, mode, span)
            ref.try_acquire(owner, mode, span)
        elif op == "acquire_direct":
            # Through the key's state with no note_owner: the sweep must
            # not depend on the owner index.
            table.state(key).try_acquire(owner, mode, span)
            ref.try_acquire(owner, mode, span)
        elif op == "freeze":
            table.freeze(owner, key, mode, span)
            ref.freeze(owner, mode, span)
        else:
            keep = op == "seal_keeping_reads"
            table.state(key).seal(owner, keep_all_reads=keep)
            ref.seal(owner, keep_all_reads=keep)
    return table, model


def assert_same(table, model):
    assert set(table.all_keys()) == set(model)
    for key, ref in model.items():
        state = table.peek(key)
        assert set(state.owners()) == set(ref.owners())
        for owner in OWNERS:
            for mode in MODES:
                assert state.held(owner, mode) == ref.held(owner, mode)
                assert state.frozen(owner, mode) == ref.frozen(owner, mode)
        assert state.sealed_read_ranges() == ref.sealed_read_ranges()
        assert state.sealed_write_ranges() == ref.sealed_write_ranges()
        assert state.record_count() == ref.record_count()
        assert state.is_empty == ref.is_empty
    assert table.total_record_count() == sum(
        ref.record_count() for ref in model.values())


@given(steps, st.lists(bounds, min_size=1, max_size=3))
def test_table_purge_equals_the_per_key_loop(sequence, purges):
    table, model = build(sequence)
    assert_same(table, model)
    for bound in purges:
        versions = {key: table.peek(key).version for key in model}
        expected = {key: ref.purge_below(bound)
                    for key, ref in model.items()}
        assert table.purge_below(bound) == sum(expected.values())
        assert_same(table, model)
        for key, changed in expected.items():
            # ``version`` is what parked waiters watch: it moves exactly
            # where the purge changed something.
            assert (table.peek(key).version != versions[key]) == bool(changed)


def test_a_purge_that_empties_a_key_keeps_the_key():
    store = MVTLStore()
    table = store.locks
    store.acquire("t1", "gone", LockMode.READ, TsInterval.closed(T(1), T(5)))
    table.state("gone").seal("t1", keep_all_reads=True)
    store.acquire("t2", "stays", LockMode.WRITE, TsInterval.point(T(30)))
    assert table.purge_below(
        TsInterval.closed_open(T(float("-inf")), T(10))) == 1
    assert table.peek("gone").is_empty
    assert table.peek("gone").record_count() == 0
    assert sorted(table.all_keys()) == ["gone", "stays"]
    assert table.total_record_count() == 1
    # Nothing left at or below the bound: the second sweep is all no-ops.
    before = {key: table.peek(key).version for key in table.all_keys()}
    assert table.purge_below(
        TsInterval.closed_open(T(float("-inf")), T(10))) == 0
    assert before == {key: table.peek(key).version
                      for key in table.all_keys()}


def test_interior_bound_reaches_a_run_that_starts_below_it():
    """The early-out looks at where a run *starts*, so a hole carved above
    a run's first piece is still carved (``iv(40, 60)`` out of 10..90)."""
    hole = TsInterval.closed(T(40), T(60))
    table = LockTable()
    state = table.state("k")
    state.try_acquire("t1", LockMode.READ, TsInterval.closed(T(10), T(90)))
    state.seal("t1", keep_all_reads=True)
    # A record that only straddles the hole's *lower* end keeps its part
    # below it; one wholly inside the hole goes.
    low = table.state("low")
    low.try_acquire("t2", LockMode.READ, TsInterval.closed(T(10), T(50)))
    low.seal("t2", keep_all_reads=True)
    low.try_acquire("t3", LockMode.READ, TsInterval.closed(T(42), T(58)))
    low.seal("t3", keep_all_reads=True)
    assert (state.record_count(), low.record_count()) == (1, 2)
    assert table.purge_below(hole) == 2
    assert (state.record_count(), low.record_count()) == (2, 1)
    assert low.sealed_read_ranges().max_member() < T(40)
    assert state.try_acquire("t4", LockMode.WRITE,
                             TsInterval.closed(T(45), T(55))).fully_acquired
    # A key wholly above a bound is left alone, version included — and so
    # are these two when the bound falls inside what is already carved.
    other = table.state("above")
    other.try_acquire("t5", LockMode.WRITE, TsInterval.point(T(70)))
    versions = (state.version, low.version, other.version)
    assert table.purge_below(TsInterval.closed(T(57), T(59))) == 0
    assert (state.version, low.version, other.version) == versions
