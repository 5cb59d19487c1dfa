"""Property tests: the array-backed :class:`VersionStore` vs a naive model.

The store keeps each key's chain as parallel scalar arrays bisected by
``repro._fastcore.vc_floor``.  The model here is the obvious thing the
docstrings describe — a dict of sorted ``(Timestamp, value)`` lists with a
per-key purge floor — maintained with ``bisect`` over Timestamp tuples and
no cleverness.  Random operation sequences must keep the two in lockstep.

The ``vc_floor`` kernel itself is additionally pinned to
``bisect.bisect_left`` over the materialized (value, pid) pairs.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._fastcore import vc_floor
from repro.core.timestamp import BOTTOM, TS_ZERO, Timestamp
from repro.core.versions import VersionStore

KEYS = ("a", "b", "c")

# A small, collision-rich timestamp grid: few distinct values and pids, so
# random sequences actually hit duplicate-install, exact-match and
# purge-floor edges instead of wandering a sparse domain.
timestamps = st.builds(Timestamp,
                       st.integers(0, 12).map(lambda v: v / 2.0),
                       st.integers(0, 2))


class NaiveStore:
    """Dict of sorted (Timestamp, value) lists; the documented semantics."""

    def __init__(self) -> None:
        self._chains: dict[str, list[tuple[Timestamp, object]]] = {}
        self._floor: dict[str, Timestamp] = {}

    def _chain(self, key: str) -> list[tuple[Timestamp, object]]:
        return self._chains.setdefault(key, [(TS_ZERO, BOTTOM)])

    def install(self, key: str, ts: Timestamp, value: object) -> bool:
        """True iff inserted; False (duplicate) mirrors the ValueError."""
        chain = self._chain(key)
        idx = bisect_left([t for t, _ in chain], ts)
        if idx < len(chain) and chain[idx][0] == ts:
            return False
        chain.insert(idx, (ts, value))
        return True

    def latest_before(self, key: str, ts: Timestamp):
        floor = self._floor.get(key)
        if floor is not None and ts <= floor:
            return None  # purged: the true floor version may be gone
        below = [(t, v) for t, v in self._chain(key) if t < ts]
        return below[-1] if below else None

    def latest(self, key: str):
        return self._chain(key)[-1]

    def purge_before(self, bound: Timestamp) -> int:
        dropped = 0
        for key, chain in self._chains.items():
            below = sum(1 for t, _ in chain if t < bound)
            drop = max(0, below - 1)  # keep the newest version below bound
            if not drop:
                continue
            del chain[:drop]
            dropped += drop
            kept = chain[0][0]
            prev = self._floor.get(key)
            if prev is None or prev < kept:
                self._floor[key] = kept
        return dropped

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._chains.values())


# -- operation sequences ------------------------------------------------------

ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(KEYS), timestamps),
        st.tuples(st.just("read"), st.sampled_from(KEYS), timestamps),
        st.tuples(st.just("latest"), st.sampled_from(KEYS), timestamps),
        st.tuples(st.just("purge"), st.just(""), timestamps),
        # The checkpointer's side of change tracking: ask (the first time)
        # or take the report and clear it.
        st.tuples(st.just("report"), st.just(""), timestamps),
    ),
    max_size=40)


def rows_of(store: VersionStore) -> dict:
    return {row[0]: row for row in store.snapshot()}


def assert_changes_reported(store: VersionStore, changed: set,
                            reported_rows: dict) -> None:
    """The change-tracking contract: every key whose snapshot row differs
    from the one last reported is named, and only keys of the store are."""
    now = rows_of(store)
    differing = {key for key, row in now.items()
                 if row != reported_rows.get(key)}
    assert differing <= changed <= set(now)


class TestAgainstNaiveModel:
    @given(ops)
    def test_lockstep(self, sequence):
        store, model = VersionStore(), NaiveStore()
        changed, reported_rows = None, {}
        for i, (op, key, ts) in enumerate(sequence):
            if op == "install":
                inserted = model.install(key, ts, f"v{i}")
                if inserted:
                    store.install(key, ts, f"v{i}")
                else:
                    with pytest.raises(ValueError):
                        store.install(key, ts, f"v{i}")
            elif op == "read":
                got = store.latest_before(key, ts)
                want = model.latest_before(key, ts)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert (got.ts, got.value) == want
            elif op == "latest":
                got = store.latest(key)
                assert (got.ts, got.value) == model.latest(key)
            elif op == "purge":
                assert store.purge_before(ts) == model.purge_before(ts)
            else:  # report
                if changed is None:
                    changed = store.track_changes()
                changed.clear()
                reported_rows = rows_of(store)
            assert store.version_count() == model.version_count()
            if changed is None:
                assert store.changed is None  # off until asked for
            else:
                assert store.changed is changed
                assert_changes_reported(store, changed, reported_rows)

    @given(st.lists(st.tuples(
        st.sampled_from(("install", "reserve", "finalise", "drop", "read",
                         "purge", "purge_key", "load", "report")),
        st.sampled_from(KEYS), timestamps), max_size=40))
    def test_every_mutator_reports_its_key(self, sequence):
        """The same contract over the mutators the naive model leaves out:
        PENDING reservations (finalised or dropped), the per-key purge and
        ``load_chain`` — against the store's own ``snapshot()``."""
        store = VersionStore()
        changed = store.track_changes()
        reported_rows: dict = {}
        for i, (op, key, ts) in enumerate(sequence):
            at = store.version_at(key, ts) if op != "read" else None
            if op == "install" and at is None:
                store.install(key, ts, f"v{i}")
            elif op == "reserve" and at is None:
                store.install_pending(key, ts)
            elif op == "finalise" and at is not None and at.is_pending:
                store.install(key, ts, f"v{i}")
            elif op == "drop":
                store.drop(key, ts)
            elif op == "read":
                store.latest_before(f"fresh-{key}", ts)  # creates a chain
            elif op == "purge":
                store.purge_before(ts)
            elif op == "purge_key":
                store.purge_key_before(key, ts)
            elif op == "load":
                store.load_chain(key, ((ts, f"v{i}"),), floor=ts)
            elif op == "report":
                changed.clear()
                reported_rows = rows_of(store)
            assert_changes_reported(store, changed, reported_rows)

    def test_asking_again_hands_the_feed_to_the_new_follower(self):
        store = VersionStore()
        first = store.track_changes()
        store.install("a", Timestamp(1.0, 0), "v")
        second = store.track_changes()
        store.install("b", Timestamp(1.0, 0), "v")
        assert first == {"a"} and second == {"b"}
        assert store.changed is second

    @given(st.lists(timestamps, unique=True, min_size=1), timestamps)
    def test_floor_is_max_below(self, installed, probe):
        """floor_before == max of installed timestamps strictly below."""
        store = VersionStore()
        for i, ts in enumerate(installed):
            store.install("k", ts, i)
        got = store.latest_before("k", probe)
        below = [ts for ts in installed + [TS_ZERO] if ts < probe]
        if not below:
            assert got is None
        else:
            assert got is not None
            assert got.ts == max(below)


class TestVcFloorKernel:
    @given(st.lists(timestamps, unique=True), timestamps)
    def test_bisect_left(self, chain, probe):
        chain = sorted(chain)
        ts_v = [t.value for t in chain]
        ts_p = [t.pid for t in chain]
        want = bisect_left([(t.value, t.pid) for t in chain],
                           (probe.value, probe.pid))
        assert vc_floor(ts_v, ts_p, probe.value, probe.pid) == want
