"""Differential suite: every checkpoint reads back as the full encoding.

``DurableStore.checkpoint`` captures what changed since the previous
checkpoint and encodes nothing; the bytes are assembled on the first read.
The contract is that nobody can tell: whenever a checkpoint is read, its
bytes are the one-shot encoding of the whole state *as it was at that
checkpoint*, spelled out here as the reference —

    encode_value(("ckpt", 1, tuple(store.snapshot()), tuple(dedup), floor))

— and :func:`decode_snapshot` rebuilds an equal store from it.  A Hypothesis
rule machine drives one :class:`VersionStore` and one :class:`DurableStore`
through everything that can change a snapshot row (install, PENDING then
finalise or drop, both purges, ``load_chain``, a first read that creates a
chain), the dedup log (append, evict from the left) and the floor, and
through the edges of *when* a checkpoint is taken and read: read at once,
read only after later rules changed the state, twice in a row, right after
a purge that emptied nothing, and on a different store object
(``recover()`` then checkpoint the recovered store with the same
``DurableStore``, as ``MVTLServer.restart`` does).

Written and green against the always-full encoder first, where the
property is trivially true: it pins the format before the encoder changes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.timestamp import BOTTOM, Timestamp
from repro.core.versions import VersionStore
from repro.dist import ClusterConfig, run_cluster
from repro.dist.failure import ChaosConfig
from repro.repl import checkpoint
from repro.repl.checkpoint import (DurableStore, decode_snapshot,
                                   encode_snapshot)
from repro.repl.wal import WriteAheadLog, encode_value
from repro.sim.network import LinkFaults
from repro.sim.testbed import LOCAL_TESTBED
from repro.workload import WorkloadConfig
from tests.repl import wal_model

# Few keys and a coarse timestamp grid: installs collide with PENDING
# reservations, purges land between versions, and "never seen" keys stay
# reachable for the whole run.  7 and 7.0 are one key to the store (the
# first spelling wins the row) and two to the codec.
KEYS = ("a", "b", "c", 7, 7.0, ("t", 1))
keys = st.sampled_from(KEYS)
stamps = st.builds(Timestamp,
                   st.integers(0, 12).map(lambda v: v / 2.0),
                   st.integers(0, 2))
values = st.one_of(st.none(), st.just(BOTTOM), st.integers(-3, 3),
                   st.text(max_size=3), st.booleans())
# Client ids that are equal-but-not-identical across types (1 == 1.0 ==
# True) are deliberate: their encodings differ, a cache must not mix them.
pairs = st.tuples(st.sampled_from(("c0", "c1", 1, 1.0, True)),
                  st.integers(0, 5))


def reference(store, dedup, floor) -> bytes:
    """The parent's ``encode_snapshot``, spelled out."""
    return encode_value(("ckpt", 1, tuple(store.snapshot()), tuple(dedup),
                         floor))


class CheckpointMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = VersionStore()
        self.durable = DurableStore()
        #: The server's live ordered dedup mapping, oldest first.
        self.dedup: OrderedDict = OrderedDict()
        self.floor = None
        self.reserved: list = []  # (key, ts) PENDING installs still open
        self.serial = 0
        self.checked = 0
        #: The reference bytes of the last checkpoint, taken when it was.
        self.expected = None

    # -- the version store ---------------------------------------------------

    @rule(key=keys, ts=stamps, value=values, logged=st.booleans())
    def install(self, key, ts, value, logged):
        if self.store.version_at(key, ts) is not None:
            return
        self.store.install(key, ts, value)
        if logged:
            # Logged installs survive recover(); unlogged ones make the
            # recovered store differ from the one the cache last saw.
            self.serial += 1
            self.durable.log_commit(("tx", self.serial), ts, ((key, value),))

    @rule(key=keys, ts=stamps)
    def reserve(self, key, ts):
        if self.store.version_at(key, ts) is None:
            self.store.install_pending(key, ts)
            self.reserved.append((key, ts))

    @rule(value=values, data=st.data())
    def finalise(self, value, data):
        if self.reserved:
            key, ts = self.reserved.pop(
                data.draw(st.integers(0, len(self.reserved) - 1)))
            self.store.install(key, ts, value)

    @rule(data=st.data())
    def back_out(self, data):
        if self.reserved:
            key, ts = self.reserved.pop(
                data.draw(st.integers(0, len(self.reserved) - 1)))
            self.store.drop(key, ts)

    @rule(bound=stamps, logged=st.booleans())
    def purge(self, bound, logged):
        self.store.purge_before(bound)
        self._forget_purged()
        if logged:
            self.durable.log_purge(bound)

    @rule(key=keys, bound=stamps)
    def purge_key(self, key, bound):
        self.store.purge_key_before(key, bound)
        self._forget_purged()

    @rule(key=keys,
          chain=st.lists(st.tuples(stamps, values), max_size=4,
                         unique_by=lambda pair: pair[0]),
          floor=st.none() | stamps)
    def load_chain(self, key, chain, floor):
        self.store.load_chain(key, tuple(sorted(chain, key=lambda p: p[0])),
                              floor)
        self.reserved = [(k, ts) for k, ts in self.reserved if k != key]

    @rule(key=keys, ts=stamps)
    def read(self, key, ts):
        # On a never-seen key this creates the (TS_ZERO, BOTTOM) chain: a
        # new snapshot row with no install behind it.
        self.store.latest_before(key, ts)

    # -- dedup log and floor -------------------------------------------------

    @rule(pair=pairs)
    def dedup_append(self, pair):
        self.dedup[pair] = None

    @rule()
    def dedup_evict(self):
        if self.dedup:
            self.dedup.popitem(last=False)

    @rule(bound=stamps)
    def raise_floor(self, bound):
        if self.floor is None or bound > self.floor:
            self.floor = bound

    # -- checkpoints ---------------------------------------------------------

    @rule()
    def checkpoint(self):
        self.checkpoint_unread()
        blob = self.durable.snapshot()
        assert blob == self.expected
        back, dedup, floor = decode_snapshot(blob)
        assert back.snapshot() == self.store.snapshot()
        assert dedup == list(self.dedup)
        assert floor == self.floor

    @rule()
    def checkpoint_unread(self):
        """Capture now; whatever later rules change, a read must give the
        state as it was here."""
        self.durable.checkpoint(self.store, self.dedup, self.floor)
        self.expected = reference(self.store, self.dedup, self.floor)
        self.checked += 1

    @rule(key=keys, ts=stamps, value=values, pair=pairs, bound=stamps)
    def checkpoint_then_change(self, key, ts, value, pair, bound):
        self.checkpoint_unread()
        self.install(key, ts, value, logged=True)
        self.purge(bound, logged=False)
        self.dedup_append(pair)
        self.raise_floor(bound)
        self.read_snapshot()

    @rule()
    def read_snapshot(self):
        assert self.durable.snapshot() == self.expected

    @rule()
    def checkpoint_twice(self):
        self.checkpoint()
        first = self.durable.snapshot()
        self.checkpoint()
        assert self.durable.snapshot() == first

    @rule()
    def checkpoint_after_empty_purge(self):
        self.checkpoint()
        assert self.store.purge_before(Timestamp(-1.0, 0)) == 0
        self.checkpoint()

    @rule()
    def swap_store(self):
        """``restart()``: the recovered store replaces the live one and the
        same DurableStore goes on checkpointing it."""
        rec = self.durable.recover()
        self.store = rec.store
        self.dedup = OrderedDict((tuple(p), None) for p in rec.dedup)
        self.floor = rec.stable_floor
        self.reserved = []
        self.checkpoint()

    def _forget_purged(self):
        self.reserved = [(key, ts) for key, ts in self.reserved
                         if self.store.version_at(key, ts) is not None]

    @invariant()
    def counters_agree(self):
        assert self.durable.checkpoints == self.checked


CheckpointMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=50, deadline=None)
TestIncrementalCheckpoint = CheckpointMachine.TestCase


def test_snapshot_layout_is_the_documented_concatenation():
    """The pieces an incremental encoder may cache are self-delimiting: a
    snapshot is header + count + one blob per key + dedup + floor."""
    store = VersionStore()
    store.install("x", Timestamp(1.0, 1), "a")
    store.install("y", Timestamp(2.0, 2), None)
    store.purge_before(Timestamp(1.5, 0))
    dedup = [("c0", 1), ("c1", 2)]
    floor = Timestamp(1.5, 0)
    rows = b"".join(encode_value(row) for row in store.snapshot())
    pairs_ = b"".join(encode_value(pair) for pair in dedup)
    blob = reference(store, dedup, floor)
    head = encode_value(("ckpt", 1))[5:]  # minus the tuple tag + count
    count = lambda n: n.to_bytes(4, "little")  # noqa: E731
    assert blob == (b"U" + count(5) + head
                    + b"U" + count(2) + rows
                    + b"U" + count(2) + pairs_
                    + encode_value(floor))


def test_equal_pairs_of_different_types_keep_their_own_encoding():
    """``(1, 7) == (1.0, 7) == (True, 7)`` and all three hash alike; the
    codec tells them apart, so a kept pair must keep its own type."""
    store, durable = VersionStore(), DurableStore()
    for pair in ((1, 7), (1.0, 7), (True, 7), (1, 7)):
        durable.checkpoint(store, [pair], None)
        assert durable.snapshot() == reference(store, [pair], None)


def test_two_durable_stores_on_one_version_store_stay_exact():
    """Only one follower gets the change feed; the other notices and falls
    back to encoding every row — slower, never wrong."""
    store = VersionStore()
    one, two = DurableStore(), DurableStore()
    for i in range(6):
        store.install("k", Timestamp(float(i + 1), 0), i)
        store.install(f"k{i}", Timestamp(1.0, 0), i)
        for durable in (one, two) if i % 2 else (two, one, one):
            durable.checkpoint(store, (), None)
            assert durable.snapshot() == reference(store, (), None)


def test_every_checkpoint_of_a_selfheal_run_is_the_full_encoding(monkeypatch):
    """A short selfheal-shaped cluster run — replication 3, WAL, a
    checkpoint every 8 records, lossy links, one leader crash and restart —
    with every checkpoint any server takes cross-checked against the full
    encoding, the post-restart ones (a recovered store under the same
    ``DurableStore``) included.  Each checkpoint is read when the next one
    is taken, at recovery and at the end — after the state moved on — and
    each WAL image beside it is compared with the eager log fed the same
    records."""
    taken = []  # (durable, store) per checkpoint
    plain = DurableStore.checkpoint
    plain_recover = DurableStore.recover
    plain_append = WriteAheadLog.append
    eager = {}     # each WAL -> the eager model log fed the same appends
    expected = {}  # each DurableStore -> its last checkpoint's reference

    def mirrored(self, record):
        plain_append(self, record)
        eager.setdefault(self, wal_model.WriteAheadLog()).append(record)

    def read_back(durable):
        model = eager.get(durable.wal)
        assert durable.wal.image() == (model.image() if model else b"")
        assert durable.snapshot() == expected.get(durable)

    def checked(self, store, dedup, stable_floor):
        read_back(self)
        plain(self, store, dedup, stable_floor)
        eager.setdefault(self.wal, wal_model.WriteAheadLog()).truncate()
        expected[self] = reference(store, dedup, stable_floor)
        taken.append((self, store))

    def recovering(self, **kwargs):
        read_back(self)
        return plain_recover(self, **kwargs)

    monkeypatch.setattr(WriteAheadLog, "append", mirrored)
    monkeypatch.setattr(DurableStore, "recover", recovering)
    monkeypatch.setattr(DurableStore, "checkpoint", checked)
    result = run_cluster(ClusterConfig(
        protocol="mvtil-early",
        profile=replace(LOCAL_TESTBED, gc_horizon=0.3),
        workload=WorkloadConfig(num_keys=400, tx_size=4, write_fraction=0.3),
        num_clients=16, num_servers=4, replication=3, durability="wal",
        checkpoint_every=8, follower_reads=True, anti_entropy=True,
        recruitment=True, reliable_fanout=True, sync_batch=8,
        heartbeat_miss_limit=5, write_lock_timeout=0.25, rpc_timeout=0.15,
        rpc_retries=3, gc_period=0.1, warmup=0.3, measure=1.2, seed=11,
        faults=LinkFaults(loss=0.03, duplicate=0.02, delay_spike=0.01),
        chaos=ChaosConfig(leader_crashes=1, leader_downtime=0.3)))
    assert result.committed > 0
    assert result.chaos_report["server_restarts"] == 1
    assert result.chaos_report["messages_lost"] > 0
    assert len(taken) >= 40
    # Some DurableStore went on to checkpoint a second (recovered) store.
    stores = {}
    for durable, store in taken:
        stores.setdefault(id(durable), []).append(store)
    assert any(len({id(s) for s in seen}) > 1 for seen in stores.values())
    for durable in expected:
        read_back(durable)


# -- the cost contract ---------------------------------------------------------
# Everything above holds for any correct encoder (and passed on the
# always-full one); these name what a checkpoint and a read may cost.

def _count_work(monkeypatch):
    """Record every ``snapshot_row`` key and every top-level encode the
    checkpoint module makes from now on."""
    rows, encoded = [], []
    plain_row = VersionStore.snapshot_row
    monkeypatch.setattr(
        VersionStore, "snapshot_row",
        lambda self, key: rows.append(key) or plain_row(self, key))
    plain_encode = checkpoint.encode_value
    monkeypatch.setattr(checkpoint, "encode_value",
                        lambda value: encoded.append(value)
                        or plain_encode(value))
    return rows, encoded


def _twenty_keys():
    store = VersionStore()
    for i in range(20):
        store.install(f"k{i}", Timestamp(1.0, i), i)
    return store, OrderedDict((("c", i), None) for i in range(30))


def test_a_checkpoint_takes_only_changed_rows_and_encodes_nothing(
        monkeypatch):
    store, log = _twenty_keys()
    durable = DurableStore()
    rows, encoded = _count_work(monkeypatch)
    durable.checkpoint(store, log, None)
    assert rows == [f"k{i}" for i in range(20)]  # the first takes every row
    assert encoded == []

    del rows[:]
    store.install("k3", Timestamp(2.0, 0), "new")
    store.latest_before("fresh", Timestamp(1.0, 0))  # first read: a new row
    log.popitem(last=False)
    log[("c", 30)] = None
    floor = Timestamp(0.5, 0)
    durable.checkpoint(store, log, floor)
    assert sorted(rows) == ["fresh", "k3"]
    assert encoded == []
    durable.checkpoint(store, log, floor)  # nothing changed since
    assert sorted(rows) == ["fresh", "k3"]
    assert encoded == []
    assert durable.snapshot() == reference(store, log, floor)


def test_the_first_read_assembles_and_a_second_encodes_nothing(monkeypatch):
    store, log = _twenty_keys()
    durable = DurableStore()
    durable.checkpoint(store, log, None)
    expected = reference(store, log, None)
    expected_rows = store.snapshot()
    store.install("k3", Timestamp(2.0, 0), "after")  # not in the checkpoint
    log[("c", 30)] = None
    rows, encoded = _count_work(monkeypatch)
    blob = durable.snapshot()
    assert blob == expected
    assert len(encoded) == 1 and rows == []  # assembled here, in one go
    assert durable.snapshot() is blob
    recovered = durable.recover()
    assert len(encoded) == 1 and rows == []  # read twice more, encoded once
    assert recovered.store.snapshot() == expected_rows


def test_no_checkpoint_reads_as_none():
    durable = DurableStore()
    assert durable.snapshot() is None
    durable.log_commit(("c", 1), Timestamp(1.0, 1), (("x", "a"),))
    assert durable.snapshot() is None
    assert durable.recover().store.version_at(
        "x", Timestamp(1.0, 1)).value == "a"


def test_one_shot_encoding_leaves_change_tracking_alone():
    """``encode_snapshot`` reads the store without following it: it must
    not take over (or switch on) the store's change feed."""
    store = VersionStore()
    store.install("x", Timestamp(1.0, 1), "a")
    assert encode_snapshot(store, (), None) == reference(store, (), None)
    assert store.changed is None
    durable = DurableStore()
    durable.checkpoint(store, (), None)
    feed = store.changed
    store.install("x", Timestamp(2.0, 1), "b")
    assert encode_snapshot(store, (), None) == reference(store, (), None)
    assert store.changed is feed and feed == {"x"}
    durable.checkpoint(store, (), None)
    assert durable.snapshot() == reference(store, (), None)
