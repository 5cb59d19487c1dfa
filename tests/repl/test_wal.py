"""WAL codec, framing, torn-tail recovery and checkpoints (repro.repl).

The load-bearing property: truncating a WAL image at *any* byte offset
recovers a clean prefix of the record list — a logged commit (one record
covering all of the transaction's keys) is either fully recovered or fully
absent, never partially applied.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamp import BOTTOM, Timestamp
from repro.core.versions import VersionStore
from repro.repl.checkpoint import (DurableStore, decode_snapshot,
                                   encode_snapshot)
from repro.repl.wal import (WalCorruption, WriteAheadLog, decode_value,
                            encode_value, frame, replay_records)

ZOO = [
    None, True, False, 0, 1, -1, 2 ** 63 - 1, -(2 ** 63),
    2 ** 80, -(2 ** 100),                      # bigint escape
    0.0, -2.5, 1e308, float("inf"),
    "", "key-17", "naïve ünïcode",
    b"", b"\x00\xff raw",
    BOTTOM, Timestamp(1.5, 7), Timestamp(0.0, -(2 ** 31)),
    (), (1, "two", 3.0), [1, [2, [3]]],
    {"a": 1, "b": (2, None)},
    ("commit", ("client-0", 12), Timestamp(2.25, 3),
     (("k1", "v1"), ("k2", None)), "client-0", 45),
]


class TestCodec:
    def test_roundtrip_zoo(self):
        for value in ZOO:
            assert decode_value(encode_value(value)) == value

    def test_type_is_preserved(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(BOTTOM)) is BOTTOM

    def test_timestamp_roundtrip_is_exact(self):
        ts = Timestamp(0.30000000000000004, 2 ** 40)
        out = decode_value(encode_value(ts))
        assert out == ts and out.value == ts.value and out.pid == ts.pid

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError):
            encode_value({1, 2, 3})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WalCorruption):
            decode_value(encode_value(1) + b"x")

    def test_truncated_payload_rejected(self):
        blob = encode_value(("abc", 123))
        with pytest.raises(WalCorruption):
            decode_value(blob[:-1])


def _image(records):
    out = bytearray()
    for rec in records:
        out += frame(encode_value(rec))
    return bytes(out)


RECORDS = [
    ("commit", ("c0", 1), Timestamp(1.0, 1), (("x", "a"),), "c0", 10),
    ("purge", Timestamp(0.5, -(2 ** 31))),
    ("commit", ("c1", 2), Timestamp(1.5, 2), (("y", "b"), ("z", "c")),
     None, None),
    ("commit", ("c0", 3), Timestamp(2.0, 1), (("x", "d"),), "c0", 11),
    ("purge", Timestamp(1.75, -(2 ** 31))),
]


class TestTornTail:
    def test_full_image_replays_everything(self):
        assert replay_records(_image(RECORDS)) == RECORDS

    def test_truncation_at_every_offset_yields_a_prefix(self):
        img = _image(RECORDS)
        for cut in range(len(img) + 1):
            got = replay_records(img[:cut])
            assert got == RECORDS[:len(got)]

    def test_corrupt_byte_stops_at_last_good_record(self):
        img = bytearray(_image(RECORDS))
        # Flip a byte inside the third frame's payload: CRC catches it.
        two = len(_image(RECORDS[:2]))
        img[two + 12] ^= 0xFF
        got = replay_records(bytes(img))
        assert got == RECORDS[:2]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_records_random_cut_is_a_prefix(self, data):
        """Satellite (c): hypothesis — torn tails recover a clean prefix."""
        scalar = st.one_of(
            st.none(), st.booleans(),
            st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
            st.floats(allow_nan=False),
            st.text(max_size=8), st.binary(max_size=8),
            st.builds(Timestamp,
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(min_value=-(2 ** 31),
                                  max_value=2 ** 31)))
        record = st.one_of(
            scalar,
            st.lists(scalar, max_size=4),
            st.lists(scalar, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), scalar, max_size=3))
        records = data.draw(st.lists(record, max_size=6))
        img = _image(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(img)))
        got = replay_records(img[:cut])
        assert got == records[:len(got)]
        if cut == len(img):
            assert got == records



class TestLazyFraming:
    def test_append_frames_nothing_until_a_read(self, monkeypatch):
        from repro.repl import wal as wal_module
        encoded = []
        plain = wal_module.encode_value
        monkeypatch.setattr(wal_module, "encode_value",
                            lambda value: encoded.append(value) or plain(value))
        log = WriteAheadLog()
        for record in RECORDS:
            log.append(record)
        assert encoded == [] and len(log) == len(RECORDS)
        assert log.image() == _image(RECORDS)
        assert encoded == RECORDS
        assert log.replay() == RECORDS and log.size_bytes == len(_image(RECORDS))
        assert encoded == RECORDS  # framed once, read three times

    def test_a_refused_record_surfaces_at_every_read(self):
        log = WriteAheadLog()
        log.append(RECORDS[0])
        log.append(("purge", object()))
        assert len(log) == 2 and log.records_by_kind == {
            RECORDS[0][0]: 1, "purge": 1}
        for read in (log.image, log.replay, lambda: log.size_bytes):
            with pytest.raises(TypeError):
                read()
        log.truncate()
        assert log.image() == b"" and len(log) == 2

def _store_with(entries):
    store = VersionStore()
    for key, ts, value in entries:
        store.install(key, ts, value)
    return store


class TestCheckpoint:
    def test_snapshot_roundtrip(self):
        store = _store_with([("x", Timestamp(1.0, 1), "a"),
                             ("x", Timestamp(2.0, 2), "b"),
                             ("y", Timestamp(1.5, 1), None)])
        dedup = (("c0", 1), ("c1", 2))
        floor = Timestamp(0.5, -(2 ** 31))
        back, dedup2, floor2 = decode_snapshot(
            encode_snapshot(store, dedup, floor))
        assert list(dedup2) == list(dedup)
        assert floor2 == floor
        assert back.version_at("x", Timestamp(2.0, 2)).value == "b"
        assert [tuple(c[:1]) for c in back.snapshot()] \
            == [tuple(c[:1]) for c in store.snapshot()]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            decode_snapshot(encode_value(("nope", 1, (), (), None)))


class TestDurableStore:
    def test_recover_replays_logged_commits(self):
        durable = DurableStore()
        durable.log_commit(("c0", 1), Timestamp(1.0, 1),
                           (("x", "a"), ("y", "b")), "c0", 10)
        durable.log_commit(("c1", 2), Timestamp(2.0, 2), (("x", "c"),),
                           None, None)
        rec = durable.recover()
        assert rec.replayed_installs == 3
        assert rec.store.version_at("x", Timestamp(2.0, 2)).value == "c"
        assert rec.store.version_at("y", Timestamp(1.0, 1)).value == "b"
        assert rec.dedup == [("c0", 10)]
        assert rec.stable_floor is None

    def test_purge_records_raise_the_floor(self):
        durable = DurableStore()
        durable.log_commit(("c0", 1), Timestamp(1.0, 1), (("x", "a"),))
        durable.log_commit(("c0", 2), Timestamp(3.0, 1), (("x", "b"),))
        durable.log_purge(Timestamp(2.0, -(2 ** 31)))
        rec = durable.recover()
        assert rec.stable_floor == Timestamp(2.0, -(2 ** 31))
        assert rec.store.version_at("x", Timestamp(3.0, 1)).value == "b"

    def test_checkpoint_truncates_and_recovery_still_complete(self):
        durable = DurableStore(checkpoint_every=2)
        store = VersionStore()
        applied = []
        for i in range(5):
            ts = Timestamp(float(i + 1), 1)
            store.install("k", ts, i)
            applied.append((ts, i))
            durable.log_commit(("c", i), ts, (("k", i),), "c", i)
            durable.maybe_checkpoint(store, tuple(("c", j) for j in
                                                  range(i + 1)), None)
        assert durable.checkpoints == 2
        assert len(durable.wal.replay()) < 5  # truncated at checkpoints
        assert durable.wal.records_appended == 5  # lifetime counter
        rec = durable.recover()
        for ts, value in applied:
            assert rec.store.version_at("k", ts).value == value
        assert rec.dedup == [("c", i) for i in range(5)]

    def test_dedup_is_only_read_when_a_checkpoint_fires(self):
        # Servers call maybe_checkpoint after every WAL record with their
        # live dedup mapping; copying it is the checkpoint's job, once.
        class Dedup:
            def __init__(self, pairs):
                self.pairs, self.reads = pairs, 0

            def __iter__(self):
                self.reads += 1
                return iter(self.pairs)

        pairs = [("c", i) for i in range(3)]
        dedup = Dedup(pairs)
        durable = DurableStore(checkpoint_every=3)
        store = VersionStore()
        for i in range(3):
            ts = Timestamp(float(i + 1), 1)
            store.install("k", ts, i)
            durable.log_commit(("c", i), ts, (("k", i),), "c", i)
            fired = durable.maybe_checkpoint(store, dedup, None)
            assert fired == (i == 2)
            assert dedup.reads == (1 if fired else 0)
        # Same bytes as the eager tuple every call site used to build, and
        # as the ordered mapping the servers pass now.
        assert durable.snapshot() == encode_snapshot(store, tuple(pairs), None)
        assert durable.snapshot() == encode_snapshot(
            store, dict.fromkeys(pairs), None)
        assert durable.recover().dedup == pairs

    def test_aborted_callback_skips_decided_aborts(self):
        durable = DurableStore()
        durable.log_commit(("dead", 1), Timestamp(1.0, 1), (("x", "a"),))
        durable.log_commit(("live", 2), Timestamp(2.0, 2), (("x", "b"),))
        rec = durable.recover(aborted=lambda tx: tx == ("dead", 1))
        assert rec.store.version_at("x", Timestamp(1.0, 1)) is None
        assert rec.store.version_at("x", Timestamp(2.0, 2)).value == "b"

    def test_torn_tail_recovers_the_prefix(self):
        durable = DurableStore()
        for i in range(3):
            durable.log_commit(("c", i), Timestamp(float(i + 1), 1),
                               ((f"k{i}", i),), "c", i)
        durable.wal.load_image(
            durable.wal.image()[:durable.wal.size_bytes - 3])
        rec = durable.recover()
        assert rec.store.version_at("k0", Timestamp(1.0, 1)).value == 0
        assert rec.store.version_at("k1", Timestamp(2.0, 1)).value == 1
        assert rec.store.version_at("k2", Timestamp(3.0, 1)) is None
        assert rec.dedup == [("c", 0), ("c", 1)]

    def test_duplicate_records_are_idempotent(self):
        durable = DurableStore()
        for _ in range(2):  # timeout path + CommitReq path double-log
            durable.log_commit(("c", 1), Timestamp(1.0, 1), (("x", "a"),),
                               "c", 7)
        rec = durable.recover()
        assert rec.replayed_installs == 1
        assert rec.dedup == [("c", 7)]

    def test_sync_records_replay_like_commits(self):
        # Anti-entropy installs (DESIGN.md §5h) must survive a crash just
        # like CommitReq installs: a post-resync restart recovers them.
        durable = DurableStore()
        durable.log_sync((("x", Timestamp(1.0, 1), "a"),
                          ("y", Timestamp(2.0, 1), "b")))
        rec = durable.recover()
        assert rec.replayed_installs == 2
        assert rec.store.version_at("x", Timestamp(1.0, 1)).value == "a"
        assert rec.store.version_at("y", Timestamp(2.0, 1)).value == "b"
        assert rec.dedup == []  # sync records carry no request identity

    def test_sync_replay_is_guarded_against_commit_overlap(self):
        # The same version can arrive via a logged commit *and* a sync
        # batch (fan-out raced the session); replay installs it once.
        durable = DurableStore()
        durable.log_commit(("c", 1), Timestamp(1.0, 1), (("x", "a"),),
                           "c", 7)
        durable.log_sync((("x", Timestamp(1.0, 1), "a"),))
        rec = durable.recover()
        assert rec.replayed_installs == 1
        assert rec.store.version_at("x", Timestamp(1.0, 1)).value == "a"

    def test_records_by_kind_tracks_sync_appends(self):
        durable = DurableStore()
        durable.log_commit(("c", 1), Timestamp(1.0, 1), (("x", "a"),))
        durable.log_sync((("y", Timestamp(2.0, 1), "b"),))
        durable.log_sync((("z", Timestamp(3.0, 1), "c"),))
        assert durable.wal.records_by_kind["commit"] == 1
        assert durable.wal.records_by_kind["sync"] == 2
