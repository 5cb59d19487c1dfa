"""Rule-based differential testing of the write-ahead log.

Hypothesis drives two logs in lockstep: the eager reference model
(``tests/repl/wal_model.py``: every append is encoded and framed at once)
and :class:`repro.repl.wal.WriteAheadLog`.  The rules append records of
every kind the servers write (and some they do not: non-tuples and an
empty tuple), truncate, read the image, replay, and
ask for ``size_bytes``, ``len`` and ``records_by_kind``, and tear the tail
(the real log through :meth:`~repro.repl.wal.WriteAheadLog.load_image`) —
interleaved, so a read lands after no appends, after one, and after many.
Written and green against the eager log first, before ``tear`` (which
needs ``load_image``) was added.  After every rule
every observable must be equal.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.timestamp import BOTTOM, Timestamp
from repro.repl.wal import WriteAheadLog
from tests.repl import wal_model

stamps = st.builds(Timestamp, st.integers(0, 8).map(lambda v: v / 2.0),
                   st.integers(0, 2))
scalars = st.one_of(st.none(), st.just(BOTTOM), st.booleans(),
                    st.integers(-3, 3), st.floats(allow_nan=False),
                    st.text(max_size=3), st.binary(max_size=3), stamps)
entries = st.lists(st.tuples(st.sampled_from(("a", "b", 7, 7.0)), scalars),
                   max_size=3).map(tuple)
records = st.one_of(
    st.tuples(st.just("commit"), st.tuples(st.just("c"), st.integers(0, 9)),
              stamps, entries, st.sampled_from((None, "c0", 1, 1.0, True)),
              st.integers(0, 9)),
    st.tuples(st.just("purge"), stamps),
    st.tuples(st.just("sync"), st.lists(
        st.tuples(st.sampled_from(("a", "b")), stamps, scalars),
        max_size=3).map(tuple)),
    # Not what a server writes, but the log takes any encodable value.
    st.just(()), scalars, st.lists(scalars, max_size=2),
    st.dictionaries(st.text(max_size=2), scalars, max_size=2))


class WalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = wal_model.WriteAheadLog()
        self.wal = WriteAheadLog()

    @rule(record=records)
    def append(self, record):
        self.model.append(record)
        self.wal.append(record)

    @rule(batch=st.lists(records, min_size=2, max_size=8))
    def append_many(self, batch):
        for record in batch:
            self.append(record)

    @rule(cut=st.integers(0, 2 ** 16))
    def tear(self, cut):
        """A crash tore the tail: the disk holds a prefix of the image
        (the model's own bytes are its buffer)."""
        torn = self.model.image()[:cut % (self.model.size_bytes + 1)]
        self.model._buf = bytearray(torn)
        self.wal.load_image(torn)

    @rule()
    def truncate(self):
        self.model.truncate()
        self.wal.truncate()

    @rule()
    def image(self):
        assert self.wal.image() == self.model.image()

    @rule()
    def replay(self):
        assert self.wal.replay() == self.model.replay()
        assert list(self.wal) == list(self.model)

    @rule()
    def size(self):
        assert self.wal.size_bytes == self.model.size_bytes

    @invariant()
    def counters_agree(self):
        assert len(self.wal) == len(self.model)
        assert self.wal.records_appended == self.model.records_appended
        assert self.wal.records_by_kind == self.model.records_by_kind


WalMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestWalDifferential = WalMachine.TestCase
