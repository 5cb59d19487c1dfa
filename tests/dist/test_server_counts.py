"""How many times one ``CommitReq`` touches the server's lock state.

Alg. 13 ends a transaction on a key in one visit: the seal freezes the
commit's write point and read span and folds them into the sealed runs.
Freezing first and sealing after is correct too, so no other test sees the
difference; only a count does.  One :class:`~repro.dist.server.MVTLServer`
runs transactions that read and write overlapping keys, and every public
:class:`~repro.core.locks.KeyLockState` call made while it handles each
``CommitReq`` is counted — the server-side twin of
``tests/core/test_engine_counts.py``.
"""

from collections import Counter

import pytest

from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import KeyLockState
from repro.dist.messages import CommitReq
from tests.dist.test_server import Harness, T

#: The public KeyLockState methods, each wrapped by a counter.
METHODS = sorted(name for name, value in vars(KeyLockState).items()
                 if callable(value) and not name.startswith("_"))
KEYS = ("a", "b", "c", "d")


@pytest.fixture
def counted(monkeypatch):
    """Public KeyLockState calls, and the (owner, state) pairs sealed."""
    counts, sealed = Counter(), Counter()

    def counter(name, method):
        def counted_call(self, *args, **kwargs):
            counts[name] += 1
            if name == "seal":
                sealed[args[0], id(self)] += 1
            return method(self, *args, **kwargs)
        return counted_call

    for name in METHODS:
        monkeypatch.setattr(KeyLockState, name,
                            counter(name, getattr(KeyLockState, name)))
    return counts, sealed


@pytest.mark.parametrize("release", [True, False])
def test_one_seal_per_held_key_per_commit(counted, release):
    counts, sealed = counted
    h = Harness()
    server = h.server
    for i in range(12):
        tx = f"t{i}"
        lo, hi = T(10 * i + 1, 1), T(10 * i + 5, 1)
        reads = (KEYS[i % 4], KEYS[(i + 1) % 4])
        writes = (KEYS[(i + 1) % 4], KEYS[(i + 2) % 4])
        spans = {}
        for key in reads:
            reply = h.read(tx, key, hi, wait=False)
            spans[key] = IntervalSet.from_interval(
                TsInterval.open_closed(reply.tr, lo))
        for key in writes:
            want = IntervalSet.from_interval(TsInterval.closed(lo, hi))
            assert h.write_lock(tx, key, i, want).acquired == want
        held = server.locks.keys_of(tx)
        assert held == set(reads) | set(writes)
        counts.clear()
        sealed.clear()
        server._handle(CommitReq(tx, "cli", h.req_id(), ts=lo,
                                 write_keys=writes, spans=spans,
                                 release=release))
        assert dict(counts) == {"seal": len(held)}
        assert sorted(sealed.values()) == [1] * len(held)
        assert server.locks.owners() == []
        for key in writes:
            assert server.store.latest(key).value == i
