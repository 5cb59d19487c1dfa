"""How many times one MVTIL transaction touches shared lock state.

Algorithm 1 visits each key's lock state a fixed number of times per
transaction: a write locks, a read locks, and ``gc`` freezes and seals.
Doing that work more than once is correct, so no other test sees it; only
a count does.  One thread runs a fixed spec list shaped like perflab's
``engine-threads`` workload (1 024 keys, Zipf 0.8, four operations, half
of them writes, a collector sweep every 256 transactions) through
:class:`~repro.core.engine.MVTLEngine` under MVTIL, and counts every
public :class:`~repro.core.locks.KeyLockState` call and every stripe
acquisition.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.collector import BackgroundCollector
from repro.core.exceptions import TransactionAborted
from repro.core.locks import KeyLockState, LockTable
from repro.policies import MVTIL
from repro.workload import WorkloadConfig, WorkloadGenerator
from tests.core.test_collector import counting_engine

WORKLOAD = WorkloadConfig(num_keys=1_024, tx_size=4, write_fraction=0.5,
                          zipf_s=0.8)
TX_PER_LIST = 1_500
SWEEP_EVERY = 256

#: The public KeyLockState methods, each wrapped by a counter.
METHODS = sorted(name for name, value in vars(KeyLockState).items()
                 if callable(value) and not name.startswith("_"))


def specs():
    """Two spec lists, as perflab's ``engine_specs`` draws them, run one
    after the other on one thread."""
    out = []
    for child in np.random.SeedSequence(5).spawn(2):
        gen = WorkloadGenerator(WORKLOAD, np.random.default_rng(child))
        out.extend(gen.next_tx() for _ in range(TX_PER_LIST))
    return out


@pytest.fixture(scope="module")
def run():
    """Run the specs once, counting; returns (counts, transactions,
    noted owner/key pairs, sealed owner/state pairs)."""
    mp = pytest.MonkeyPatch()
    counts = Counter()
    noted = set()
    sealed = Counter()

    def counter(name, method):
        def counted(self, *args, **kwargs):
            counts[name] += 1
            if name == "seal":
                sealed[args[0], id(self)] += 1
            return method(self, *args, **kwargs)
        return counted

    for name in METHODS:
        mp.setattr(KeyLockState, name, counter(name, getattr(KeyLockState,
                                                             name)))
    note_owner = LockTable.note_owner

    def noting(self, owner, key):
        noted.add((owner, id(self.peek(key))))
        note_owner(self, owner, key)

    mp.setattr(LockTable, "note_owner", noting)
    try:
        engine = counting_engine(MVTIL(), counts)
        collector = BackgroundCollector(engine, purge_horizon=50)
        txs = []
        for n, spec in enumerate(specs(), start=1):
            tx = engine.begin(pid=1)
            txs.append(tx)
            try:
                for op in spec.ops:
                    if op.is_write:
                        engine.write(tx, op.key, op.value)
                    else:
                        engine.read(tx, op.key)
                engine.commit(tx)
            except TransactionAborted:
                pass
            collector.note_finished(tx)
            if n % SWEEP_EVERY == 0:
                collector.collect_now()
    finally:
        mp.undo()
    return counts, txs, noted, sealed


def test_every_transaction_commits(run):
    _, txs, _, _ = run
    assert all(tx.committed and tx.collected for tx in txs)


def test_lock_state_calls_per_transaction(run):
    counts, txs, _, _ = run
    calls = sum(counts[name] for name in METHODS)
    assert calls / len(txs) <= 8.0, dict(counts)
    # The write is one probe, the read one walk, and gc one seal per key
    # that freezes the spans too: nothing on the path re-reads a grant or
    # freezes separately.
    assert counts["held"] == 0
    assert counts["freeze"] == 0


def test_stripe_acquisitions_per_transaction(run):
    counts, txs, _, _ = run
    assert counts["stripes"] / len(txs) <= 7.68


def test_each_key_sealed_once_per_transaction(run):
    _, _, noted, sealed = run
    assert set(sealed) == noted
    assert set(sealed.values()) == {1}
