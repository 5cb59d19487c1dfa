"""The threaded engine's MVTIL trace is pinned event by event.

Three clients interleave their operations on one thread against a small
key space, with a logical clock fine enough that their intervals overlap:
writes are cut short, reads stop at other owners' write locks, and some
transactions abort.  Every event's kind, transaction, key, mode, commit
timestamp, reason and data fields (``requested`` / ``granted`` widths,
``conflicts``, ``shrink``, a freeze's ``span``) are hashed in emission
order — stamps aside, the stream that ``repro.obs`` folds.  The digests
were recorded before the engine's lock-state passes were fused (one probe
per MVTIL write, one freeze-and-seal pass per key at commit), so a change
in what is traced, or in the order of the write freezes, the commit and
the read freezes, shows here.
"""

import hashlib

import numpy as np
import pytest

from repro.clocks.clock import LogicalClock
from repro.core.collector import BackgroundCollector
from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.obs.trace import Tracer
from repro.policies import MVTIL
from repro.workload import WorkloadConfig, WorkloadGenerator

WORKLOAD = WorkloadConfig(num_keys=12, tx_size=4, write_fraction=0.5,
                          zipf_s=0.8)
CLIENTS = 3
TX_PER_CLIENT = 60

#: sha256 of the event stream per MVTIL configuration.
DIGESTS = {
    "early":
        "833fb48b0ccff265ac7a18c6e177157379f6d053b406de62726182417d0864fe",
    "late-background-gc":
        "351405df81c65303479def5c6648fb9155168eebe8999064cfb3d6acb9082dea",
}

CONFIGS = {
    "early": dict(late=False, gc_on_commit=True),
    "late-background-gc": dict(late=True, gc_on_commit=False),
}


def traced_run(late, gc_on_commit):
    tracer = Tracer(now_fn=lambda: 0.0)
    engine = MVTLEngine(MVTIL(delta=0.005, late=late,
                              gc_on_commit=gc_on_commit),
                        LogicalClock(step=0.001), tracer=tracer)
    collector = BackgroundCollector(engine)
    rngs = np.random.SeedSequence(7).spawn(CLIENTS)
    gens = [WorkloadGenerator(WORKLOAD, np.random.default_rng(r))
            for r in rngs]
    left = [TX_PER_CLIENT] * CLIENTS
    running = [None] * CLIENTS  # (tx, remaining ops) per client
    while any(left) or any(running):
        for c in range(CLIENTS):
            if running[c] is None:
                if not left[c]:
                    continue
                left[c] -= 1
                running[c] = (engine.begin(pid=c + 1),
                              list(gens[c].next_tx().ops))
            tx, ops = running[c]
            try:
                if ops:
                    op = ops.pop(0)
                    if op.is_write:
                        engine.write(tx, op.key, op.value)
                    else:
                        engine.read(tx, op.key)
                    continue
                engine.commit(tx)
            except TransactionAborted:
                pass
            running[c] = None
            collector.note_finished(tx)
        collector.collect_now()
    return tracer.events


def digest(events):
    h = hashlib.sha256()
    for e in events:
        h.update(repr((e.kind, e.tx, e.key, e.mode, e.ts, e.reason, e.dur,
                       sorted(e.data.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_stream_is_pinned(name):
    events = traced_run(**CONFIGS[name])
    kinds = {e.kind for e in events}
    assert {"lock-acquire", "freeze", "commit", "abort"} <= kinds
    assert any(e.kind == "lock-acquire" and e.data["conflicts"]
               for e in events)
    assert digest(events) == DIGESTS[name]
