#!/usr/bin/env python3
"""Backfilling late data with MVTL-Pref (§5.1).

Domain story: an IoT pipeline ingests sensor readings while analytics
transactions continuously read the latest data.  A delayed sensor batch
must be recorded *at its measurement time* — in the past.  Under MVTO+
(timestamp ordering) such a write aborts whenever any analytics read has
already scanned past that point: the read-timestamp is ahead, and the
late writer has exactly one serialization point, which is burned.

MVTL-Pref gives every transaction *alternative* timestamps below its
preferential one (the function ``A(t)``), so a late writer can slide its
serialization point below the analytics reads it conflicts with — Theorem 2
in action on a realistic workload.

Run:  python examples/late_data_backfill.py
"""

from repro import MVTLEngine, TransactionAborted
from repro.policies import (MVTLPreferential, MVTLTimestampOrdering,
                            offset_alternatives)
from repro.verify import HistoryRecorder, check_serializable


def ingest_and_analyze(engine, n_rounds: int = 25):
    """Interleave analytics reads with late backfill writes.

    Returns (#backfills committed, #backfills aborted).
    """
    committed = aborted = 0
    # Seed current data.
    tx = engine.begin(pid=1)
    engine.write(tx, "sensor:temp", 21.0)
    assert engine.commit(tx)

    for round_no in range(n_rounds):
        # Analytics: read the sensor and record a rollup.  Its read pushes
        # the read-timestamp of the current version forward.
        analytics = engine.begin(pid=2)
        reading = engine.read(analytics, "sensor:temp")
        engine.write(analytics, f"rollup:{round_no}", reading)
        assert engine.commit(analytics)

        # A late batch arrives: it must serialize before the analytics
        # read (its data belongs to the past).
        backfill = engine.begin(pid=3)
        try:
            engine.write(backfill, "sensor:humidity", 40.0 + round_no)
            if engine.commit(backfill):
                committed += 1
            else:
                aborted += 1
        except TransactionAborted:
            aborted += 1
    return committed, aborted


def main() -> None:
    print("Backfill under MVTO+ vs MVTL-Pref")
    print("-" * 56)

    # MVTO+: the late writer has one serialization point.  To make the
    # lateness visible we give the backfill process a clock that lags the
    # analytics process (it writes data measured in the past).
    from repro.clocks import SkewedClock

    class Src:
        t = 0.0

        def __call__(self):
            Src.t += 1.0
            return Src.t

    src = Src()

    def clocks(pid):
        return SkewedClock(src, -6.0 if pid == 3 else 0.0)

    # MVTO+ is the MVTL-TO policy (Theorem 5).
    mvto = MVTLEngine(MVTLTimestampOrdering(), clock_for_pid=clocks)
    ok, bad = ingest_and_analyze(mvto)
    print(f"  MVTO+     : backfills committed={ok:2d} aborted={bad:2d}")

    src2 = Src()
    history = HistoryRecorder()
    pref = MVTLEngine(
        MVTLPreferential(offset_alternatives(-3.0, -9.0, -15.0)),
        clock_for_pid=clocks, history=history)
    ok2, bad2 = ingest_and_analyze(pref)
    print(f"  MVTL-Pref : backfills committed={ok2:2d} aborted={bad2:2d}")

    assert ok2 > ok, "Pref should rescue backfills MVTO+ aborts"
    report = check_serializable(history)
    print(f"  MVTL-Pref history serializable: {report.serializable} "
          f"({report.num_committed} commits)")
    assert report.serializable


if __name__ == "__main__":
    main()
