#!/usr/bin/env python3
"""Serial aborts and ghost aborts — the §5.3/§5.5 pathologies, live.

Demonstrates, side by side:

1. a **serial abort**: with skewed clocks, MVTO+ aborts a transaction in a
   completely serial execution; MVTL-eps-clock (Theorem 4) commits it;
2. a **ghost abort**: MVTO+ (and MVTL-TO) abort a transaction because of a
   conflict with a transaction that *already aborted*; MVTL-Ghostbuster
   (Theorem 7) commits it.

MVTO+ runs as the MVTL-TO policy, which behaves as MVTO+ (Theorem 5).

Run:  python examples/clock_anomalies.py
"""

from repro import MVTLEngine
from repro.clocks import SkewedClock
from repro.policies import (MVTLEpsilonClock, MVTLGhostbuster,
                            MVTLTimestampOrdering)


class ManualTime:
    """A controllable time source standing in for the machine clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def serial_abort_demo() -> None:
    print("=" * 64)
    print("1. Serial aborts under skewed clocks (§5.3)")
    print("=" * 64)
    # Core 2's clock is accurate; core 1 lags by 2 time units.
    src = ManualTime()

    def clocks(pid):
        return SkewedClock(src, -2.0 if pid == 1 else 0.0)

    for name, make in [
        # MVTO+ is the MVTL-TO policy (Theorem 5).
        ("MVTO+        ",
         lambda: MVTLEngine(MVTLTimestampOrdering(), clock_for_pid=clocks)),
        ("MVTL-eps-clock",
         lambda: MVTLEngine(MVTLEpsilonClock(epsilon=2.0),
                            clock_for_pid=clocks)),
    ]:
        src.t = 3.0
        engine = make()
        t2 = engine.begin(pid=2)           # sees clock 3
        engine.read(t2, "X")
        assert engine.commit(t2)
        src.t = 3.5
        t1 = engine.begin(pid=1)           # sees clock 1.5 — in the past!
        engine.write(t1, "X", "x")
        ok = engine.commit(t1)
        print(f"  {name}: T2 R(X) C ; then T1 W(X) -> "
              f"{'COMMIT' if ok else 'ABORT (serial abort!)'}")


def ghost_abort_demo() -> None:
    print()
    print("=" * 64)
    print("2. Ghost aborts (§5.5)")
    print("=" * 64)
    print("  schedule: T3: R(X) C | T2: R(Y) W(X) abort | T1: W(Y) ?")
    for name, make in [
        ("MVTO+           ", lambda: MVTLEngine(MVTLTimestampOrdering())),
        ("MVTL-Ghostbuster",
         lambda: MVTLEngine(MVTLGhostbuster())),
    ]:
        engine = make()
        t1 = engine.begin(pid=1)   # timestamp 1
        t2 = engine.begin(pid=2)   # timestamp 2
        t3 = engine.begin(pid=3)   # timestamp 3
        engine.read(t3, "X")
        assert engine.commit(t3)
        engine.read(t2, "Y")
        engine.write(t2, "X", "x2")
        assert not engine.commit(t2)       # T2 dies on T3's read of X
        engine.write(t1, "Y", "y1")
        ok = engine.commit(t1)             # conflict is with the dead T2
        print(f"  {name}: T1 W(Y) -> "
              f"{'COMMIT' if ok else 'ABORT (ghost abort!)'}")


if __name__ == "__main__":
    serial_abort_demo()
    ghost_abort_demo()
