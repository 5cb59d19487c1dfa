"""Quantitative checks of the §5 theorem claims on adversarial workloads.

The proofs live in the paper (and the exact schedules in tests/policies/);
here we measure how often each pathology fires under randomized
closed-loop-style workloads on the centralized engines — turning each
theorem into a measurable gap between two policies:

* Thm. 2 — MVTL-Pref commits everything MVTO+ commits, and more (skewed
  clocks make MVTO+ abort writers that Pref saves with lower alternatives);
* Thm. 3 — MVTL-Prio: critical transactions are never aborted by normals;
* Thm. 4 — epsilon-clock: zero aborts in serial executions under skew,
  where MVTO+ serially aborts;
* Thm. 7 — Ghostbuster: zero ghost aborts where MVTL-TO exhibits them.
"""

import random

from repro.clocks import SkewedClock
from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.policies import (MVTLEpsilonClock, MVTLGhostbuster,
                            MVTLPreferential, MVTLPrioritizer,
                            MVTLTimestampOrdering, offset_alternatives)
from repro.baselines import MVTOEngine


class _SimClock:
    """Deterministic fake time source advancing on every read."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _serial_skewed_run(engine_factory, n_txs=200, n_keys=10, seed=2):
    """Serial execution with per-process skewed clocks; returns abort count."""
    rnd = random.Random(seed)
    engine = engine_factory()
    aborts = 0
    for i in range(n_txs):
        pid = rnd.randrange(1, 4)
        tx = engine.begin(pid=pid)
        try:
            for _ in range(3):
                key = f"k{rnd.randrange(n_keys)}"
                if rnd.random() < 0.5:
                    engine.read(tx, key)
                else:
                    engine.write(tx, key, i)
            if not engine.commit(tx):
                aborts += 1
        except TransactionAborted:
            aborts += 1
    return aborts


def _skewed_clock_factory(source):
    skews = {1: 0.0, 2: -3.0, 3: +3.0}

    def for_pid(pid):
        return SkewedClock(source, skews.get(pid, 0.0))

    return for_pid


def test_thm4_serial_aborts():
    """epsilon-clock has no serial aborts under skew; MVTO+ has many."""

    def run():
        src = _SimClock()
        mvto_aborts = _serial_skewed_run(
            lambda: MVTOEngine(clock_for_pid=_skewed_clock_factory(src)))
        src2 = _SimClock()
        eps_aborts = _serial_skewed_run(
            lambda: MVTLEngine(MVTLEpsilonClock(epsilon=3.5),
                               clock_for_pid=_skewed_clock_factory(src2)))
        return mvto_aborts, eps_aborts

    mvto_aborts, eps_aborts = run()
    print(f"\nserial aborts under skew: MVTO+={mvto_aborts} "
          f"eps-clock={eps_aborts}")
    assert mvto_aborts > 0
    assert eps_aborts == 0


def test_thm2_pref_commits_more():
    """MVTL-Pref (alternatives below) aborts less than MVTO+ under skew."""

    def run():
        src = _SimClock()
        mvto_aborts = _serial_skewed_run(
            lambda: MVTOEngine(clock_for_pid=_skewed_clock_factory(src)),
            seed=5)
        src2 = _SimClock()
        pref_aborts = _serial_skewed_run(
            lambda: MVTLEngine(
                MVTLPreferential(offset_alternatives(-7.0, -3.5)),
                clock_for_pid=_skewed_clock_factory(src2)),
            seed=5)
        return mvto_aborts, pref_aborts

    mvto_aborts, pref_aborts = run()
    print(f"\naborts under skew: MVTO+={mvto_aborts} Pref={pref_aborts}")
    assert pref_aborts < mvto_aborts


def test_thm3_priority_never_aborted_by_normals():
    """Critical transactions always commit against normal traffic."""

    def run():
        engine = MVTLEngine(MVTLPrioritizer())
        rnd = random.Random(0)
        critical_aborts = 0
        for i in range(150):
            is_critical = i % 5 == 0
            tx = engine.begin(pid=1 + (i % 3), priority=is_critical)
            try:
                for _ in range(3):
                    key = f"k{rnd.randrange(6)}"
                    if rnd.random() < 0.5:
                        engine.read(tx, key)
                    else:
                        engine.write(tx, key, i)
                ok = engine.commit(tx)
                if is_critical and not ok:
                    critical_aborts += 1
            except TransactionAborted:
                if is_critical:
                    critical_aborts += 1
        return critical_aborts

    critical_aborts = run()
    assert critical_aborts == 0


def test_thm7_ghost_aborts():
    """Ghostbuster eliminates the ghost-abort schedule that kills MVTL-TO."""

    def ghost_schedule(policy):
        engine = MVTLEngine(policy)
        # Timestamps 1 < 2 < 3 via pids on a fixed clock value are emulated
        # with a logical clock: begin order fixes the timestamps.
        t1 = engine.begin(pid=1)   # ts 1
        t2 = engine.begin(pid=2)   # ts 2
        t3 = engine.begin(pid=3)   # ts 3
        engine.read(t3, "X")
        assert engine.commit(t3)
        engine.read(t2, "Y")
        engine.write(t2, "X", "x2")
        assert not engine.commit(t2)  # killed by T3's read of X
        engine.write(t1, "Y", "y1")
        return engine.commit(t1)  # ghost abort under TO; commits under GB

    def run():
        return (ghost_schedule(MVTLTimestampOrdering()),
                ghost_schedule(MVTLGhostbuster()))

    to_committed, gb_committed = run()
    assert not to_committed   # MVTL-TO suffers the ghost abort
    assert gb_committed       # Ghostbuster does not
