"""Property-based serializability: random interleaved schedules against
every centralized engine, certified by the MVSG oracle.

This is Theorem 1 as a property test: *any* interleaving of operations,
under *any* policy, must yield a serializable committed history.  Schedules
are generated as flat operation lists over a small key space with several
logical sessions interleaved round-robin-with-jitter, which maximizes
read-write overlap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import MVTLEngine
from repro.core.exceptions import TransactionAborted
from repro.policies import (MVTIL, MVTLEpsilonClock, MVTLGhostbuster,
                            MVTLPessimistic, MVTLPreferential,
                            MVTLPrioritizer, MVTLTimestampOrdering)
from repro.verify import HistoryRecorder, check_serializable
from tests.baselines.mvto_model import MVTOEngine
from tests.baselines.twopl_model import TwoPLEngine

KEYS = ["a", "b", "c"]

# One schedule step: (session, op) where op is ("r", key) / ("w", key) /
# ("c", None).  Sessions run one transaction at a time; "c" commits the
# session's transaction and begins a new one on next use.
steps = st.lists(
    st.tuples(st.integers(0, 3),
              st.one_of(
                  st.tuples(st.just("r"), st.sampled_from(KEYS)),
                  st.tuples(st.just("w"), st.sampled_from(KEYS)),
                  st.tuples(st.just("c"), st.none()))),
    min_size=4, max_size=40)

ENGINES = [
    ("mvtl-to", lambda h: MVTLEngine(MVTLTimestampOrdering(), history=h,
                                     default_timeout=1.0)),
    ("ghostbuster", lambda h: MVTLEngine(MVTLGhostbuster(), history=h,
                                         default_timeout=1.0)),
    ("pessimistic", lambda h: MVTLEngine(MVTLPessimistic(), history=h,
                                         default_timeout=1.0)),
    ("pref", lambda h: MVTLEngine(MVTLPreferential(), history=h,
                                  default_timeout=1.0)),
    ("prio", lambda h: MVTLEngine(MVTLPrioritizer(), history=h,
                                  default_timeout=1.0)),
    ("eps-clock", lambda h: MVTLEngine(MVTLEpsilonClock(2.0), history=h,
                                       default_timeout=1.0)),
    ("mvtil", lambda h: MVTLEngine(MVTIL(delta=10.0), history=h,
                                   default_timeout=1.0)),
    ("mvto+", lambda h: MVTOEngine(history=h)),
    ("2pl", lambda h: TwoPLEngine(history=h, lock_timeout=0.05)),
]


def run_schedule(make_engine, schedule):
    history = HistoryRecorder()
    engine = make_engine(history)
    sessions: dict[int, object] = {}
    value = 0
    for session, (kind, key) in schedule:
        tx = sessions.get(session)
        if tx is None or not tx.is_active:
            tx = sessions[session] = engine.begin(
                pid=session + 1, priority=(session == 0))
        try:
            if kind == "r":
                engine.read(tx, key)
            elif kind == "w":
                value += 1
                engine.write(tx, key, value)
            else:
                engine.commit(tx)
                sessions[session] = None
        except TransactionAborted:
            sessions[session] = None
    # Commit whatever is still open (ignore failures).
    for tx in sessions.values():
        if tx is not None and tx.is_active:
            try:
                engine.commit(tx)
            except TransactionAborted:
                pass
    return history


@pytest.mark.parametrize("name,make", ENGINES, ids=[n for n, _ in ENGINES])
@given(schedule=steps)
@settings(max_examples=25, deadline=None)
def test_any_schedule_serializable(name, make, schedule):
    history = run_schedule(make, schedule)
    report = check_serializable(history)
    assert report.serializable, (name, report.error, report.cycle)
