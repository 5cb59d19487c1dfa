"""Commitment object (consensus) tests (§7, §H)."""

import pytest

from repro.core.timestamp import Timestamp
from repro.dist.commitment import ABORT, CommitmentObject, CommitmentRegistry
from repro.sim.simulator import Simulator, WaitEvent


class TestCommitmentObject:
    def test_first_proposal_wins(self):
        sim = Simulator()
        obj = CommitmentObject(sim, "tx1")
        ts = Timestamp(5.0, 1)
        assert obj.propose(ts) == ts
        assert obj.propose(ABORT) == ts       # agreement: same decision
        assert obj.decision == ts

    def test_abort_first(self):
        sim = Simulator()
        obj = CommitmentObject(sim, "tx1")
        assert obj.propose(ABORT) == ABORT
        assert obj.propose(Timestamp(1.0, 0)) == ABORT

    def test_invalid_outcome_rejected(self):
        sim = Simulator()
        obj = CommitmentObject(sim, "tx1")
        with pytest.raises(ValueError):
            obj.propose("commit")  # must be ABORT or a Timestamp

    def test_decision_event_wakes_waiters(self):
        sim = Simulator()
        obj = CommitmentObject(sim, "tx1")
        got = []

        def proc():
            outcome = yield WaitEvent(obj.decision_event)
            got.append(outcome)

        sim.spawn(proc())
        sim.schedule(1.0, obj.propose, ABORT)
        sim.run()
        assert got == [ABORT]

    def test_integrity_decides_once(self):
        sim = Simulator()
        obj = CommitmentObject(sim, "tx1")
        a = obj.propose(Timestamp(1.0, 0))
        b = obj.propose(Timestamp(2.0, 0))
        assert a == b == Timestamp(1.0, 0)


class TestCommitmentRegistry:
    def test_get_is_idempotent(self):
        sim = Simulator()
        reg = CommitmentRegistry(sim)
        assert reg.get("t1") is reg.get("t1")
        assert reg.get("t1") is not reg.get("t2")

    def test_decision_point_first_wins(self):
        sim = Simulator()
        reg = CommitmentRegistry(sim)
        reg.set_decision_point("t1", "server-0")
        reg.set_decision_point("t1", "server-9")
        assert reg.decision_point["t1"] == "server-0"

    def test_forget(self):
        sim = Simulator()
        reg = CommitmentRegistry(sim)
        reg.get("t1").propose(ABORT)
        reg.set_decision_point("t1", "s")
        reg.forget("t1")
        assert len(reg) == 0

    def test_forget_keeps_decision_tombstone(self):
        # A decided outcome must survive forget: a server write-lock
        # timeout that fires after the coordinator moved on proposes ABORT
        # fresh, and without the tombstone it would *decide* it — a partial
        # commit if the real decision was a commit timestamp.
        sim = Simulator()
        reg = CommitmentRegistry(sim)
        ts = Timestamp(3.0, 1)
        reg.get("t1").propose(ts)
        reg.forget("t1")
        assert len(reg) == 0
        obj = reg.get("t1")
        assert obj.decided
        assert obj.propose(ABORT) == ts

    def test_forget_undecided_leaves_no_tombstone(self):
        sim = Simulator()
        reg = CommitmentRegistry(sim)
        reg.get("t1")  # never decided
        reg.forget("t1")
        assert not reg.get("t1").decided
