"""Tests for the DES kernel: event ordering, processes, mailboxes, events."""

import pytest

from repro.sim.simulator import (RECV_TIMEOUT, Mailbox, Recv, SimEvent,
                                 Simulator, Sleep, WaitEvent)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_and_sets_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestProcesses:
    def test_sleep_sequences(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield Sleep(2.0)
            trace.append(("mid", sim.now))
            yield Sleep(3.0)
            trace.append(("end", sim.now))

        sim.spawn(proc())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_cancel_stops_process(self):
        sim = Simulator()
        trace = []

        def proc():
            yield Sleep(1.0)
            trace.append("a")
            yield Sleep(5.0)
            trace.append("never")

        p = sim.spawn(proc())
        sim.schedule(2.0, p.cancel)
        sim.run()
        assert trace == ["a"]
        assert p.done

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def proc():
            yield "not-an-effect"

        sim.spawn(proc())
        with pytest.raises(TypeError):
            sim.run()


class TestMailbox:
    def test_deliver_before_recv(self):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            msg = yield Recv(box)
            got.append(msg)

        box.deliver("early")
        sim.spawn(proc())
        sim.run()
        assert got == ["early"]

    def test_recv_blocks_until_delivery(self):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            msg = yield Recv(box)
            got.append((msg, sim.now))

        sim.spawn(proc())
        sim.schedule(4.0, box.deliver, "late")
        sim.run()
        assert got == [("late", 4.0)]

    def test_fifo_order(self):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            for _ in range(3):
                got.append((yield Recv(box)))

        for m in (1, 2, 3):
            box.deliver(m)
        sim.spawn(proc())
        sim.run()
        assert got == [1, 2, 3]

    def test_timeout_fires(self):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            msg = yield Recv(box, timeout=2.0)
            got.append((msg, sim.now))

        sim.spawn(proc())
        sim.run()
        assert got == [(RECV_TIMEOUT, 2.0)]

    def test_message_beats_timeout(self):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            msg = yield Recv(box, timeout=5.0)
            got.append(msg)

        sim.spawn(proc())
        sim.schedule(1.0, box.deliver, "fast")
        sim.run()
        assert got == ["fast"]

    def test_stale_timer_does_not_break_later_recv(self):
        """A timer from an earlier Recv must not time out a later one."""
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            m1 = yield Recv(box, timeout=10.0)   # resolved at t=1
            got.append(m1)
            m2 = yield Recv(box, timeout=30.0)   # old timer fires at t=10
            got.append(m2)

        sim.spawn(proc())
        sim.schedule(1.0, box.deliver, "a")
        sim.schedule(20.0, box.deliver, "b")
        sim.run()
        assert got == ["a", "b"]

    def test_rearmed_timeout_keeps_its_place_among_same_instant_events(self):
        """The first wait's timer is the only heap entry; when it pops
        after that wait was answered it re-arms the second wait's timeout
        at the key reserved when that wait began — ahead of a probe
        scheduled later for the same instant."""
        sim = Simulator()
        box = Mailbox(sim)
        log = []

        def proc():
            yield Recv(box, timeout=0.5)
            log.append(("reply", sim.now))
            msg = yield Recv(box, timeout=1.0)   # deadline 1.0, re-armed
            log.append((msg, sim.now))

        sim.spawn(proc())
        sim.run_until(0.0)
        box.deliver("a")
        sim.run_until(0.0)
        assert sim.pending_events == 1
        sim.schedule(1.0, log.append, ("probe", 1.0))
        sim.run()
        assert log == [("reply", 0.0), (RECV_TIMEOUT, 1.0), ("probe", 1.0)]

    def test_answered_wait_tied_with_the_live_deadline_does_not_fire_it(self):
        """Two waits whose deadlines share an instant: the answered one's
        timer pops first and is a no-op; a delivery scheduled between the
        two reservations still beats the live timeout."""
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            got.append((yield Recv(box, timeout=1.0)))   # deadline 1.0
            sim.schedule(0.5, box.deliver, "tie")        # lands at 1.0
            got.append((yield Recv(box, timeout=0.5)))   # deadline 1.0
            got.append(sim.now)

        sim.spawn(proc())
        sim.schedule(0.5, box.deliver, "a")
        sim.run()
        assert got == ["a", "tie", 1.0]

    def test_short_wait_after_long_one_times_out_on_time(self):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def proc():
            yield Recv(box, timeout=64.0)
            msg = yield Recv(box, timeout=0.25)
            got.append((msg, sim.now))

        sim.spawn(proc())
        sim.schedule(1.0, box.deliver, "a")
        sim.schedule(2.0, got.append, "probe")
        sim.run()
        assert got == [(RECV_TIMEOUT, 1.25), "probe"]

    def test_answered_waits_keep_one_timer_in_the_heap(self):
        sim = Simulator()
        box = Mailbox(sim)

        def proc():
            for _ in range(100):
                yield Recv(box, timeout=5.0)

        sim.spawn(proc())
        for i in range(100):
            sim.schedule(0.01 * (i + 1), box.deliver, i)
        sim.run_until(0.5)
        assert sim.pending_events == 51  # 50 deliveries + one timer
        sim.run()
        assert sim.events_processed == 1 + 100 + 100 + 1

    def test_double_waiter_rejected(self):
        sim = Simulator()
        box = Mailbox(sim)

        def proc():
            yield Recv(box)

        sim.spawn(proc())
        sim.spawn(proc())
        with pytest.raises(RuntimeError):
            sim.run()


class TestSimEvent:
    def test_wait_then_set(self):
        sim = Simulator()
        ev = SimEvent(sim)
        got = []

        def proc():
            val = yield WaitEvent(ev)
            got.append((val, sim.now))

        sim.spawn(proc())
        sim.schedule(3.0, ev.set, "done")
        sim.run()
        assert got == [("done", 3.0)]

    def test_set_before_wait(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.set(42)
        got = []

        def proc():
            got.append((yield WaitEvent(ev)))

        sim.spawn(proc())
        sim.run()
        assert got == [42]

    def test_set_idempotent(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.set(1)
        ev.set(2)
        assert ev.value == 1

    def test_multiple_waiters(self):
        sim = Simulator()
        ev = SimEvent(sim)
        got = []

        def proc(name):
            val = yield WaitEvent(ev)
            got.append((name, val))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.schedule(1.0, ev.set, "x")
        sim.run()
        assert sorted(got) == [("a", "x"), ("b", "x")]


class TestEventCounterAndHeapSafety:
    def test_events_processed_counts_fired_events(self):
        sim = Simulator()
        assert sim.events_processed == 0
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run_until(3.0)
        assert sim.events_processed == 3
        sim.run()
        assert sim.events_processed == 5

    @pytest.mark.parametrize("drive", [
        lambda sim: sim.run(),
        lambda sim: sim.run_until(10.0),
    ], ids=["run", "run_until"])
    def test_events_fired_before_a_raising_handler_are_counted(self, drive):
        # A crashing callback is a bug that propagates out of the loop; the
        # counter must still cover what fired in that call (the raising
        # event itself is not counted) and the loop must stay resumable.
        sim = Simulator()

        def boom():
            raise RuntimeError("handler bug")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, boom)
        sim.schedule(4.0, lambda: None)
        with pytest.raises(RuntimeError):
            drive(sim)
        assert sim.events_processed == 2
        drive(sim)
        assert sim.events_processed == 3

    def test_simultaneous_events_with_non_comparable_args(self):
        # Heap entries are (time, seq, fn, args); seq uniqueness means fn
        # and args are never compared, so scheduling non-orderable payloads
        # at the same instant must not raise.
        sim = Simulator()
        fired = []

        class Opaque:  # no __lt__
            pass

        for i in range(3):
            sim.schedule(1.0, lambda obj, i=i: fired.append(i), Opaque())
        sim.run()
        assert fired == [0, 1, 2]


class TestRunBudget:
    def test_max_events_is_checked_before_popping(self):
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.schedule(1.0, fired.append, i)
        sim.run(max_events=0)
        assert fired == [] and sim.pending_events == 3
        sim.run(max_events=2)
        assert fired == [0, 1] and sim.events_processed == 2
        sim.run()
        assert fired == [0, 1, 2] and sim.events_processed == 3
