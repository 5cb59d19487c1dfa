"""Rule-based differential testing of the simulator's mailbox.

Hypothesis drives two worlds in lockstep.  Each world is a fresh
:class:`~repro.sim.simulator.Simulator` with one mailbox, one worker
process that ``Recv``s on it under a planned sequence of timeouts, and a
log.  One world's mailbox is the reference model
(``tests/sim/mailbox_model.py``: one timer per timed ``Recv``, stale timers
pop as no-ops), the other's is :class:`repro.sim.simulator.Mailbox`.  The
rules plan waits without a timeout, with long and short timeouts and with
a long one followed by a short one; deliver messages at the current
instant and at later (grid or arbitrary) instants; schedule probe events
in between; cancel the waiting worker; and advance time on the grid.
Timeouts and grid delays are dyadic, so deadlines tie exactly with each
other, with deliveries and with probes — and the worker schedules probes
at grid offsets every time it resumes, so some of them are reserved
between one wait's deadline and the next's.

After every rule both logs — every resume value and its time, every probe
and its time, in global fire order — must be equal, as must the clock, the
backlog and whether a process is waiting.  The real world may hold and
pop fewer heap events than the model (that is the point of the live-only
heap), never more.
"""

from collections import deque
from itertools import count

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.sim.simulator import Mailbox, Recv, Simulator
from tests.sim import mailbox_model

#: Dyadic timeouts: sums of them and of GRID delays are exact floats.
LONG = st.sampled_from([4.0, 8.0, 64.0])
SHORT = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
TIMEOUTS = st.one_of(st.none(), LONG, SHORT)
GRID_VALUES = [0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
GRID = st.sampled_from(GRID_VALUES)
PROBE_DELAYS = (0.125, 0.25, 0.5, 1.0, 4.0)
DELAYS = st.one_of(GRID, st.floats(min_value=0.0, max_value=16.0,
                                   allow_nan=False, allow_infinity=False))


class World:
    """A simulator, one mailbox of ``mailbox_cls`` and a worker process."""

    def __init__(self, mailbox_cls) -> None:
        self.sim = Simulator()
        self.box = mailbox_cls(self.sim)
        self.log: list[tuple] = []
        self.plan: deque[float | None] = deque()
        self.worker = None

    def _work(self):
        resumes = count()
        while self.plan:
            msg = yield Recv(self.box, self.plan.popleft())
            self.log.append(("resume", self.sim.now, msg))
            # Probes reserved between the wait just ended and the next
            # one land on the same instants as both deadlines.
            n = next(resumes)
            for delay in PROBE_DELAYS:
                self.sim.schedule(delay, self.probe, ("after", n, delay))

    def plan_waits(self, timeouts: list) -> None:
        self.plan.extend(timeouts)
        # A cancelled worker may still be registered as the waiter until a
        # delivery or its timeout clears it; a new worker waits for that.
        if ((self.worker is None or self.worker.done)
                and self.box._waiter is None):
            self.worker = self.sim.spawn(self._work())

    def probe(self, label: object) -> None:
        self.log.append(("probe", self.sim.now, label))

    def cancel(self) -> None:
        self.worker.cancel()
        self.log.append(("cancel", self.sim.now))


class MailboxMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model = World(mailbox_model.Mailbox)
        self.real = World(Mailbox)
        self.labels = count()

    @property
    def worlds(self) -> tuple[World, World]:
        return self.model, self.real

    @rule(timeouts=st.lists(TIMEOUTS, min_size=1, max_size=4))
    def recv(self, timeouts):
        for w in self.worlds:
            w.plan_waits(timeouts)

    @rule(long=LONG, short=SHORT)
    def recv_long_then_short(self, long, short):
        for w in self.worlds:
            w.plan_waits([long, short])

    @rule(n=st.integers(1, 3))
    def deliver_now(self, n):
        msgs = [next(self.labels) for _ in range(n)]
        for w in self.worlds:
            for msg in msgs:
                w.box.deliver(msg)

    @rule(delay=DELAYS, n=st.integers(1, 2))
    def deliver_later(self, delay, n):
        msgs = [next(self.labels) for _ in range(n)]
        for w in self.worlds:
            for msg in msgs:
                w.sim.schedule(delay, w.box.deliver, msg)

    @rule(delay=DELAYS)
    def probe(self, delay):
        label = next(self.labels)
        for w in self.worlds:
            w.sim.schedule(delay, w.probe, label)

    @rule()
    def probe_grid(self):
        label = next(self.labels)
        for w in self.worlds:
            for delay in GRID_VALUES:
                w.sim.schedule(delay, w.probe, (label, delay))

    @precondition(lambda self: self.model.worker is not None
                  and not self.model.worker.done)
    @rule()
    def cancel_worker(self):
        for w in self.worlds:
            w.cancel()

    @rule(dt=GRID)
    def advance(self, dt):
        for w in self.worlds:
            w.sim.run_until(w.sim.now + dt)

    @invariant()
    def worlds_agree(self):
        model, real = self.model, self.real
        assert real.log == model.log
        assert real.sim.now == model.sim.now
        assert len(real.box) == len(model.box)
        assert (real.box._waiter is None) == (model.box._waiter is None)
        assert real.sim.pending_events <= model.sim.pending_events
        assert real.sim.events_processed <= model.sim.events_processed

    def teardown(self):
        for w in self.worlds:
            w.sim.run()
        assert self.real.log == self.model.log


MailboxMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None)
TestMailboxDifferential = MailboxMachine.TestCase
