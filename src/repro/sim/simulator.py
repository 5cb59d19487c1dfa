"""Discrete-event simulation kernel.

The paper's evaluation ran a C++/Thrift prototype on physical testbeds; this
substrate replaces machines, threads and wires with a deterministic event
loop (see DESIGN.md §2 for why this substitution preserves the phenomena the
figures measure).  The kernel is deliberately tiny:

* :class:`Simulator` — a time-ordered event heap with ``schedule`` / ``run``;
* :class:`Process` — a generator-coroutine driven by the simulator; client
  logic is written as ordinary sequential code that ``yield``s effects;
* effects — :class:`Sleep`, :class:`Recv` (on a :class:`Mailbox`, with
  optional timeout), :class:`WaitEvent` on a :class:`SimEvent`.

Servers do not need coroutines: they are message-driven state machines (see
:mod:`repro.dist.server`) invoked as plain callbacks.

Determinism: events at equal times fire in schedule order (a monotone
sequence number breaks ties), and all randomness comes from
:class:`repro.sim.rng.RngFactory`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator

__all__ = ["Simulator", "Process", "Mailbox", "SimEvent", "Sleep", "Recv",
           "WaitEvent", "RECV_TIMEOUT"]


class _TimeoutSentinel:
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "RECV_TIMEOUT"


#: Returned by a timed-out ``Recv``.
RECV_TIMEOUT = _TimeoutSentinel()


@dataclass(unsafe_hash=True, slots=True)
class Sleep:
    """Effect: resume the process after ``delay`` simulated seconds."""

    delay: float


@dataclass(unsafe_hash=True, slots=True)
class Recv:
    """Effect: resume with the next message from ``mailbox``.

    With a ``timeout``, resumes with :data:`RECV_TIMEOUT` if nothing arrives
    in time.
    """

    mailbox: "Mailbox"
    timeout: float | None = None


@dataclass(unsafe_hash=True, slots=True)
class WaitEvent:
    """Effect: resume (with the event's value) once ``event`` is set."""

    event: "SimEvent"


class Simulator:
    """The event loop: a heap of ``(time, seq, callback)`` entries."""

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap entries are (time, seq, fn, args).  seq is unique, so tuple
        # comparison is settled before ever reaching fn/args — callables and
        # arbitrary payloads need not be comparable.
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self.events_processed: int = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def reserve(self, delay: float) -> tuple[float, int]:
        """Take the ``(time, seq)`` key ``schedule(delay, ...)`` would push
        at now, without pushing anything.

        A timer that is not its owner's next deadline waits outside the
        heap and is pushed later with :meth:`schedule_at`.  Heap order is
        decided by keys alone, so it pops exactly where it would have had
        it been pushed now — as long as it is pushed before any event with
        a later key pops.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        seq = self._seq
        self._seq = seq + 1
        return self.now + delay, seq

    def schedule_at(self, when: float, seq: int,
                    fn: Callable[[], None]) -> None:
        """Push ``fn()`` at a key taken earlier by :meth:`reserve`."""
        heappush(self._heap, (when, seq, fn, ()))

    def spawn(self, gen: Generator[Any, Any, Any],
              name: str = "proc") -> "Process":
        """Start a coroutine process; its first step runs at the current time."""
        proc = Process(self, gen, name)
        self._processes.append(proc)
        self.schedule(0.0, proc._step, None)
        return proc

    # -- running -----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Process events up to and including time ``t_end``."""
        heap = self._heap
        pop = heappop
        fired = 0
        try:
            while heap and heap[0][0] <= t_end:
                when, _seq, fn, args = pop(heap)
                self.now = when
                fn(*args)
                fired += 1
        finally:
            self.events_processed += fired
        if self.now < t_end:
            self.now = t_end

    def run(self, max_events: int | None = None) -> None:
        """Run until the event heap drains (or ``max_events`` fired)."""
        fired = 0
        heap = self._heap
        pop = heappop
        try:
            while heap and (max_events is None or fired < max_events):
                when, _seq, fn, args = pop(heap)
                self.now = when
                fn(*args)
                fired += 1
        finally:
            self.events_processed += fired

    @property
    def pending_events(self) -> int:
        return len(self._heap)


class Process:
    """A generator coroutine driven by the simulator.

    The generator yields effect objects (:class:`Sleep`, :class:`Recv`,
    :class:`WaitEvent`) and is resumed with the effect's result.  Exceptions
    raised by the generator propagate out of the event loop — a crashing
    process is a bug, not a simulated failure (simulated crashes are modelled
    explicitly, by stopping message delivery).
    """

    __slots__ = ("sim", "name", "_gen", "done", "_cancelled")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any],
                 name: str) -> None:
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done = False
        self._cancelled = False

    def cancel(self) -> None:
        """Stop the process; it never resumes (models a client crash)."""
        self._cancelled = True
        self.done = True

    def _step(self, value: Any) -> None:
        if self.done:
            return
        try:
            effect = self._gen.send(value)
        except StopIteration:
            self.done = True
            return
        self._register(effect)

    def _register(self, effect: Any) -> None:
        # Exact-type dispatch first (the effect classes are final in
        # practice); isinstance only on the cold fallback path.
        cls = effect.__class__
        if cls is Recv:
            effect.mailbox._register(self, effect.timeout)
        elif cls is Sleep:
            self.sim.schedule(effect.delay, self._step, None)
        elif cls is WaitEvent:
            effect.event._register(self)
        elif isinstance(effect, Sleep):
            self.sim.schedule(effect.delay, self._step, None)
        elif isinstance(effect, Recv):
            effect.mailbox._register(self, effect.timeout)
        elif isinstance(effect, WaitEvent):
            effect.event._register(self)
        else:
            raise TypeError(f"process {self.name} yielded non-effect "
                            f"{effect!r}")


class Mailbox:
    """A FIFO message queue a process can ``Recv`` on.

    At most one process may wait at a time (each client owns its mailbox).
    A timed ``Recv`` reserves its deadline key from the simulator when it
    starts waiting (:meth:`Simulator.reserve`), but pushes a heap entry
    only if none of this mailbox's entries would pop before it.  When an
    entry pops it times out the wait that reserved it, or — that wait was
    answered — re-arms at the live wait's key.  Most waits are answered
    long before their deadline, so a mailbox keeps one entry in the heap
    instead of one per ``Recv``, and a wait that does time out still fires
    at exactly the key it reserved.
    """

    __slots__ = ("sim", "_queue", "_waiter", "_deadline", "_armed")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # deque: a backlogged mailbox drains from the left once per Recv,
        # and list.pop(0) is O(n) exactly when the backlog is deep.
        self._queue: deque[Any] = deque()
        self._waiter: Process | None = None
        #: Reserved ``(time, seq)`` key of the live wait's timeout; None
        #: when no timed wait is live.
        self._deadline: tuple[float, int] | None = None
        #: Keys of this mailbox's heap entries, the next to pop last.  A
        #: key is appended only below every armed one (a wait shorter than
        #: those armed), so the list stays sorted; it rarely holds more
        #: than the two timeouts a client mixes.
        self._armed: list[tuple[float, int]] = []

    def deliver(self, msg: Any) -> None:
        """Enqueue ``msg``; wakes the waiting process, if any."""
        if self._waiter is not None:
            proc = self._waiter
            self._waiter = None
            self._deadline = None  # the armed entry will find no wait
            self.sim.schedule(0.0, proc._step, msg)
        else:
            self._queue.append(msg)

    def _register(self, proc: Process, timeout: float | None) -> None:
        if self._queue:
            self.sim.schedule(0.0, proc._step, self._queue.popleft())
            return
        if self._waiter is not None:
            raise RuntimeError("mailbox already has a waiting process")
        self._waiter = proc
        if timeout is not None:
            key = self._deadline = self.sim.reserve(timeout)
            armed = self._armed
            if not armed or key < armed[-1]:
                armed.append(key)
                self.sim.schedule_at(key[0], key[1], self._expire)

    def _expire(self) -> None:
        """An armed entry popped: time out its wait, or re-arm."""
        armed = self._armed
        key = armed.pop()
        deadline = self._deadline
        if deadline is None:
            return
        if deadline == key:
            proc = self._waiter
            self._waiter = None
            self._deadline = None
            proc._step(RECV_TIMEOUT)
        elif not armed or deadline < armed[-1]:
            # The wait that reserved ``key`` was answered; the live one's
            # key is later, so pushing it now keeps its place in the order.
            armed.append(deadline)
            self.sim.schedule_at(deadline[0], deadline[1], self._expire)

    def __len__(self) -> int:
        return len(self._queue)


class SimEvent:
    """A one-shot event processes can wait on (commitment decisions etc.)."""

    __slots__ = ("sim", "_set", "value", "_waiters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._set = False
        self.value: Any = None
        self._waiters: list[Process] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, value: Any = None) -> None:
        """Set the event (idempotent; later calls are ignored)."""
        if self._set:
            return
        self._set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim.schedule(0.0, proc._step, value)

    def _register(self, proc: Process) -> None:
        if self._set:
            self.sim.schedule(0.0, proc._step, self.value)
        else:
            self._waiters.append(proc)
