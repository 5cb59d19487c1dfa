"""Reference model for the mailbox differential suite.

This is :class:`repro.sim.simulator.Mailbox` exactly as it stood before
the live-only event heap: every timed ``Recv`` pushes its own timer, and a
*wait token* that advances whenever a wait ends turns every stale timer
into a no-op event.  It is wasteful and obviously right, which is the
point: ``tests/sim/test_mailbox_differential.py`` drives it and the real
mailbox in lockstep and compares every resume value and time and the fire
order of the events around them — the way ``tests/core/lock_model.py``
serves the lock table.

Only the class body lives here; ``Process`` and ``RECV_TIMEOUT`` come from
the module under test, so a model mailbox runs on the real simulator and
results compare by plain equality.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.simulator import RECV_TIMEOUT, Process, Simulator


class Mailbox:
    """A FIFO message queue a process can ``Recv`` on.

    At most one process may wait at a time (each client owns its mailbox).
    A waiting ``Recv`` with a timeout is guarded by a *wait token*: the token
    advances whenever the wait ends (message or new registration), so a
    stale timer from an earlier ``Recv`` can never interrupt a later one.
    """

    __slots__ = ("sim", "_queue", "_waiter", "_wait_token")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # deque: a backlogged mailbox drains from the left once per Recv,
        # and list.pop(0) is O(n) exactly when the backlog is deep.
        self._queue: deque[Any] = deque()
        self._waiter: Process | None = None
        self._wait_token = 0

    def deliver(self, msg: Any) -> None:
        """Enqueue ``msg``; wakes the waiting process, if any."""
        if self._waiter is not None:
            proc = self._waiter
            self._waiter = None
            self._wait_token += 1  # invalidate any pending timeout
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
        self._wait_token += 1
        if timeout is not None:
            # Bound method + args instead of a per-Recv closure: RPC-heavy
            # clients register a timed Recv per reply awaited.
            self.sim.schedule(timeout, self._on_timeout, proc,
                              self._wait_token)

    def _on_timeout(self, proc: Process, token: int) -> None:
        if self._waiter is proc and self._wait_token == token:
            self._waiter = None
            self._wait_token += 1
            proc._step(RECV_TIMEOUT)

    def __len__(self) -> int:
        return len(self._queue)
