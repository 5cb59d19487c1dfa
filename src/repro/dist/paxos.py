"""Single-decree Paxos over the simulated network (§H.1).

The commitment object of §7 is consensus on a transaction's outcome.  When
storage servers are replicated (the common production case) a trivially
linearizable in-sim object models it (:mod:`repro.dist.commitment`).  When
*servers themselves may fail*, §H.1 prescribes "a Paxos-like consensus
protocol ..., with all the servers in the system as participants".  This
module provides that substrate:

* :class:`PaxosAcceptor` — the acceptor role, one per participant node,
  keeping per-transaction ``(promised, accepted)`` state and answering
  prepare/accept messages;
* :class:`PaxosConsensus` — configuration (acceptor set, quorum) plus the
  learned-decision cache, and the proposer logic as a simulation coroutine:
  classic two-phase Paxos with ballot escalation and randomized backoff on
  conflict, tolerating any minority of crashed acceptors.

Decisions are per-transaction instances of the §7 outcome domain: the
string ``"abort"`` or a commit :class:`~repro.core.timestamp.Timestamp`.
Safety is Paxos's: once any value is chosen by a quorum, every later
proposal decides the same value, no matter which coordinators or servers
crash or duel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Generator, Hashable

import numpy as np

from ..sim.network import Network
from ..sim.simulator import RECV_TIMEOUT, Mailbox, Recv, Simulator

__all__ = ["Ballot", "PaxosAcceptor", "PaxosConsensus"]

#: Seconds a proposer waits for a quorum in each phase before backing off.
PHASE_TIMEOUT = 0.05


@dataclass(frozen=True, slots=True, order=True)
class Ballot:
    """A totally ordered ballot number: (round, proposer id)."""

    round: int
    proposer: int


# -- wire messages -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Prepare:
    tx_id: Hashable
    ballot: Ballot
    reply_to: Hashable


@dataclass(frozen=True, slots=True)
class _Promise:
    tx_id: Hashable
    ballot: Ballot
    accepted_ballot: Ballot | None
    accepted_value: Any
    acceptor: Hashable


@dataclass(frozen=True, slots=True)
class _PrepareNack:
    tx_id: Hashable
    ballot: Ballot
    promised: Ballot


@dataclass(frozen=True, slots=True)
class _Accept:
    tx_id: Hashable
    ballot: Ballot
    value: Any
    reply_to: Hashable


@dataclass(frozen=True, slots=True)
class _Accepted:
    tx_id: Hashable
    ballot: Ballot
    acceptor: Hashable


@dataclass(frozen=True, slots=True)
class _AcceptNack:
    tx_id: Hashable
    ballot: Ballot
    promised: Ballot


@dataclass(slots=True)
class _AcceptorSlot:
    promised: Ballot | None = None
    accepted_ballot: Ballot | None = None
    accepted_value: Any = None


class PaxosAcceptor:
    """The acceptor role for all transactions, at one network node."""

    def __init__(self, sim: Simulator, net: Network,
                 node_id: Hashable) -> None:
        self.sim = sim
        self.net = net
        self.node_id = node_id
        self.crashed = False
        self._slots: dict[Hashable, _AcceptorSlot] = {}
        net.register(node_id, self.on_message)

    def crash(self) -> None:
        """Fail-stop: stop answering (messages to us vanish)."""
        if self.crashed:
            return
        self.crashed = True
        self.net.unregister(self.node_id)

    def restart(self) -> None:
        """Rejoin.  Promises/accepts are durable (Paxos requires acceptors
        to persist them across crashes), so ``_slots`` survives."""
        if not self.crashed:
            return
        self.crashed = False
        self.net.register(self.node_id, self.on_message)

    def _slot(self, tx_id: Hashable) -> _AcceptorSlot:
        slot = self._slots.get(tx_id)
        if slot is None:
            slot = self._slots[tx_id] = _AcceptorSlot()
        return slot

    def on_message(self, msg: Any) -> None:
        if isinstance(msg, _Prepare):
            slot = self._slot(msg.tx_id)
            if slot.promised is None or msg.ballot > slot.promised:
                slot.promised = msg.ballot
                reply = _Promise(msg.tx_id, msg.ballot,
                                 slot.accepted_ballot, slot.accepted_value,
                                 self.node_id)
            else:
                reply = _PrepareNack(msg.tx_id, msg.ballot, slot.promised)
            self.net.send(msg.reply_to, reply, src=self.node_id)
        elif isinstance(msg, _Accept):
            slot = self._slot(msg.tx_id)
            if slot.promised is None or msg.ballot >= slot.promised:
                slot.promised = msg.ballot
                slot.accepted_ballot = msg.ballot
                slot.accepted_value = msg.value
                reply = _Accepted(msg.tx_id, msg.ballot, self.node_id)
            else:
                reply = _AcceptNack(msg.tx_id, msg.ballot, slot.promised)
            self.net.send(msg.reply_to, reply, src=self.node_id)
        # Unknown messages are ignored (stale replies etc.).

    def forget(self, tx_id: Hashable) -> None:
        """Drop per-transaction state (after the decision is durable)."""
        self._slots.pop(tx_id, None)


class PaxosConsensus:
    """Proposer logic + learned-decision cache over a set of acceptors."""

    def __init__(self, sim: Simulator, net: Network,
                 acceptors: list[Hashable],
                 rng: np.random.Generator | None = None) -> None:
        if not acceptors:
            raise ValueError("need at least one acceptor")
        self.sim = sim
        self.net = net
        self.acceptors = list(acceptors)
        self.quorum = len(self.acceptors) // 2 + 1
        self._rng = rng if rng is not None else np.random.default_rng()
        #: tx -> decided outcome, once learned by any proposer.
        self.learned: dict[Hashable, Any] = {}
        self._proposal_seq = count(1)
        #: decisions observed, for metrics/tests.
        self.stats = {"proposals": 0, "rounds": 0}

    def decided(self, tx_id: Hashable) -> Any | None:
        return self.learned.get(tx_id)

    def propose(self, tx_id: Hashable, value: Any, proposer_id: int,
                ) -> Generator[Any, Any, Any]:
        """Simulation coroutine: run Paxos for ``tx_id`` proposing ``value``.

        Returns the decided outcome (possibly another proposer's value).
        Terminates once a quorum of acceptors is reachable; with a crashed
        minority it still decides, with a crashed majority it retries
        forever (consensus is impossible then — the §H model assumes a
        correct majority).
        """
        cached = self.learned.get(tx_id)
        if cached is not None:
            return cached
        self.stats["proposals"] += 1
        node_id = f"paxos-proposer-{next(self._proposal_seq)}"
        mailbox = Mailbox(self.sim)
        self.net.register(node_id, mailbox.deliver)
        try:
            decision = yield from self._run(tx_id, value, proposer_id,
                                            node_id, mailbox)
        finally:
            self.net.unregister(node_id)
        self.learned[tx_id] = decision
        return decision

    def _run(self, tx_id: Hashable, value: Any, proposer_id: int,
             node_id: Hashable, mailbox: Mailbox
             ) -> Generator[Any, Any, Any]:
        round_no = 0
        while True:
            cached = self.learned.get(tx_id)
            if cached is not None:
                return cached
            round_no += 1
            self.stats["rounds"] += 1
            ballot = Ballot(round_no, proposer_id)

            # Phase 1: prepare / promise.
            for acceptor in self.acceptors:
                self.net.send(acceptor,
                              _Prepare(tx_id, ballot, node_id),
                              src=node_id)
            promises: list[_Promise] = []
            highest_nack = None
            deadline = self.sim.now + PHASE_TIMEOUT
            while (len(promises) < self.quorum
                   and self.sim.now < deadline):
                msg = yield Recv(mailbox, timeout=deadline - self.sim.now)
                if msg is RECV_TIMEOUT:
                    break
                if (isinstance(msg, _Promise) and msg.tx_id == tx_id
                        and msg.ballot == ballot):
                    promises.append(msg)
                elif (isinstance(msg, _PrepareNack) and msg.tx_id == tx_id
                      and msg.ballot == ballot):
                    highest_nack = (msg.promised if highest_nack is None
                                    else max(highest_nack, msg.promised))
            if len(promises) < self.quorum:
                round_no = max(round_no,
                               highest_nack.round if highest_nack else 0)
                yield from self._backoff(round_no)
                continue

            # Adopt the highest previously accepted value, if any.
            chosen = value
            best: Ballot | None = None
            for promise in promises:
                if (promise.accepted_ballot is not None
                        and (best is None or promise.accepted_ballot > best)):
                    best = promise.accepted_ballot
                    chosen = promise.accepted_value

            # Phase 2: accept / accepted.
            for acceptor in self.acceptors:
                self.net.send(acceptor,
                              _Accept(tx_id, ballot, chosen, node_id),
                              src=node_id)
            accepted = 0
            deadline = self.sim.now + PHASE_TIMEOUT
            while accepted < self.quorum and self.sim.now < deadline:
                msg = yield Recv(mailbox, timeout=deadline - self.sim.now)
                if msg is RECV_TIMEOUT:
                    break
                if (isinstance(msg, _Accepted) and msg.tx_id == tx_id
                        and msg.ballot == ballot):
                    accepted += 1
                elif (isinstance(msg, _AcceptNack) and msg.tx_id == tx_id
                      and msg.ballot == ballot):
                    round_no = max(round_no, msg.promised.round)
            if accepted >= self.quorum:
                return chosen
            yield from self._backoff(round_no)

    def _backoff(self, round_no: int) -> Generator[Any, Any, None]:
        from ..sim.simulator import Sleep
        base = PHASE_TIMEOUT * 0.5
        yield Sleep(float(self._rng.uniform(0.2, 1.0)) * base
                    * min(8, round_no))
