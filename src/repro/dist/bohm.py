"""The Bohm baseline (Faleiro & Abadi) over the cluster: one sequencer node
hosting :class:`~repro.baselines.bohm.BohmEngine`, and a coordinator that
ships each pre-declared transaction to it in one RPC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Hashable, NoReturn

import numpy as np

from ..baselines.bohm import BohmEngine
from ..core.exceptions import AbortReason
from ..core.timestamp import Timestamp
from ..core.versions import VersionStore
from ..sim.network import Network
from ..sim.simulator import Simulator
from ..sim.testbed import TestbedProfile
from .client import BaseClient, Tx
from .messages import EpochReq, PurgeReq, ReleaseReq, Reply, Request
from .server import _ServerBase

__all__ = ["BohmClient", "BohmSequencerServer", "BohmSubmitReq",
           "BohmSubmitReply"]

# -- Bohm wire (deterministic batched MVCC) -----------------------------------

@dataclass(unsafe_hash=True, slots=True)
class BohmSubmitReq(Request):
    """Ship a whole pre-declared transaction to the Bohm sequencer.

    Bohm's precondition is a statically known write set, so the client
    sends the entire :class:`~repro.workload.generator.TxSpec` (ops in
    order, ``compute`` closures included — the simulated network passes
    objects by reference) in one message instead of running an interactive
    op-by-op protocol.  The sequencer assigns the total-order timestamp on
    arrival; arrival order *is* the serialization order.
    """

    spec: Any = None


@dataclass(unsafe_hash=True, slots=True)
class BohmSubmitReply(Reply):
    """Outcome of a sequenced transaction, sent when its batch executes."""

    committed: bool = False
    commit_ts: Timestamp | None = None
    abort_reason: str | None = None
    epoch: int = 0


#: Seconds between the sequencer's flushes of a partial batch.
FLUSH_INTERVAL = 0.01


class BohmClient(BaseClient):
    """Coordinator for the Bohm baseline: one submit RPC per transaction.

    Bohm is non-interactive by design — the whole pre-declared
    :class:`~repro.workload.generator.TxSpec` ships to the sequencer in a
    single :class:`BohmSubmitReq`, and the reply (sent when the
    transaction's batch executes) carries the outcome.  The runner
    drives this through :meth:`run_spec` instead of the op-by-op
    begin/read/write/commit protocol; there are no locks to release and no
    commitment object, so the failure paths reduce to aborting locally on
    an unanswered or overloaded RPC.  History recording happens inside the
    sequencer's engine (the one place that knows versions and timestamps).
    """

    name = "bohm"

    def run_spec(self, spec: Any) -> Generator[Any, Any, bool]:
        """Execute one pre-declared transaction; True on commit.

        Raises :class:`TransactionAborted` otherwise, like
        :func:`repro.workload.runner.run_tx`.
        """
        tx = Tx((self.client_id, next(self._tx_counter)),
                self._tx_deadline(), spec.critical)
        # Single sequencer: every key routes to the same server, so any
        # key (or none) picks it.
        server = self.partition.servers[0]
        self._admit(tx, server)
        req = BohmSubmitReq(tx.id, self.client_id, self._next_req(),
                            deadline=tx.deadline, critical=spec.critical,
                            spec=spec)
        reply = yield from self._rpc(server, req)
        reply = self._expect(tx, reply, AbortReason.RPC_TIMEOUT)
        if reply.committed:
            return self._committed(tx, reply.commit_ts)
        self._fail(tx, reply.abort_reason or AbortReason.USER_ABORT)

    def _fail(self, tx: Tx, reason: str) -> NoReturn:
        # No locks anywhere and no commitment object: the sequencer is the
        # single authority, so failing is purely client-local bookkeeping.
        self._abort(tx, reason)


class BohmSequencerServer(_ServerBase):
    """The Bohm baseline's single sequencing + execution node.

    Whole pre-declared transactions arrive as :class:`BohmSubmitReq`;
    arrival order at this server's service queue *is* the serialization
    order (the :class:`~repro.baselines.bohm.BohmEngine` stamps each
    submission with the next total-order timestamp).  Execution is
    batched: a batch runs when the engine's ``batch_size`` submissions
    have accumulated or when the periodic flush timer finds pending work,
    and every transaction's reply is sent at its batch's execution — the
    batching latency Bohm trades for its zero-conflict-abort guarantee.

    The dedup log in :class:`_ServerBase` keeps retried/duplicated submits
    at-least-once safe: a retry of an already-sequenced transaction never
    enters the engine twice, it just waits for (or re-receives) the cached
    reply.
    """

    def __init__(self, sim: Simulator, net: Network, server_id: Hashable,
                 profile: TestbedProfile, rng: np.random.Generator, *,
                 history: Any | None = None,
                 queue_capacity: int | None = None) -> None:
        super().__init__(sim, net, server_id, profile, rng,
                         queue_capacity=queue_capacity)
        self.engine = BohmEngine(history=history)
        #: BohmTx.id -> the submit request awaiting its batch's reply.
        self._waiting: dict[int, BohmSubmitReq] = {}
        sim.schedule(FLUSH_INTERVAL, self._flush_tick)

    @property
    def store(self) -> VersionStore:
        return self.engine.store

    _HANDLERS = {
        BohmSubmitReq: "_handle_submit",
        PurgeReq: "_handle_purge",
        EpochReq: "_handle_epoch_req",
        ReleaseReq: "_ignore",  # lock-free: nothing to release
    }

    def _handle_purge(self, req: PurgeReq) -> None:
        self.engine.purge_before(req.bound)

    def _handle_submit(self, req: BohmSubmitReq) -> None:
        tx = self.engine.submit(req.spec, pid=0)
        self._waiting[tx.id] = req
        if len(self.engine._pending) >= self.engine.batch_size:
            self._run_batch()

    def _flush_tick(self) -> None:
        if not self.crashed and self.engine._pending:
            self._run_batch()
        self.sim.schedule(FLUSH_INTERVAL, self._flush_tick)

    def _run_batch(self) -> None:
        for tx in self.engine.run_batch():
            req = self._waiting.pop(tx.id, None)
            if req is None:
                continue  # submitter unknown (crashed client cleanup)
            self._reply(req, BohmSubmitReply(
                req.req_id, committed=tx.committed,
                commit_ts=tx.ts if tx.committed else None,
                abort_reason=(str(tx.abort_reason)
                              if tx.abort_reason is not None else None),
                epoch=self.epoch))

    # -- metrics ---------------------------------------------------------------

    def lock_record_count(self) -> int:
        return 0  # Bohm's defining property

    def version_count(self) -> int:
        return self.engine.version_count()
