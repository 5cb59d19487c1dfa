"""Storage servers (Alg. 13 and the §8.1 prototype's server side).

A server owns a partition of the keys and, per key, the lock and version
state (§8.1 keeps two skip lists per key — here the interval-compressed
:class:`~repro.core.locks.LockTable` and the sorted
:class:`~repro.core.versions.VersionStore`).  Requests arrive through a
:class:`~repro.sim.server_queue.ServiceQueue` modelling the server's CPU;
handlers run when a slot frees.

Blocking requests ("waiting if locked but not frozen") are *parked*: the
handler stores them on the key's wait list and returns (releasing the CPU
slot); any lock-state change on that key re-submits them through the queue.
Non-waiting requests (MVTIL's shrink, TO's no-wait commit lock) reply
immediately with whatever was grantable.

Fault tolerance (§H): a server that has held an *unfrozen* write lock past
``write_lock_timeout`` suspects the coordinator, proposes abort to the
transaction's commitment object and applies the decision — releasing the
locks on a decided abort, or freezing/installing on a decided commit
(Alg. 13's write-lock-timeout handler).

Crash/restart: :meth:`~_ServerBase.crash` is fail-stop (network detach, all
queued and in-service work dropped); :meth:`~_ServerBase.restart` rejoins
with empty *volatile* state — lock table, pending-value buffer, parked
requests and the request-dedup log are gone.  What the version store does
across a restart depends on the durability mode: without a
:class:`~repro.repl.checkpoint.DurableStore` attached the store object is
simply kept (the original "durable storage is magic" model); with one
attached the store is rebuilt by checkpoint load + WAL tail replay, and the
dedup log is re-primed from the logged ``(client, req_id)`` pairs so a
retried already-committed request cannot double-apply.  Each restart bumps
the server's ``epoch``, stamped on every reply, so mid-transaction clients
can detect that their locks evaporated.  Because clients retry lost RPCs
with the same request id, every request is deduplicated by
``(client, req_id)`` before it is executed (at-least-once transport,
exactly-once application).

Replication (§5e): a server can additionally act as a *follower* for key
groups led elsewhere — it accepts mirrored write holds
(:class:`~repro.dist.messages.ReplicaHoldReq`), applies commit decisions
fanned to every group member, answers locked-timestamp snapshot reads from
its stable GC frontier, and reports heartbeats to the failover controller.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

from ..core.intervals import EMPTY_SET, IntervalSet, TsInterval
from ..core.locks import LockMode, LockTable
from ..obs.trace import NULL_TRACER
from ..core.timestamp import BOTTOM, TS_ZERO, Timestamp
from ..core.versions import VersionStore
from ..sim.network import Network
from ..sim.server_queue import ServiceQueue
from ..sim.simulator import Simulator
from ..sim.testbed import TestbedProfile
from ..repl.checkpoint import DurableStore
from ..repl.placement import group_index
from ..baselines.bohm import BohmEngine
from .commitment import ABORT, CommitmentRegistry
from .messages import (BohmSubmitReply, BohmSubmitReq,
                       CommitAck, CommitReq, EpochReply, EpochReq,
                       HeartbeatReply, HeartbeatReq,
                       MVTLBatchLockReply, MVTLBatchLockReq,
                       MVTLReadReply, MVTLReadReq, MVTLWriteLockReply,
                       MVTLWriteLockReq, OverloadedReply, PurgeReq,
                       ReleaseReq, ReplicaHoldReply, ReplicaHoldReq, Reply,
                       Request, SnapshotReadReply, SnapshotReadReq,
                       SyncDelta, SyncDone, SyncPoke, SyncReq,
                       TwoPLCommitReq, TwoPLLockReply, TwoPLLockReq,
                       TwoPLReleaseReq)

__all__ = ["MVTLServer", "TwoPLServer", "BohmSequencerServer"]

#: Dedup-log marker: request arrived and is being executed (or parked) but
#: has not produced a reply yet.
_IN_PROGRESS = object()

#: Dedup-log marker primed at restart from the WAL: the request was fully
#: applied before the crash but its cached reply is gone.  A retry is
#: counted and dropped (never re-executed); the client's own RPC timeout
#: already covers the lost-reply case.
_APPLIED = object()

#: Sentinel distinguishing "no pending buffer entry" from a buffered None.
_MISSING = object()

#: Service-cost class per message type (see MVTLServer._service_time):
#: 1 = control notification, 2 = per-item batch, 3 = per-entry sync batch;
#: absent = full-weight data request.  An exact-type dict lookup replaces
#: three isinstance chains on the per-request service-time path.
_WEIGHT_KIND: dict[type, int] = {
    CommitReq: 1, ReleaseReq: 1, PurgeReq: 1, EpochReq: 1, HeartbeatReq: 1,
    SyncReq: 1, SyncPoke: 1,
    MVTLBatchLockReq: 2, ReplicaHoldReq: 2,
    SyncDelta: 3,
}


class _Resubmit:
    """Internal envelope for un-parking: bypasses the request-dedup check.

    A parked request is re-submitted through the service queue when the
    lock state changes; without the envelope the dedup log would mistake
    the re-submission for a network duplicate and drop it.
    """

    __slots__ = ("req",)

    def __init__(self, req: Any) -> None:
        self.req = req


class _ServerBase:
    """Shared wiring: service queue, network registration, parking, dedup."""

    #: Bound on the request-dedup log.  Entries are only needed while a
    #: client might still retry the request — a few RPC timeouts — so FIFO
    #: eviction of the oldest entries is safe at any realistic rate.
    _REQ_LOG_MAX = 8192

    def __init__(self, sim: Simulator, net: Network, server_id: Hashable,
                 profile: TestbedProfile, rng: np.random.Generator, *,
                 queue_capacity: int | None = None) -> None:
        self.sim = sim
        self.net = net
        self.server_id = server_id
        self.profile = profile
        self.queue = ServiceQueue(sim, profile.service_time,
                                  profile.server_concurrency, rng,
                                  self._on_request,
                                  capacity=queue_capacity,
                                  class_fn=self._request_class,
                                  shed_fn=self._on_shed,
                                  expired_fn=self._request_expired)
        net.register(server_id, self.queue.submit)
        self.crashed = False
        #: Bumped on every restart; stamped on MVTL replies (epoch fencing).
        self.epoch = 0
        #: (client, req_id) -> _IN_PROGRESS | cached Reply.  Makes request
        #: handling idempotent under client retry and link duplication.
        self._req_log: OrderedDict[tuple, Any] = OrderedDict()
        self._parked: dict[Hashable, list[Any]] = {}
        #: Park time per waiting request (messages are frozen dataclasses,
        #: so requests are keyed by identity).  Only the obs layer reads
        #: these durations, so the dict is maintained *only* when a
        #: recording tracer is attached — with tracing off, parking does
        #: no obs bookkeeping at all.
        self._parked_at: dict[int, float] = {}
        #: Per-key contended-access counts (parks, partial/refused grants).
        self.conflicts: dict[Hashable, int] = {}
        #: Attach point for the obs layer (see :mod:`repro.obs`); the
        #: cluster assigns a recording tracer after construction.
        self.tracer: Any = NULL_TRACER
        self.stats = {"requests": 0, "parked": 0, "dup_requests": 0,
                      "restarts": 0, "shed": 0, "expired": 0}

    def _handle(self, msg: Any) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- overload control --------------------------------------------------

    # The service queue calls these hooks for every message: they read the
    # wire classes' routing flags (messages.Message) and unwrap the
    # _Resubmit envelope by exact type, inline — no isinstance/getattr or
    # helper calls.

    def _request_class(self, msg: Any) -> int:
        """Queue class: 0 = critical/control (never shed), 1 = sheddable.

        Parked-request re-submissions keep the class of the request they
        carry (the envelope is transparent).  Control notifications ride in
        class 0: they free locks and slots — shedding them would turn
        overload into leaked state.
        """
        req = msg.req if msg.__class__ is _Resubmit else msg
        if req.sheddable and not req.critical:
            return 1
        return 0

    def _request_expired(self, msg: Any) -> bool:
        """Deadline check at the head of the queue (stale-work drop)."""
        req = msg.req if msg.__class__ is _Resubmit else msg
        deadline = req.deadline
        if deadline is None or self.sim.now <= deadline:
            return False
        self.stats["expired"] += 1
        return True

    def _on_shed(self, msg: Any) -> None:
        """Bounded-queue rejection: reply OVERLOADED instead of parking.

        The explicit reply is the point of the shed policy — the client
        learns *immediately* that the server is saturated (and feeds its
        circuit breaker) instead of burning an RPC timeout against a queue
        that would never have reached its request.
        """
        req = msg.req if msg.__class__ is _Resubmit else msg
        self.stats["shed"] += 1
        if req.is_request:
            self._reply(req, OverloadedReply(req.req_id))

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: detach from the network, finish nothing in flight."""
        if self.crashed:
            return
        self.crashed = True
        self.net.unregister(self.server_id)
        self.queue.drop_pending()

    def restart(self) -> None:
        """Rejoin with empty volatile state (Theorems 8-10 recovery model).

        Parked requests, the dedup log and (in subclasses) the lock state
        are volatile and do not survive; the epoch bump lets clients whose
        locks evaporated detect the restart from our next reply.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.epoch += 1
        self.stats["restarts"] += 1
        self._parked.clear()
        self._parked_at.clear()
        self._req_log.clear()
        self.net.register(self.server_id, self.queue.submit)

    # -- request dedup -----------------------------------------------------

    def _on_request(self, msg: Any) -> None:
        """Queue handler: dedup by (client, req_id), then dispatch."""
        if self.crashed:
            return  # a crashed CPU finishes nothing
        if msg.__class__ is _Resubmit:
            self._handle(msg.req)
            return
        if msg.is_request:
            key = (msg.client, msg.req_id)
            prior = self._req_log.get(key)
            if prior is not None:
                # Retry or link duplicate: never execute twice.  If the
                # first run already replied, re-send that reply (the
                # original may have been lost); if it is still in progress
                # (parked, or awaiting consensus), it will reply itself.
                self.stats["dup_requests"] += 1
                if isinstance(prior, Reply):
                    self.net.send(msg.client, prior, src=self.server_id)
                return
            self._req_log[key] = _IN_PROGRESS
            while len(self._req_log) > self._REQ_LOG_MAX:
                self._req_log.popitem(last=False)
        self._handle(msg)

    def _reply(self, req: Request, reply: Reply) -> None:
        key = (req.client, req.req_id)
        if key in self._req_log:
            self._req_log[key] = reply
        self.net.send(req.client, reply, src=self.server_id)

    def _park(self, key: Hashable, req: Any) -> None:
        self._parked.setdefault(key, []).append(req)
        if self.tracer.enabled:
            self._parked_at[id(req)] = self.sim.now
        self._note_conflict(key)
        self.stats["parked"] += 1

    def _note_conflict(self, key: Hashable) -> None:
        self.conflicts[key] = self.conflicts.get(key, 0) + 1

    def _end_wait(self, key: Hashable, req: Any) -> None:
        """Close out a parked request's wait span (granted or dropped)."""
        if not self.tracer.enabled:
            return
        parked_at = self._parked_at.pop(id(req), None)
        if parked_at is not None:
            self.tracer.wait(req.tx_id, key, dur=self.sim.now - parked_at,
                             server=self.server_id)

    def _unpark(self, key: Hashable) -> None:
        """Re-submit everything waiting on ``key`` (lock state changed)."""
        waiting = self._parked.pop(key, None)
        if waiting:
            for req in waiting:
                self._end_wait(key, req)
                self.queue.submit(_Resubmit(req))

    def _drop_parked(self, tx_id: Hashable) -> None:
        """Discard parked requests of an aborted transaction.

        Without this, a request parked on behalf of a transaction whose
        coordinator has already given up would eventually be granted and
        leave orphaned locks behind.
        """
        for key in list(self._parked):
            remaining = []
            for r in self._parked[key]:
                if r.tx_id != tx_id:
                    remaining.append(r)
                else:
                    self._end_wait(key, r)
            if remaining:
                self._parked[key] = remaining
            else:
                del self._parked[key]


class MVTLServer(_ServerBase):
    """The MVTL-family storage server (serves both MVTIL and MVTO+ clients)."""

    #: How much each extra state record per key inflates request cost.
    #: Models the slower version/lock searches of a grown store ("a larger
    #: state makes it slower to search for and access versions", §8.4.5).
    #: Calibrated against Fig. 7: ~100 records/key after ~10 unpurged
    #: minutes costs ~1.4x — while the handful of records/key accumulated
    #: within a normal measurement window costs only a few percent.
    STATE_COST_FACTOR = 0.004
    #: Recompute the (expensive) aggregate state metric this often.
    _STATE_REFRESH = 512

    def __init__(self, sim: Simulator, net: Network, server_id: Hashable,
                 profile: TestbedProfile, rng: np.random.Generator,
                 registry: CommitmentRegistry, *,
                 write_lock_timeout: float = 2.0,
                 consensus: Any | None = None,
                 history: Any | None = None,
                 queue_capacity: int | None = None,
                 durable: DurableStore | None = None,
                 replicated: bool = False) -> None:
        super().__init__(sim, net, server_id, profile, rng,
                         queue_capacity=queue_capacity)
        self.registry = registry
        #: Simulated disk (checkpoint + WAL).  None = the original model
        #: where the in-memory version store survives restarts unexamined.
        self.durable = durable
        #: True when this server is part of a replication group (r > 1):
        #: enables the commit-time read-span mirror grants that keep a
        #: promoted follower's frozen-read state equal to its leader's.
        self.replicated = replicated
        #: Highest GC purge bound applied here — the snapshot-read
        #: stability frontier (every commit below it is present locally).
        self.stable_floor: Timestamp | None = None
        #: Set on every restart and never cleared: commits may have been
        #: applied elsewhere while this server was down, so its store is
        #: not a complete prefix and snapshot reads must be refused.
        self.snapshot_dirty = False
        #: Commit applications performed (freshness rank for failover).
        self.applied_commits = 0
        #: Durably-logged (client, req_id) pairs, oldest first: the dedup
        #: entries a checkpoint captures and a restart re-primes.
        self._durable_dedup: OrderedDict[tuple, None] = OrderedDict()
        #: Optional shared History: commits applied *server-side* are
        #: recorded here too, covering coordinators that crash after the
        #: decision but before recording (their writes are still installed
        #: by the write-lock-timeout/CommitReq path and must be visible to
        #: the MVSG checker as committed, not phantom).
        self.history = history
        #: Optional PaxosConsensus: when set, transaction outcomes are
        #: decided by real message-passing consensus over the acceptor set
        #: (§H.1 "servers may fail" mode) instead of the in-sim object.
        self.consensus = consensus
        # Stable digest, not hash(): string hashing is per-process
        # randomized and proposer ids must be reproducible across runs.
        self._proposer_id = (zlib.crc32(str(server_id).encode())
                             % (2**20) + 2**20)
        self.write_lock_timeout = write_lock_timeout
        self.locks = LockTable()
        self.store = VersionStore()
        #: Buffered values awaiting freeze: (tx, key) -> value (Alg. 13 l.3).
        self.pending: dict[tuple[Hashable, Hashable], Any] = {}
        # -- anti-entropy state (DESIGN.md §5h) --
        #: Leader side: (follower, gids) -> (session, entries, floor) — a
        #: stable enumeration of committed state, materialized once per
        #: session nonce and served in cursor batches.  Volatile: a restart
        #: invalidates it (the epoch bump aborts in-flight runs).
        self._sync_sessions: dict[tuple, tuple] = {}
        #: Follower side: gids -> mutable run state of one sync session.
        self._sync_runs: dict[tuple, dict] = {}
        #: The full servability plan ((leader, gids), ...) whose completed
        #: sessions clear ``snapshot_dirty``; None while no plan is active.
        self._sync_plan: tuple | None = None
        #: Session nonces + request ids survive restarts (monotonic across
        #: the server's lifetime) so a post-restart run can never alias a
        #: leader's cached pre-crash session or dedup entry.
        self._sync_session_seq = 0
        self._sync_req_seq = 0
        #: When servability was last lost (restart or recruitment
        #: mark-dirty); cleared — and the latency recorded — when a full
        #: sync plan completes.
        self._dirty_since: float | None = None
        #: Restart-to-servable latencies, one per completed re-sync.
        self.resync_latencies: list[float] = []
        self._state_multiplier = 1.0
        self._state_refresh_at = 0
        self.queue.service_time_fn = self._service_time
        self._dispatch = {cls: getattr(self, name)
                          for cls, name in self._HANDLERS.items()}

    def restart(self) -> None:
        """Rejoin after a crash: locks and buffered values are volatile and
        are lost.  Without a DurableStore the version store object simply
        survives (the original "durable storage" model); with one, the
        store is rebuilt from the last checkpoint plus WAL tail replay and
        the request-dedup log is re-primed from the logged commit
        ``(client, req_id)`` pairs, so a client retry of an
        already-applied commit is dropped instead of re-executed."""
        if not self.crashed:
            return
        self.locks = LockTable()
        self.pending.clear()
        if self.durable is not None:
            rec = self.durable.recover(
                aborted=lambda tx: self.registry.decision_of(tx) == ABORT)
            self.store = rec.store
            self.stable_floor = rec.stable_floor
            self._durable_dedup = OrderedDict(
                (tuple(p), None) for p in rec.dedup)
            while len(self._durable_dedup) > self._REQ_LOG_MAX:
                self._durable_dedup.popitem(last=False)
            # The store was rebuilt wholesale: recompute the state-size
            # service multiplier at the next served request.
            self._state_refresh_at = 0
        self.snapshot_dirty = True
        self._dirty_since = self.sim.now
        # Sync state is volatile: cached sessions die with the epoch bump
        # (aborting every in-flight run against us) and our own runs are
        # forgotten — the controller's next poke starts a fresh plan.
        self._sync_sessions.clear()
        self._sync_runs.clear()
        self._sync_plan = None
        super().restart()
        if self.durable is not None:
            # Re-derive dedup decisions for committed transactions: their
            # requests were applied pre-crash even though the reply cache
            # is gone (satellite (a) — the volatile-dedup-cache bug).
            for pair in self._durable_dedup:
                self._req_log[pair] = _APPLIED

    #: Relative CPU cost of control notifications (commit/gc/release/
    #: purge) vs. data requests: they carry no value payload and do no
    #: version search — in the prototype they are cheap latched updates,
    #: not full skip-list operations.
    CONTROL_MSG_WEIGHT = 0.3

    def _service_time(self, msg: Any = None) -> float:
        """Per-request service time: type weight x state inflation (Fig. 7)."""
        if self.queue.requests_served >= self._state_refresh_at:
            self._state_refresh_at = (self.queue.requests_served
                                      + self._STATE_REFRESH)
            keys = max(1, self.store.key_count())
            records = (self.locks.total_record_count()
                       + self.store.version_count())
            per_key = records / keys
            # Baseline is ~2 records/key (one version + one lock interval).
            self._state_multiplier = 1.0 + self.STATE_COST_FACTOR * max(
                0.0, per_key - 2.0)
        kind = _WEIGHT_KIND.get(msg.__class__)
        if kind is None:  # data request (read / write lock / snapshot read)
            weight = 1.0
        elif kind == 1:  # control notification
            weight = self.CONTROL_MSG_WEIGHT
        elif kind == 2:
            # A batch saves messages, not lock work: it costs one data
            # request per item it carries.
            weight = float(max(1, len(msg.items)))
        else:
            # Applying a sync batch is one cheap guarded install per entry.
            weight = self.CONTROL_MSG_WEIGHT * max(1, len(msg.entries))
        return self.profile.service_time * self._state_multiplier * weight

    # -- dispatch -----------------------------------------------------------

    #: Message type -> handler method name; bound per instance in
    #: ``__init__`` so a single exact-type dict lookup replaces the
    #: 16-branch isinstance chain on every request.
    _HANDLERS: dict[type, str] = {
        MVTLReadReq: "_handle_read",
        MVTLWriteLockReq: "_handle_write_lock",
        MVTLBatchLockReq: "_handle_batch_lock",
        CommitReq: "_handle_commit_req",
        ReleaseReq: "_handle_release",
        PurgeReq: "_handle_purge",
        ReplicaHoldReq: "_handle_replica_hold",
        SnapshotReadReq: "_handle_snapshot_read",
        HeartbeatReq: "_handle_heartbeat",
        SyncReq: "_handle_sync_req",
        SyncDelta: "_handle_sync_delta",
        SyncPoke: "_handle_sync_poke",
        EpochReq: "_handle_epoch_req",
    }

    def _handle_heartbeat(self, msg: HeartbeatReq) -> None:
        self._reply(msg, HeartbeatReply(msg.req_id,
                                        server=self.server_id,
                                        epoch=self.epoch,
                                        applied=self.applied_commits,
                                        dirty=self.snapshot_dirty))

    def _handle_epoch_req(self, msg: EpochReq) -> None:
        self._reply(msg, EpochReply(msg.req_id, epoch=self.epoch))

    def _handle(self, msg: Any) -> None:
        self.stats["requests"] += 1
        handler = self._dispatch.get(msg.__class__)
        if handler is None:
            raise TypeError(f"MVTLServer got unknown message {msg!r}")
        handler(msg)

    # -- reads ---------------------------------------------------------------

    def _handle_read(self, req: MVTLReadReq) -> None:
        """Read + read-lock a contiguous interval (Alg. 13 lines 5-7).

        Picks ``tr`` = latest version below ``req.upper``, then grants read
        locks on the contiguous range just above ``tr``, truncated at the
        first frozen write lock.  On an *unfrozen* write conflict: park if
        ``req.wait`` (MVTO+), else grant the conflict-free prefix (MVTIL).
        """
        key = req.key
        state = self.locks.state(key)
        version = self.store.latest_before(key, req.upper)
        if version is None:
            self._reply(req, MVTLReadReply(req.req_id,
                                           epoch=self.epoch))  # purged
            return
        if version.ts >= req.upper:
            self._reply(req, MVTLReadReply(req.req_id, tr=version.ts,
                                           value=version.value,
                                           locked=EMPTY_SET,
                                           epoch=self.epoch))
            return
        # The hottest handler in every workload: frozen-write truncation,
        # the conflict probe and the grant are one pass over the key's lock
        # state.
        locked, contended = state.acquire_read_after(
            req.tx_id, version.ts, req.upper, req.floor, req.wait)
        if locked is None:
            # "Waiting if write-locked but not frozen": the usable prefix
            # does not reach what the client needs yet; park until the
            # conflicting (unfrozen) locks move.
            self._park(key, req)
            return
        if contended:
            # Another transaction's lock truncated the read's lockable
            # range — a contended access even though nobody waited.
            self._note_conflict(key)
        if not locked.is_empty:
            self.locks.note_owner(req.tx_id, key)
        self._reply(req, MVTLReadReply(req.req_id, tr=version.ts,
                                       value=version.value, locked=locked,
                                       epoch=self.epoch))

    # -- write locks -----------------------------------------------------------

    def _handle_write_lock(self, req: MVTLWriteLockReq) -> None:
        """Acquire write locks and buffer the value (Alg. 13 lines 1-4)."""
        key = req.key
        # One probe: the grant is recorded unless the outcome is one this
        # request does not keep (see KeyLockState.try_acquire).
        got = self.locks.state(key).try_acquire(
            req.tx_id, LockMode.WRITE, req.want, wait=req.wait,
            all_or_nothing=req.all_or_nothing)
        acquired = got.acquired
        if not got.fully_acquired:
            if req.wait and not got.any_frozen_conflict:
                self._park(key, req)
                return
            self._note_conflict(key)
            if req.all_or_nothing:
                acquired = EMPTY_SET
        if not acquired.is_empty:
            self._hold_write(req.tx_id, key, req.value)
        self._reply(req, MVTLWriteLockReply(req.req_id, acquired=acquired,
                                            epoch=self.epoch))

    def _hold_write(self, tx_id: Hashable, key: Hashable,
                    value: Any) -> None:
        """Index a write grant, buffer its value (Alg. 13 line 3) and arm
        the write-lock timeout."""
        self.locks.note_owner(tx_id, key)
        self.pending[(tx_id, key)] = value
        self.sim.schedule(self.write_lock_timeout,
                          self._write_lock_timeout, tx_id, key)

    def _handle_batch_lock(self, req: MVTLBatchLockReq) -> None:
        """Apply a per-server batch of non-waiting write-lock requests.

        Each ``(key, value, want)`` item runs the single-key write-lock
        logic (probe, conflict note, acquire, buffer value, arm the
        write-lock timeout) and contributes its grant to one combined
        reply.  Items are independent: a refused key does not roll back its
        batch-mates — the client decides what a partial batch means (MVTIL
        shrinks its interval; all-or-nothing clients abort and release).
        """
        acquired: dict[Hashable, IntervalSet] = {}
        for key, value, want in req.items:
            got = self.locks.state(key).try_acquire(
                req.tx_id, LockMode.WRITE, want,
                all_or_nothing=req.all_or_nothing)
            if not got.fully_acquired:
                self._note_conflict(key)
                if req.all_or_nothing:
                    acquired[key] = EMPTY_SET
                    continue
            acquired[key] = got.acquired
            if not got.acquired.is_empty:
                self._hold_write(req.tx_id, key, value)
        self._reply(req, MVTLBatchLockReply(req.req_id, acquired=acquired,
                                            epoch=self.epoch))

    def _write_lock_timeout(self, tx_id: Hashable, key: Hashable) -> None:
        """Alg. 13 write-lock-timeout: suspect the coordinator."""
        if (tx_id, key) not in self.pending:
            return  # already frozen or released
        state = self.locks.peek(key)
        if state is None:
            return
        held = state.held(tx_id, LockMode.WRITE)
        frozen = state.frozen(tx_id, LockMode.WRITE)
        if held.is_empty or held == frozen:
            return
        def apply(decision: Any) -> None:
            if (tx_id, key) not in self.pending:
                return  # resolved while consensus was running
            if decision == ABORT:
                self._drop_tx_on_key(tx_id, key)
                self._unpark(key)
            else:
                value = self._apply_commit(tx_id, key, decision)
                self._log_commit(tx_id, decision, ((key, value),))
                # The coordinator is suspected dead, so no CommitReq will
                # seal this key: release the write-locked span outside the
                # frozen commit point ourselves (the decided transaction
                # can never install at another timestamp).  Unfrozen read
                # locks stay — conservatively — until GC purges them.
                st = self.locks.peek(key)
                if st is not None:
                    residual = st.held(tx_id, LockMode.WRITE).subtract(
                        st.frozen(tx_id, LockMode.WRITE))
                    if not residual.is_empty:
                        st.release(tx_id, LockMode.WRITE, residual)
                        self._unpark(key)

        self._decide(tx_id, ABORT, apply)

    # -- commit / abort ----------------------------------------------------------

    def _apply_commit(self, tx_id: Hashable, key: Hashable,
                      ts: Timestamp, fallback: Any = None) -> Any:
        value = self.pending.pop((tx_id, key), _MISSING)
        if value is _MISSING:
            # The pending buffer is volatile: if we crashed and restarted
            # between lock install and commit, the buffered value is gone
            # and the commit notification's redo payload supplies it.
            value = fallback
        state = self.locks.state(key)
        state.freeze(tx_id, LockMode.WRITE, TsInterval.point(ts))
        if self.store.version_at(key, ts) is None:
            self.store.install(key, ts, value)
        if self.history is not None:
            # Server-side record: survives coordinators that crash after
            # the decision but before recording their own commit.
            self.history.record_commit_key(tx_id, ts, key)
        self.applied_commits += 1
        # Other write-locked timestamps of tx stay until gc/release.
        self._unpark(key)
        return value

    def _log_commit(self, tx_id: Hashable, ts: Timestamp,
                    entries: tuple, client: Any = None,
                    req_id: Any = None) -> None:
        """WAL a commit application (one record = all keys this server
        installed for the transaction, so a torn tail is all-or-nothing).

        Always logged when durability is on — even when every install was
        skipped because the write-lock-timeout path got there first — so
        the ``(client, req_id)`` pair seeds the restart dedup cache.
        Replay is install-guarded, which makes the duplicate records of
        the timeout-then-CommitReq race idempotent.
        """
        if self.durable is None:
            return
        self.durable.log_commit(tx_id, ts, entries, client, req_id)
        if client is not None:
            self._durable_dedup[(client, req_id)] = None
            while len(self._durable_dedup) > self._REQ_LOG_MAX:
                self._durable_dedup.popitem(last=False)
        self.durable.maybe_checkpoint(self.store, self._durable_dedup,
                                      self.stable_floor)

    def _decide(self, tx_id: Hashable, outcome: Any,
                callback: Any) -> None:
        """Obtain the transaction's decision, then run ``callback(decision)``.

        Local mode decides synchronously via the shared commitment object;
        Paxos mode runs a proposer coroutine over the acceptor quorum and
        applies the callback when consensus completes (locks stay held —
        and block others — exactly until then, as in Alg. 13).
        """
        if self.consensus is None:
            callback(self.registry.get(tx_id).propose(outcome))
            return
        cached = self.consensus.decided(tx_id)
        if cached is not None:
            callback(cached)
            return

        def proc():
            decision = yield from self.consensus.propose(
                tx_id, outcome, proposer_id=self._proposer_id)
            callback(decision)

        self.sim.spawn(proc(), name=f"{self.server_id}-decide")

    def _handle_commit_req(self, req: CommitReq) -> None:
        """Atomic commit application: propose, freeze+install, GC (§8.1)."""

        def apply(decision: Any) -> None:
            if decision == ABORT:
                self._release_tx(req.tx_id, write_only=False)
                if req.ack:
                    self._reply(req, CommitAck(req.req_id, epoch=self.epoch))
                return
            entries = tuple(
                (key, self._apply_commit(req.tx_id, key, decision,
                                         fallback=req.values.get(key)))
                for key in req.write_keys)
            self._log_commit(req.tx_id, decision, entries,
                             client=req.client, req_id=req.req_id)
            for key, span in req.spans.items():
                if self.replicated:
                    # Follower read-span mirror: this member never saw the
                    # transaction's reads, so it holds no read lock to
                    # freeze.  Grant-then-freeze the span here — without
                    # it, a post-promotion writer could install inside a
                    # committed reader's span (an MVSG violation the
                    # leader's frozen read lock was preventing).  The
                    # mirrored write grants equal the leader's, so the
                    # span is conflict-free by construction.
                    if self.locks.state(key).hold_frozen_read(req.tx_id,
                                                              span):
                        self.locks.note_owner(req.tx_id, key)
                    continue
                state = self.locks.peek(key)
                if state is not None:
                    state.freeze(req.tx_id, LockMode.READ, span)
            # Seal the ended transaction's permanent locks.  With
            # release=True only the frozen prefix survives (Alg. 11 gc);
            # with release=False every read lock is kept — the MVTO+/no-GC
            # behaviour where read-timestamps persist and state accumulates
            # (Fig. 6).
            self._seal_tx(req.tx_id, keep_all_reads=not req.release)
            if req.ack:
                # Reliable fan-out: confirm application so the client stops
                # retrying this member (the cached reply answers link dups).
                self._reply(req, CommitAck(req.req_id, epoch=self.epoch))

        self._decide(req.tx_id, req.ts, apply)

    def _handle_release(self, req: ReleaseReq) -> None:
        self._release_tx(req.tx_id, write_only=req.write_only)

    def _release_tx(self, tx_id: Hashable, write_only: bool) -> None:
        """End-of-transaction lock cleanup, sealing what must persist.

        ``write_only=True`` is the MVTO+ abort: unfrozen write locks go,
        but the read locks persist as read-timestamps (sealed).
        ``write_only=False`` drops everything unfrozen and seals the frozen
        remainder.
        """
        self._seal_tx(tx_id, keep_all_reads=write_only)

    def _seal_tx(self, tx_id: Hashable, keep_all_reads: bool) -> None:
        self._drop_parked(tx_id)
        # Set order is per-process: iterate in sorted order so waiter
        # wake-ups happen in the same order every run (reproducibility).
        for key in sorted(self.locks.forget_owner(tx_id), key=str):
            state = self.locks.peek(key)
            if state is not None:
                state.seal(tx_id, keep_all_reads=keep_all_reads)
            self.pending.pop((tx_id, key), None)
            self._unpark(key)

    def _drop_tx_on_key(self, tx_id: Hashable, key: Hashable) -> None:
        """Release tx's unfrozen locks on one key (timeout-abort path)."""
        state = self.locks.peek(key)
        if state is not None:
            state.seal(tx_id, keep_all_reads=False)
        self.pending.pop((tx_id, key), None)

    # -- purge (§6, §8.1) ----------------------------------------------------------

    def _handle_purge(self, req: PurgeReq) -> None:
        bound_iv = TsInterval.closed_open(
            Timestamp(float("-inf"), 0), req.bound)
        purged = self.store.purge_before(req.bound)
        self.locks.purge_below(bound_iv)
        self.stats["purged_versions"] = (
            self.stats.get("purged_versions", 0) + purged)
        if self.stable_floor is None or req.bound > self.stable_floor:
            self.stable_floor = req.bound
        if self.durable is not None:
            self.durable.log_purge(req.bound)
            self.durable.maybe_checkpoint(self.store, self._durable_dedup,
                                          self.stable_floor)

    # -- replication (§5e) -------------------------------------------------

    def _handle_replica_hold(self, req: ReplicaHoldReq) -> None:
        """Mirror leader-granted write locks (+ pending values) on a
        follower.

        Each item carries the exact interval the group leader granted and
        the transaction's buffered value, so any quorum member can finish
        the commit alone.  The ordinary write-lock timeout is armed on
        every mirrored hold: if the coordinator dies, a promoted follower
        resolves the hold through the commitment registry exactly like a
        leader would — decided commits install, the rest abort.
        """
        mirrored = True
        for key, value, want in req.items:
            got = self.locks.state(key).try_acquire(
                req.tx_id, LockMode.WRITE, want)
            if not got.fully_acquired:
                # Leftover sealed/foreign state blocks the mirror (can
                # happen after this follower was itself promoted and back-
                # demoted).  The client counts this against the quorum.
                self._note_conflict(key)
                mirrored = False
            if not got.acquired.is_empty:
                self._hold_write(req.tx_id, key, value)
        if mirrored:
            self.stats["holds_mirrored"] = (
                self.stats.get("holds_mirrored", 0) + 1)
        self._reply(req, ReplicaHoldReply(req.req_id, mirrored=mirrored,
                                          epoch=self.epoch))

    def _handle_snapshot_read(self, req: SnapshotReadReq) -> None:
        """Lock-free follower read at a locked (GC-frontier) timestamp.

        Refused unless this replica can prove the timestamp is stable
        here: it has applied the purge that defined the frontier
        (``stable_floor``), it never crashed with commits possibly missed
        (``snapshot_dirty``), and no undecided write lock sits at or below
        the timestamp — its owner could still commit inside the read's
        past.  (It cannot in practice: live transactions run a GC horizon
        above the frontier.  The server-side check is what makes the read
        safe by construction rather than by timing.)  The refusal is
        cheap — the client falls back to the leader, then to an interval
        read.
        """
        self.stats["snapshot_reads"] = (
            self.stats.get("snapshot_reads", 0) + 1)
        # Classify the refusal (first failing guard wins) so anti-entropy
        # progress is observable: "dirty" refusals must vanish once a full
        # sync plan completes, while "floor" lag is routine GC cadence.
        version = None
        state = self.locks.peek(req.key)
        if self.snapshot_dirty:
            reason = "dirty"
        elif self.stable_floor is None or req.ts > self.stable_floor:
            reason = "floor"
        elif state is not None and state.unfrozen_write_at_or_below(req.ts):
            reason = "unfrozen"
        else:
            version = self.store.latest_before(req.key, req.ts)
            reason = "missing" if version is None else None
        if reason is not None:
            self.stats["snapshot_refused"] = (
                self.stats.get("snapshot_refused", 0) + 1)
            key = f"snapshot_refused_{reason}"
            self.stats[key] = self.stats.get(key, 0) + 1
            self._reply(req, SnapshotReadReply(req.req_id, ok=False,
                                               epoch=self.epoch))
            return
        if self.stats.get("resyncs"):
            # Re-earned servability is non-vacuous: this server lost its
            # snapshot and is serving follower reads again (the bench
            # asserts this fires for every restarted/recruited member).
            self.stats["snapshot_served_resynced"] = (
                self.stats.get("snapshot_served_resynced", 0) + 1)
        self._reply(req, SnapshotReadReply(req.req_id, ok=True,
                                           tr=version.ts,
                                           value=version.value,
                                           epoch=self.epoch))

    # -- anti-entropy (DESIGN.md §5h) ---------------------------------------

    def _handle_sync_poke(self, poke: SyncPoke) -> None:
        """Controller nudge: start/continue sync sessions per ``sources``.

        Pokes are the loss-recovery mechanism — one arrives every
        controller tick, so a run whose delta was dropped just re-requests
        its current cursor.  A healthy run also streams on its own (each
        delta immediately triggers the next request), making the poke
        redundant there; the duplicate delta is dropped by cursor match.
        """
        if poke.mark_dirty and not self.snapshot_dirty:
            # Recruitment prologue: drop servability *before* membership
            # changes, and invalidate any stale full plan — completing one
            # enumerated before this moment must not re-clear the flag.
            self.snapshot_dirty = True
            self._dirty_since = self.sim.now
            self._sync_plan = None
        if poke.full:
            self._sync_plan = poke.sources
        for leader, gids in poke.sources:
            if leader == self.server_id:
                continue
            run = self._sync_runs.get(gids)
            if (run is not None and run["leader"] == leader
                    and run["full"] == poke.full):
                if not run["done"]:
                    self._send_sync_req(run)
                elif not poke.full:
                    # Completed recruitment session: re-notify the
                    # controller (the previous SyncDone may have been lost).
                    self.net.send(poke.origin,
                                  SyncDone(server=self.server_id, gids=gids,
                                           session=run["session"]),
                                  src=self.server_id)
                continue
            self._sync_session_seq += 1
            run = {"gids": gids, "leader": leader,
                   "session": self._sync_session_seq, "cursor": 0,
                   "done": False, "floor": None, "epoch": None,
                   "batch": max(1, poke.batch),
                   "num_groups": poke.num_groups,
                   "full": poke.full, "origin": poke.origin}
            self._sync_runs[gids] = run
            self.stats["sync_sessions"] = (
                self.stats.get("sync_sessions", 0) + 1)
            self._send_sync_req(run)
        if poke.full:
            self._maybe_finish_resync()

    def _send_sync_req(self, run: dict) -> None:
        """One pull of the run's current cursor.  Every send draws a fresh
        request id: the leader's dedup layer then only collapses *link*
        duplicates (same id), while deliberate re-pulls after a lost delta
        are re-executed — a cheap cached-session slice."""
        self._sync_req_seq += 1
        req = SyncReq("__sync__", self.server_id, self._sync_req_seq,
                      gids=run["gids"], session=run["session"],
                      cursor=run["cursor"], batch=run["batch"],
                      num_groups=run["num_groups"])
        self.stats["sync_reqs"] = self.stats.get("sync_reqs", 0) + 1
        self.net.send(run["leader"], req, src=self.server_id)

    def _handle_sync_req(self, req: SyncReq) -> None:
        """Leader side: serve one batch of a cached session enumeration.

        The enumeration is materialized once per session nonce — a stable
        list the cursor walks even as new commits land (those reach the
        follower through the ordinary fan-out, which it has been applying
        all along; the session only back-fills what it missed while down).
        ``floor`` is the stable GC floor at materialization: together with
        the locked-timestamp argument (nothing can commit below the floor
        anymore) it bounds what the follower must prove covered.
        """
        skey = (req.client, req.gids)
        sess = self._sync_sessions.get(skey)
        if sess is None or sess[0] != req.session:
            gidset = set(req.gids)
            entries = []
            for key, versions, _floor in sorted(self.store.snapshot(),
                                                key=lambda c: str(c[0])):
                if group_index(key, req.num_groups) not in gidset:
                    continue
                for ts, value in versions:
                    if ts == TS_ZERO:
                        continue  # implicit base version, never shipped
                    entries.append((key, ts, value))
            sess = (req.session, tuple(entries), self.stable_floor)
            self._sync_sessions[skey] = sess
        _, entries, floor = sess
        lo = min(req.cursor, len(entries))
        hi = min(lo + max(1, req.batch), len(entries))
        self.stats["sync_batches_served"] = (
            self.stats.get("sync_batches_served", 0) + 1)
        self._reply(req, SyncDelta(req.req_id, gids=req.gids,
                                   session=req.session, cursor=lo,
                                   next_cursor=hi, entries=entries[lo:hi],
                                   done=hi >= len(entries), floor=floor,
                                   epoch=self.epoch))

    def _handle_sync_delta(self, d: SyncDelta) -> None:
        """Follower side: apply one batch, WAL it, pull the next.

        Stale, duplicated and reordered deltas are dropped by the
        (session, cursor) match.  A leader epoch change mid-run aborts the
        run: the enumeration we were walking died with the leader's
        restart, and its post-restart store is itself dirty — continuing
        would let an incomplete leader vouch for our completeness.
        """
        run = self._sync_runs.get(d.gids)
        if (run is None or run["session"] != d.session or run["done"]
                or d.cursor != run["cursor"]):
            return
        if run["epoch"] is None:
            run["epoch"] = d.epoch
        elif d.epoch != run["epoch"]:
            del self._sync_runs[d.gids]
            self.stats["sync_aborted"] = (
                self.stats.get("sync_aborted", 0) + 1)
            return
        installed = []
        for key, ts, value in d.entries:
            # Guarded install: the version may have arrived through the
            # ordinary commit fan-out while the session was in flight.
            if self.store.version_at(key, ts) is None:
                self.store.install(key, ts, value)
                installed.append((key, ts, value))
        if installed:
            self.stats["sync_installs"] = (
                self.stats.get("sync_installs", 0) + len(installed))
            if self.durable is not None:
                # Sync installs must be as durable as commit installs:
                # after the plan clears snapshot_dirty, a crash must
                # recover a state the servability proof still covers.
                self.durable.log_sync(tuple(installed))
                self.durable.maybe_checkpoint(self.store,
                                              self._durable_dedup,
                                              self.stable_floor)
        self.stats["sync_deltas"] = self.stats.get("sync_deltas", 0) + 1
        run["cursor"] = d.next_cursor
        if not d.done:
            self._send_sync_req(run)
            return
        run["done"] = True
        run["floor"] = d.floor
        if run["full"]:
            self._maybe_finish_resync()
        else:
            self.net.send(run["origin"],
                          SyncDone(server=self.server_id, gids=run["gids"],
                                   session=run["session"]),
                          src=self.server_id)

    def _maybe_finish_resync(self) -> None:
        """Clear ``snapshot_dirty`` once the active full plan is complete.

        Every session of the plan shipped its leader's *entire* committed
        state for the covered groups (a clean leader's state is a complete
        commit prefix), and commits decided after each enumeration reach
        us through the ordinary fan-out we have been applying since
        restart.  Jointly that covers everything at or below the GC floor
        — and above it, up to the fan-out's own loss model — so the
        snapshot-read guards are sound again.  The adopted stable floor is
        the most conservative session floor (a None floor means that
        leader never purged, i.e. the session was the whole history and
        constrains nothing).
        """
        if not self.snapshot_dirty or self._sync_plan is None:
            return
        floors = []
        for leader, gids in self._sync_plan:
            run = self._sync_runs.get(gids)
            if run is None or run["leader"] != leader or not run["done"]:
                return
            if run["floor"] is not None:
                floors.append(run["floor"])
        self.snapshot_dirty = False
        self._sync_plan = None
        self.stats["resyncs"] = self.stats.get("resyncs", 0) + 1
        if self._dirty_since is not None:
            self.resync_latencies.append(self.sim.now - self._dirty_since)
            self._dirty_since = None
        if floors:
            adopted = min(floors)
            if self.stable_floor is None or adopted > self.stable_floor:
                self.stable_floor = adopted

    # -- metrics ---------------------------------------------------------------

    def lock_record_count(self) -> int:
        return self.locks.total_record_count()

    def version_count(self) -> int:
        return self.store.version_count()


class _TwoPLKey:
    __slots__ = ("readers", "writer", "waitq", "value", "version_ts")

    def __init__(self) -> None:
        self.readers: set[Hashable] = set()
        self.writer: Hashable | None = None
        self.waitq: list[TwoPLLockReq] = []
        self.value: Any = None
        self.version_ts: Timestamp | None = None


class TwoPLServer(_ServerBase):
    """Strict-2PL storage server: one readers-writer lock per key (§8.1).

    Waiters queue FIFO; the client enforces the deadlock-prevention timeout
    (a timed-out client aborts and sends releases — the server then drops
    its queued requests and held locks).
    """

    #: Same control-message discount as the MVTL server (fairness).
    CONTROL_MSG_WEIGHT = 0.3

    def __init__(self, sim: Simulator, net: Network, server_id: Hashable,
                 profile: TestbedProfile, rng: np.random.Generator, *,
                 queue_capacity: int | None = None) -> None:
        super().__init__(sim, net, server_id, profile, rng,
                         queue_capacity=queue_capacity)
        self._keys: dict[Hashable, _TwoPLKey] = {}
        self._aborted: set[Hashable] = set()
        self.queue.service_time_fn = self._service_time

    def _service_time(self, msg: Any = None) -> float:
        weight = (self.CONTROL_MSG_WEIGHT
                  if isinstance(msg, (TwoPLCommitReq, TwoPLReleaseReq,
                                      PurgeReq))
                  else 1.0)
        return self.profile.service_time * weight

    def _handle(self, msg: Any) -> None:
        self.stats["requests"] += 1
        if isinstance(msg, TwoPLLockReq):
            self._handle_lock(msg)
        elif isinstance(msg, TwoPLCommitReq):
            self._handle_commit(msg)
        elif isinstance(msg, TwoPLReleaseReq):
            self._handle_tx_release(msg)
        elif isinstance(msg, PurgeReq):
            pass  # single-version store: nothing to purge
        else:
            raise TypeError(f"TwoPLServer got unknown message {msg!r}")

    def _key(self, key: Hashable) -> _TwoPLKey:
        entry = self._keys.get(key)
        if entry is None:
            entry = self._keys[key] = _TwoPLKey()
        return entry

    def _handle_lock(self, req: TwoPLLockReq) -> None:
        if req.tx_id in self._aborted:
            return  # client gave up; drop silently
        entry = self._key(req.key)
        if self._compatible(entry, req):
            self._grant(entry, req)
        else:
            entry.waitq.append(req)
            if self.tracer.enabled:
                self._parked_at[id(req)] = self.sim.now
            self._note_conflict(req.key)
            self.stats["parked"] += 1

    def _compatible(self, entry: _TwoPLKey, req: TwoPLLockReq) -> bool:
        if req.write:
            writer_ok = entry.writer in (None, req.tx_id)
            readers_ok = not (entry.readers - {req.tx_id})
            return writer_ok and readers_ok
        return entry.writer in (None, req.tx_id)

    def _grant(self, entry: _TwoPLKey, req: TwoPLLockReq) -> None:
        if req.write:
            entry.readers.discard(req.tx_id)
            entry.writer = req.tx_id
        elif entry.writer != req.tx_id:
            entry.readers.add(req.tx_id)
        value = entry.value if entry.version_ts is not None else BOTTOM
        version_ts = entry.version_ts if entry.version_ts is not None else TS_ZERO
        self._reply(req, TwoPLLockReply(req.req_id, granted=True,
                                        value=value, version_ts=version_ts))

    def _handle_commit(self, req: TwoPLCommitReq) -> None:
        for key, value in req.writes.items():
            entry = self._key(key)
            entry.value = value
            entry.version_ts = req.commit_ts
            self._release_key(entry, req.tx_id)
        for key in req.release_keys:
            self._release_key(self._key(key), req.tx_id)

    def _handle_tx_release(self, req: TwoPLReleaseReq) -> None:
        self._aborted.add(req.tx_id)
        for key in req.keys:
            entry = self._keys.get(key)
            if entry is not None:
                remaining = []
                for r in entry.waitq:
                    if r.tx_id != req.tx_id:
                        remaining.append(r)
                    else:
                        self._end_wait(key, r)
                entry.waitq = remaining
                self._release_key(entry, req.tx_id)

    def _release_key(self, entry: _TwoPLKey, tx_id: Hashable) -> None:
        entry.readers.discard(tx_id)
        if entry.writer == tx_id:
            entry.writer = None
        # Grant waiters in FIFO order while compatible.
        progressed = True
        while progressed and entry.waitq:
            progressed = False
            head = entry.waitq[0]
            if head.tx_id in self._aborted:
                entry.waitq.pop(0)
                self._end_wait(head.key, head)
                progressed = True
                continue
            if self._compatible(entry, head):
                entry.waitq.pop(0)
                self._end_wait(head.key, head)
                self._grant(entry, head)
                progressed = True

    # -- metrics ---------------------------------------------------------------

    def lock_record_count(self) -> int:
        return sum(len(e.readers) + (1 if e.writer else 0)
                   for e in self._keys.values())

    def version_count(self) -> int:
        return sum(1 for e in self._keys.values()
                   if e.version_ts is not None)


class BohmSequencerServer(_ServerBase):
    """The Bohm baseline's single sequencing + execution node.

    Whole pre-declared transactions arrive as
    :class:`~repro.dist.messages.BohmSubmitReq`; arrival order at this
    server's service queue *is* the serialization order (the
    :class:`~repro.baselines.bohm.BohmEngine` stamps each submission with
    the next total-order timestamp).  Execution is batched: a batch runs
    when ``batch_size`` submissions have accumulated or when the periodic
    flush timer finds pending work, and every transaction's reply is sent
    at its batch's execution — the batching latency Bohm trades for its
    zero-conflict-abort guarantee.

    The dedup log in :class:`_ServerBase` keeps retried/duplicated submits
    at-least-once safe: a retry of an already-sequenced transaction never
    enters the engine twice, it just waits for (or re-receives) the cached
    reply.  There is no recovery protocol — the sequencer is the one
    authority and its state is volatile — so the cluster layer refuses
    crash chaos for this protocol, exactly like 2PL.
    """

    def __init__(self, sim: Simulator, net: Network, server_id: Hashable,
                 profile: TestbedProfile, rng: np.random.Generator, *,
                 history: Any | None = None,
                 queue_capacity: int | None = None,
                 batch_size: int = 16,
                 flush_interval: float = 0.01) -> None:
        super().__init__(sim, net, server_id, profile, rng,
                         queue_capacity=queue_capacity)
        self.engine = BohmEngine(history=history, batch_size=batch_size)
        self.flush_interval = flush_interval
        #: BohmTx.id -> the submit request awaiting its batch's reply.
        self._waiting: dict[int, BohmSubmitReq] = {}
        sim.schedule(flush_interval, self._flush_tick)

    @property
    def store(self) -> VersionStore:
        return self.engine.store

    # -- dispatch ------------------------------------------------------------

    def _handle(self, msg: Any) -> None:
        if isinstance(msg, BohmSubmitReq):
            self._handle_submit(msg)
        elif isinstance(msg, PurgeReq):
            self.engine.purge_before(msg.bound)
        elif isinstance(msg, EpochReq):
            self._reply(msg, EpochReply(msg.req_id, epoch=self.epoch))
        elif isinstance(msg, ReleaseReq):
            pass  # lock-free: nothing to release
        else:
            raise TypeError(f"BohmSequencerServer got unknown message "
                            f"{msg!r}")

    def _handle_submit(self, req: BohmSubmitReq) -> None:
        tx = self.engine.submit(req.spec, pid=0)
        self._waiting[tx.id] = req
        if len(self.engine._pending) >= self.engine.batch_size:
            self._run_batch()

    def _flush_tick(self) -> None:
        if not self.crashed and self.engine._pending:
            self._run_batch()
        self.sim.schedule(self.flush_interval, self._flush_tick)

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
