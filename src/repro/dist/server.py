"""The MVTL storage server (Alg. 13) on :class:`_ServerBase`, the wiring
every server shares; the baselines' servers are in :mod:`repro.dist.twopl`
and :mod:`repro.dist.bohm`.

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

Replication (§5e) is not here: what a server does as a *member* of a
replication group — mirrored write holds, follower snapshot reads,
heartbeats, anti-entropy — is :class:`~repro.dist.member.ReplicaServer`, a
subclass the cluster builds instead of :class:`MVTLServer` when
``replication > 1``.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any, Hashable

import numpy as np

from ..core.intervals import EMPTY_SET, IntervalSet, TsInterval
from ..core.locks import LockMode, LockTable
from ..obs.trace import NULL_TRACER
from ..core.timestamp import BOTTOM, Timestamp
from ..core.versions import MVTLStore, VersionStore
from ..sim.network import Network
from ..sim.server_queue import ServiceQueue
from ..sim.simulator import Simulator
from ..sim.testbed import TestbedProfile
from .commitment import ABORT, CommitmentRegistry
from .messages import (CommitAck, CommitReq, EpochReply, EpochReq,
                       MVTLBatchLockReply, MVTLBatchLockReq,
                       MVTLReadReply, MVTLReadReq, MVTLWriteLockReply,
                       MVTLWriteLockReq, OverloadedReply, PurgeReq,
                       ReleaseReq, Reply, Request)

if TYPE_CHECKING:  # pragma: no cover
    from ..repl.checkpoint import DurableStore

__all__ = ["MVTLServer"]

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
    """Shared wiring: service queue, network, dispatch, parking, dedup."""

    #: Message type -> handler method name, bound per instance: one
    #: exact-type dict lookup per request instead of an isinstance chain.
    _HANDLERS: dict[type, str] = {}

    #: Bound on the request-dedup log, kept only when the network can
    #: deliver a request twice (``Network.redelivers``).  Entries are only
    #: needed while a retry or a duplicate copy can still arrive — a few
    #: RPC timeouts — so FIFO eviction of the oldest entries is safe at any
    #: realistic rate.
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
        #: handling idempotent under client retry and link duplication, so
        #: it is kept only when ``_dedup`` is set: the network can deliver
        #: a request twice (``Network.redelivers``, read once here; a wire
        #: without the flag counts as one that can).  Otherwise it stays
        #: empty and a request costs no log work (DESIGN.md §5b).
        self._dedup = getattr(net, "redelivers", True)
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
        self._dispatch = {cls: getattr(self, name)
                          for cls, name in self._HANDLERS.items()}

    def _handle(self, msg: Any) -> None:
        self.stats["requests"] += 1
        handler = self._dispatch.get(msg.__class__)
        if handler is None:
            raise TypeError(f"{type(self).__name__} got unknown message "
                            f"{msg!r}")
        handler(msg)

    def _handle_epoch_req(self, msg: EpochReq) -> None:
        self._reply(msg, EpochReply(msg.req_id, epoch=self.epoch))

    def _ignore(self, msg: Any) -> None:
        """Handler for a message this server has nothing to do for."""

    def latest_values(self) -> dict[Hashable, Any]:
        """Latest committed value per key written here (never-written keys
        are absent): what a drained scenario run checks its invariants
        against.  Read off the version store; 2PL overrides."""
        latest = {}
        for key, versions, _floor in self.store.snapshot():
            if versions and versions[-1][1] is not BOTTOM:
                latest[key] = versions[-1][1]
        return latest

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
        """Queue handler: dedup by (client, req_id) if a request can
        arrive twice, then dispatch."""
        if self.crashed:
            return  # a crashed CPU finishes nothing
        if msg.__class__ is _Resubmit:
            self._handle(msg.req)
            return
        if self._dedup and msg.is_request:
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
        if self._dedup:
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
                 durable: DurableStore | None = None) -> None:
        super().__init__(sim, net, server_id, profile, rng,
                         queue_capacity=queue_capacity)
        self.registry = registry
        #: Simulated disk (checkpoint + WAL).  None = the original model
        #: where the in-memory version store survives restarts unexamined.
        self.durable = durable
        #: Set on every restart and never cleared here: commits may have
        #: been applied elsewhere while this server was down, so its store
        #: is not a complete prefix.  In the base class because a WAL-only
        #: run reports restarted servers through it (``dirty_at_end``); a
        #: group member refuses snapshot reads while it is set and clears
        #: it by anti-entropy (:class:`~repro.dist.member.ReplicaServer`).
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
        #: Armed write-lock timers, oldest first: ``(when, seq, tx_id,
        #: key)`` under the key reserved at hold time.  ``write_lock_timeout``
        #: is fixed per server, so the keys only grow and the head is the
        #: next to fire; only the head is in the simulator's heap.  Like
        #: heap entries, they survive a crash / restart.
        self._lock_timers: deque[tuple[float, int, Hashable, Hashable]] = (
            deque())
        #: Versions, locks and purge floor, with Alg. 13's per-key steps —
        #: the same object the threaded engine runs.
        self.mvtl = MVTLStore()
        #: Buffered values awaiting freeze: (tx, key) -> value (Alg. 13 l.3).
        self.pending: dict[tuple[Hashable, Hashable], Any] = {}
        self._state_multiplier = 1.0
        self._state_refresh_at = 0
        self.queue.service_time_fn = self._service_time

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
        self.mvtl.locks = LockTable()
        self.pending.clear()
        if self.durable is not None:
            rec = self.durable.recover(
                aborted=lambda tx: self.registry.decision_of(tx) == ABORT)
            self.mvtl.store = rec.store
            self.mvtl.floor = rec.stable_floor
            self._durable_dedup = OrderedDict(
                (tuple(p), None) for p in rec.dedup)
            while len(self._durable_dedup) > self._REQ_LOG_MAX:
                self._durable_dedup.popitem(last=False)
            # The store was rebuilt wholesale: recompute the state-size
            # service multiplier at the next served request.
            self._state_refresh_at = 0
        self.snapshot_dirty = True
        super().restart()
        if self.durable is not None and self._dedup:
            # Re-derive dedup decisions for committed transactions: their
            # requests were applied pre-crash even though the reply cache
            # is gone (the volatile-dedup-cache bug).
            for pair in self._durable_dedup:
                self._req_log[pair] = _APPLIED

    @property
    def locks(self) -> LockTable:
        return self.mvtl.locks

    @property
    def store(self) -> VersionStore:
        return self.mvtl.store

    @property
    def stable_floor(self) -> Timestamp | None:
        """Highest GC purge bound applied here (``mvtl.floor``) — the
        snapshot-read stability frontier (every commit below it is present
        locally)."""
        return self.mvtl.floor

    #: Relative CPU cost of control notifications (commit/gc/release/
    #: purge) vs. data requests: they carry no value payload and do no
    #: version search — in the prototype they are cheap latched updates,
    #: not full skip-list operations.
    CONTROL_MSG_WEIGHT = 0.3

    #: Service-cost class per message type (see :meth:`_service_time`):
    #: 1 = control notification, 2 = per-item batch, 3 = per-entry batch;
    #: absent = full-weight data request.  An exact-type dict lookup
    #: replaces three isinstance chains on the per-request service-time
    #: path.  Subclasses extend it the way they extend ``_HANDLERS``.
    _WEIGHT_KIND: dict[type, int] = {
        CommitReq: 1, ReleaseReq: 1, PurgeReq: 1, EpochReq: 1,
        MVTLBatchLockReq: 2,
    }

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
        kind = self._WEIGHT_KIND.get(msg.__class__)
        if kind is None:  # data request (read / write lock / snapshot read)
            weight = 1.0
        elif kind == 1:  # control notification
            weight = self.CONTROL_MSG_WEIGHT
        elif kind == 2:
            # A batch saves messages, not lock work: it costs one data
            # request per item it carries.
            weight = float(max(1, len(msg.items)))
        else:
            # Applying an entry batch (an anti-entropy delta) is one cheap
            # guarded install per entry.
            weight = self.CONTROL_MSG_WEIGHT * max(1, len(msg.entries))
        return self.profile.service_time * self._state_multiplier * weight

    _HANDLERS = {
        MVTLReadReq: "_handle_read",
        MVTLWriteLockReq: "_handle_write_lock",
        MVTLBatchLockReq: "_handle_batch_lock",
        CommitReq: "_handle_commit_req",
        ReleaseReq: "_handle_release",
        PurgeReq: "_handle_purge",
        EpochReq: "_handle_epoch_req",
    }

    # -- reads ---------------------------------------------------------------

    def _handle_read(self, req: MVTLReadReq) -> None:
        """Read + read-lock a contiguous interval (Alg. 13 lines 5-7).

        Picks ``tr`` = latest version below ``req.upper``, then grants read
        locks on the contiguous range just above ``tr``, truncated at the
        first frozen write lock.  On an *unfrozen* write conflict: park if
        ``req.wait`` (MVTO+), else grant the conflict-free prefix (MVTIL).
        """
        key = req.key
        # The hottest handler in every workload: frozen-write truncation,
        # the conflict probe and the grant are one pass over the key's lock
        # state.
        version, locked, contended = self.mvtl.read(
            req.tx_id, key, req.upper, req.floor, req.wait)
        if version is None:
            self._reply(req, MVTLReadReply(req.req_id,
                                           epoch=self.epoch))  # purged
            return
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
        self._reply(req, MVTLReadReply(req.req_id, tr=version.ts,
                                       value=version.value, locked=locked,
                                       epoch=self.epoch))

    # -- write locks -----------------------------------------------------------

    def _handle_write_lock(self, req: MVTLWriteLockReq) -> None:
        """Acquire write locks and buffer the value (Alg. 13 lines 1-4)."""
        key = req.key
        # One probe: the grant is recorded unless the outcome is one this
        # request does not keep (see KeyLockState.try_acquire).
        got = self.mvtl.acquire(req.tx_id, key, LockMode.WRITE, req.want,
                                req.wait, req.all_or_nothing)
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
        """Buffer a write grant's value (Alg. 13 line 3) and arm the
        write-lock timeout."""
        self.pending[(tx_id, key)] = value
        when, seq = self.sim.reserve(self.write_lock_timeout)
        timers = self._lock_timers
        timers.append((when, seq, tx_id, key))
        if len(timers) == 1:
            self.sim.schedule_at(when, seq, self._fire_lock_timer)

    def _fire_lock_timer(self) -> None:
        """Run the oldest armed write-lock timer at its own key, after
        putting the next one in the heap."""
        timers = self._lock_timers
        _when, _seq, tx_id, key = timers.popleft()
        if timers:
            when, seq, _tx, _key = timers[0]
            self.sim.schedule_at(when, seq, self._fire_lock_timer)
        self._write_lock_timeout(tx_id, key)

    def _handle_batch_lock(self, req: MVTLBatchLockReq) -> None:
        """Apply a per-server batch of non-waiting write-lock requests.

        Each ``(key, value, want)`` item runs the single-key write-lock
        logic (probe, conflict note, acquire, buffer value, arm the
        write-lock timeout) and contributes its grant to one combined
        reply.  Items are independent: a refused key does not roll back its
        batch-mates — the client decides what a partial batch means (MVTIL
        shrinks its interval; all-or-nothing clients abort and release).
        """
        acquired, _ = self._install_write_locks(req.tx_id, req.items,
                                                req.all_or_nothing)
        self._reply(req, MVTLBatchLockReply(req.req_id, acquired=acquired,
                                            epoch=self.epoch))

    def _install_write_locks(self, tx_id: Hashable, items: tuple,
                             all_or_nothing: bool = False
                             ) -> tuple[dict[Hashable, IntervalSet], bool]:
        """The non-waiting write-lock install loop over ``(key, value,
        want)`` items: returns the grant per key and whether every item
        was granted in full."""
        acquired: dict[Hashable, IntervalSet] = {}
        complete = True
        for key, value, want in items:
            got = self.mvtl.acquire(tx_id, key, LockMode.WRITE, want,
                                    all_or_nothing=all_or_nothing)
            if not got.fully_acquired:
                self._note_conflict(key)
                complete = False
                if all_or_nothing:
                    acquired[key] = EMPTY_SET
                    continue
            acquired[key] = got.acquired
            if not got.acquired.is_empty:
                self._hold_write(tx_id, key, value)
        return acquired, complete

    def _write_lock_timeout(self, tx_id: Hashable, key: Hashable) -> None:
        """Alg. 13 write-lock-timeout: suspect the coordinator."""
        if (tx_id, key) not in self.pending:
            return  # already frozen or released
        state = self.locks.peek(key)
        if state is None or not state.unfrozen_writes(tx_id):
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
                # seal this key: freeze the commit point and release the
                # rest of the write-locked span ourselves (the decided
                # transaction can never install at another timestamp).
                # Unfrozen read locks stay — conservatively — until GC
                # purges them.
                st = self.locks.peek(key)
                if st is not None:
                    st.freeze(tx_id, LockMode.WRITE,
                              TsInterval.point(decision))
                    residual = st.unfrozen_writes(tx_id)
                    if residual:
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
        if self.store.version_at(key, ts) is None:
            self.store.install(key, ts, value)
        if self.history is not None:
            # Server-side record: survives coordinators that crash after
            # the decision but before recording their own commit.
            self.history.record_commit_key(tx_id, ts, key)
        self.applied_commits += 1
        # The write point is frozen, and tx's other write-locked timestamps
        # released, by the seal that ends tx here (or the timeout path).
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
                self._seal_tx(req.tx_id, keep_all_reads=False)
                if req.ack:
                    self._reply(req, CommitAck(req.req_id, epoch=self.epoch))
                return
            entries = tuple(
                (key, self._apply_commit(req.tx_id, key, decision,
                                         fallback=req.values.get(key)))
                for key in req.write_keys)
            self._log_commit(req.tx_id, decision, entries,
                             client=req.client, req_id=req.req_id)
            # Seal the ended transaction, one visit per held key: its write
            # point and read spans freeze (the prefix between each version
            # read and ``ts`` seals the serialization decision, Alg. 11).
            # With release=True only that survives (Alg. 11 gc); with
            # release=False every read lock is kept — the MVTO+/no-GC
            # behaviour where read-timestamps persist and state accumulates
            # (Fig. 6).
            self._seal_tx(req.tx_id, not req.release, req.spans,
                          TsInterval.point(decision).flat, req.write_keys)
            if req.ack:
                # Reliable fan-out: confirm application so the client stops
                # retrying this member (the cached reply answers link dups).
                self._reply(req, CommitAck(req.req_id, epoch=self.epoch))

        self._decide(req.tx_id, req.ts, apply)

    def _handle_release(self, req: ReleaseReq) -> None:
        self._seal_tx(req.tx_id, keep_all_reads=req.write_only)

    def _seal_tx(self, tx_id: Hashable, keep_all_reads: bool,
                 spans: dict[Hashable, IntervalSet] | None = None,
                 point: tuple = (), written: tuple = ()) -> None:
        """End-of-transaction lock cleanup, sealing what must persist.

        A commit passes its read ``spans``, its write ``point`` (a flat)
        and the keys ``written`` at it, which freeze before the seal.
        ``keep_all_reads=True`` is the MVTO+ abort (a write-only release)
        or a ``release=False`` commit: unfrozen write locks go, but the
        read locks persist as read-timestamps (sealed).
        ``keep_all_reads=False`` drops everything unfrozen and seals the
        frozen remainder.
        """
        self._drop_parked(tx_id)
        # Set order is per-process: iterate in sorted order so waiter
        # wake-ups happen in the same order every run (reproducibility).
        for key in sorted(self.locks.forget_owner(tx_id), key=str):
            span = spans.get(key) if spans else None
            self.mvtl.seal(tx_id, key, span.flat if span else (),
                           point if key in written else (), keep_all_reads)
            self.pending.pop((tx_id, key), None)
            self._unpark(key)

    def _drop_tx_on_key(self, tx_id: Hashable, key: Hashable) -> None:
        """Release tx's unfrozen locks on one key (timeout-abort path)."""
        self.mvtl.seal(tx_id, key)
        self.pending.pop((tx_id, key), None)

    # -- purge (§6, §8.1) ----------------------------------------------------------

    def _handle_purge(self, req: PurgeReq) -> None:
        purged = self.mvtl.purge(req.bound)
        self.stats["purged_versions"] = (
            self.stats.get("purged_versions", 0) + purged)
        if self.durable is not None:
            self.durable.log_purge(req.bound)
            self.durable.maybe_checkpoint(self.store, self._durable_dedup,
                                          self.stable_floor)

    # -- metrics ---------------------------------------------------------------

    def lock_record_count(self) -> int:
        return self.locks.total_record_count()

    def version_count(self) -> int:
        return self.store.version_count()
