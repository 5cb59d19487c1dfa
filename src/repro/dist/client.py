"""Transaction coordinators — the client side of the distributed protocols.

:class:`BaseClient` is §8.1's framework ("our implementations of MVTO+ and
2PL use the same framework, but run a different client protocol and keep a
different server state").  Two coordinators on it run against
:class:`~repro.dist.server.MVTLServer`:

* :class:`MVTILClient` — the paper's prototype (Alg. 11/12 with the §8
  interval policy): interval ``I = [t, t+delta]``, shrink on partial grants,
  commit at min/max of ``I`` via the commitment object, fire-and-forget
  freeze + GC.  One round trip per read, two per written key.
* :class:`MVTOClient` — MVTO+ over the same servers: single timestamp,
  server-side waiting reads, no-wait commit-time point write locks; aborts
  release only write locks (read-timestamps persist — ghost aborts and all).

The baselines' coordinators sit beside their servers, in
:mod:`repro.dist.twopl` and :mod:`repro.dist.bohm`.

Client methods that talk to servers are **generators** — simulation
coroutines to be driven with ``yield from`` inside a process (see
:mod:`repro.workload.runner`).  Abort is an exception, not a coroutine:
``_fail`` and the guard helpers built on it (``_check_deadline``,
``_admit``, ``_expect``, ``_expect_all``, ``_check_epoch``) are plain
methods that send the releases and raise :class:`TransactionAborted` —
nothing on the abort path waits for a reply.  A coordinator failure is
simulated by simply not running the rest of the generator (see
:mod:`repro.dist.failure`); the servers' write-lock timeout then aborts the
orphaned transaction via its commitment object.

Replication-group coordination (fencing, mirroring, snapshot reads) is
:class:`~repro.dist.member.ReplicaClient`, an MVTIL subclass.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Generator, Hashable, NoReturn

import numpy as np

from ..clocks.clock import Clock
from ..core.exceptions import AbortReason, TransactionAborted
from ..core.intervals import EMPTY_SET, IntervalSet, TsInterval
from ..core.timestamp import Timestamp
from ..obs.trace import NULL_TRACER
from ..policies.registry import policy_spec
from ..sim.network import Network
from ..sim.simulator import RECV_TIMEOUT, Mailbox, Recv, Simulator
from ..repl.placement import ReplicatedPlacement
from .commitment import ABORT, CommitmentRegistry
from .messages import (ClockBroadcast, CommitReq, EpochReq,
                       MVTLBatchLockReq, MVTLReadReq, MVTLWriteLockReq,
                       OverloadedReply, ReleaseReq, Reply)

__all__ = ["BaseClient", "CircuitBreaker", "MVTILClient", "MVTOClient",
           "Tx"]


class Tx:
    """Coordinator-side record of one transaction attempt (all protocols).

    ``begin`` creates one per attempt and every client op takes it.  The
    constructor fills what every protocol uses; a protocol's ``begin`` sets
    its own fields and leaves the others' unset (reading one raises
    ``AttributeError``, as a typo would).
    """

    __slots__ = (
        "id", "deadline", "priority", "aborted", "abort_reason", "committed",
        "readset", "writeset", "touched", "epochs",
        # MVTIL: the shrinking interval; ReplicaClient: group fencing,
        # snapshot mode.
        "interval", "group_epochs", "snapshot_ts",
        # MVTO+: the single timestamp, servers holding point write locks.
        "ts", "write_servers",
        # 2PL: keys locked so far.
        "locked_keys",
    )

    def __init__(self, id: tuple, deadline: float | None,
                 priority: bool) -> None:
        self.id = id
        self.deadline = deadline
        self.priority = priority
        self.aborted = False
        self.abort_reason: AbortReason | None = None
        self.committed = False
        self.readset: list[tuple[Hashable, Timestamp]] = []
        self.writeset: dict[Hashable, Any] = {}
        self.touched: set[Hashable] = set()
        self.epochs: dict[Hashable, int] = {}


class CircuitBreaker:
    """Per-server admission gate: closed -> open -> half-open -> closed.

    Counts consecutive overload signals (OVERLOADED replies, RPC timeouts)
    against one server.  At ``threshold`` the breaker *opens*: the client
    stops sending new normal-transaction work to that server for
    ``cooldown`` seconds — backing off instead of feeding a saturated
    queue.  After the cooldown one *probe* request is admitted (half-open);
    its success closes the breaker, its failure re-opens it for another
    cooldown.  Any success closes the breaker and clears the failure count.
    """

    __slots__ = ("threshold", "cooldown", "failures", "opened_until",
                 "state", "trips")

    def __init__(self, threshold: int = 8, cooldown: float = 0.5) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_until = 0.0
        self.state = "closed"
        self.trips = 0

    def allow(self, now: float) -> bool:
        """May a new normal request be sent to this server right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if now >= self.opened_until:
                self.state = "half-open"  # admit exactly one probe
                return True
            return False
        return False  # half-open: the probe is in flight, hold the rest

    def record_failure(self, now: float) -> None:
        if self.state == "half-open":
            # The recovery probe failed: the server is still saturated.
            self._open(now)
            return
        self.failures += 1
        if self.state == "closed" and self.failures >= self.threshold:
            self._open(now)

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"

    def _open(self, now: float) -> None:
        self.state = "open"
        self.opened_until = now + self.cooldown
        self.trips += 1


class BaseClient:
    """Shared client wiring: mailbox, RPC with timeout, clock, history."""

    def __init__(self, sim: Simulator, net: Network, client_id: Hashable,
                 pid: int, partition: ReplicatedPlacement, clock: Clock,
                 registry: CommitmentRegistry, *,
                 history: Any | None = None,
                 rpc_timeout: float = 5.0,
                 rpc_retries: int = 0,
                 validate_epochs: bool = False,
                 consensus: Any | None = None,
                 tracer: Any | None = None,
                 tx_budget: float | None = None,
                 admission_control: bool = False,
                 breaker_threshold: int = 8,
                 breaker_cooldown: float = 0.5,
                 rng: np.random.Generator | None = None) -> None:
        self.sim = sim
        self.net = net
        self.client_id = client_id
        self.pid = pid
        self.partition = partition
        self.clock = clock
        self.registry = registry
        #: Optional PaxosConsensus backend for transaction outcomes (§H.1
        #: "servers may fail" mode); None = the shared in-sim object.
        self.consensus = consensus
        self.history = history
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.rpc_timeout = rpc_timeout
        #: Default number of times an unanswered RPC is re-sent (same
        #: request object, same ``req_id`` — the server's dedup log absorbs
        #: the duplicates).  Each attempt doubles the previous attempt's
        #: timeout (exponential backoff).  0 = at-most-once, the original
        #: behaviour.
        self.rpc_retries = rpc_retries
        #: Re-check every touched server's epoch just before proposing
        #: commit.  Closes the restart window: a server that crashed and
        #: rejoined with empty volatile lock state after granting us a lock
        #: is detected and the transaction aborted instead of committing on
        #: locks that no longer exist.  Enabled by run_cluster for chaos
        #: scenarios with server restarts.
        self.validate_epochs = validate_epochs
        #: Per-transaction time budget: every transaction begun gets the
        #: absolute deadline ``now + tx_budget``, propagated on its data
        #: requests (servers drop expired ones) and enforced client-side as
        #: ``AbortReason.DEADLINE_EXCEEDED``.  None = no deadlines.
        self.tx_budget = tx_budget
        #: Per-server circuit breakers (admission control); None = off.
        self._breakers: dict[Hashable, CircuitBreaker] | None = (
            {} if admission_control else None)
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        #: Seeded stream for retry-backoff jitter (None = no jitter —
        #: synchronized clients then retry in lockstep, the storm the
        #: jitter exists to break).
        self.rng = rng
        self.mailbox = Mailbox(sim)
        net.register(client_id, self._on_message)
        self._req_counter = count(1)
        self._tx_counter = count(1)
        self.stats = {"commits": 0, "aborts": 0, "rpc_timeouts": 0,
                      "rpc_retries": 0, "msgs_sent": 0, "overloaded": 0,
                      "admission_rejects": 0}

    # -- messaging ------------------------------------------------------------

    def _on_message(self, msg: Any) -> None:
        if not msg.is_reply and self._handle_oob(msg):
            return
        self.mailbox.deliver(msg)

    def _handle_oob(self, msg: Any) -> bool:
        """Handle out-of-band (non-RPC-reply) traffic; True if consumed.

        Called both on direct delivery and from the RPC receive loops, so a
        broadcast that lands in the mailbox while an RPC is pending is still
        processed instead of being silently dropped.
        """
        if msg.__class__ is ClockBroadcast:
            # Timestamp-service effect 2 (§8.1): slow clocks advance to T.
            self.clock.advance_floor(msg.t)
            return True
        return False

    def _send(self, server: Hashable, msg: Any) -> None:
        self.stats["msgs_sent"] += 1
        self.net.send(server, msg, src=self.client_id)

    def _backoff_window(self, base: float, attempt: int) -> float:
        """Per-attempt listening window: exponential with seeded jitter.

        The window doubles per attempt; retries (attempt > 0) additionally
        draw a jitter factor in [1.0, 2.0) from the client's seeded stream,
        so clients that timed out together do not re-arrive at the server
        in lockstep retry storms.  Attempt 0 is exact — the first timeout
        is a tuned semantic bound, not a retry.
        """
        window = base * (2 ** attempt)
        if attempt and self.rng is not None:
            window *= 1.0 + float(self.rng.random())
        return window

    def _breaker_for(self, server: Hashable) -> CircuitBreaker | None:
        if self._breakers is None:
            return None
        breaker = self._breakers.get(server)
        if breaker is None:
            breaker = self._breakers[server] = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown)
        return breaker

    def _rpc(self, server: Hashable, msg: Any,
             timeout: float | None = None, retries: int | None = None,
             breaker_timeouts: bool = True
             ) -> Generator[Any, Any, Reply | None]:
        """Send and await the matching reply; None after all attempts fail.

        The request is re-sent up to ``retries`` times (default: the
        client's ``rpc_retries``) with per-attempt timeouts doubling each
        time, jittered by the client's seeded stream (see
        :meth:`_backoff_window`).  The same message object — and hence the
        same ``req_id`` — goes out every attempt, so the server's
        request-dedup log makes the call at-least-once safe: a retried lock
        install is applied once and the cached reply is resent.  Pass
        ``retries=0`` for semantic timeouts (lock-wait deadlock prevention)
        where re-sending would defeat the timeout's purpose;
        ``breaker_timeouts=False`` additionally keeps those semantic
        timeouts out of the circuit breaker (a lock wait lost to contention
        is not evidence the server is saturated).

        Overload control: a request carrying a transaction deadline never
        waits — or retries — past it (retrying into a saturated server just
        deepens its queue).  An OVERLOADED reply is returned to the caller
        (who aborts) and ends the attempt loop immediately.  Outcomes feed
        the per-server circuit breaker when admission control is on.

        Stale replies (from earlier timed-out requests) are discarded by
        request id; non-Reply traffic is routed to :meth:`_handle_oob`.
        """
        base = timeout if timeout is not None else self.rpc_timeout
        attempts = 1 + (retries if retries is not None else self.rpc_retries)
        msg_deadline = msg.deadline
        breaker = self._breaker_for(server)
        sent = False
        for attempt in range(attempts):
            if msg_deadline is not None and self.sim.now >= msg_deadline:
                break  # budget exhausted: stop feeding the queue
            if attempt:
                self.stats["rpc_retries"] += 1
            self._send(server, msg)
            sent = True
            deadline = self.sim.now + self._backoff_window(base, attempt)
            if msg_deadline is not None:
                deadline = min(deadline, msg_deadline)
            while True:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    break
                reply = yield Recv(self.mailbox, timeout=remaining)
                if reply is RECV_TIMEOUT:
                    break
                if not reply.is_reply:
                    self._handle_oob(reply)
                    continue
                if reply.req_id == msg.req_id:
                    if reply.__class__ is OverloadedReply:
                        self.stats["overloaded"] += 1
                        if breaker is not None:
                            breaker.record_failure(self.sim.now)
                    elif breaker is not None:
                        breaker.record_success()
                    return reply
                # Stale reply from an earlier timed-out request: drop it.
            self.stats["rpc_timeouts"] += 1
        if sent and breaker is not None and breaker_timeouts:
            breaker.record_failure(self.sim.now)
        return None

    def _rpc_many(self, msgs: dict[Hashable, Any], timeout: float | None = None,
                  retries: int | None = None
                  ) -> Generator[Any, Any, dict[Hashable, Reply]]:
        """Send one message per server, then await every matching reply.

        All messages go out before any reply is awaited, so the round trips
        overlap — the whole fan-out costs one RTT plus queueing, not one
        RTT per server.  Unanswered requests are re-sent like :meth:`_rpc`
        (only the missing ones; answered servers are not bothered again).

        Returns ``{server: reply}`` with whatever arrived — **possibly
        partial**.  Callers must compare ``len(replies)`` against
        ``len(msgs)``: a partial map still tells the abort path exactly
        which servers granted locks, so it can release them instead of
        leaving them to the server-side write-lock timeout.  A reply may
        also be an :class:`OverloadedReply` (the server shed the request);
        callers must check before touching protocol fields.
        """
        base = timeout if timeout is not None else self.rpc_timeout
        attempts = 1 + (retries if retries is not None else self.rpc_retries)
        pending = dict(msgs)
        replies: dict[Hashable, Reply] = {}
        contacted: set[Hashable] = set()
        msg_deadline: float | None = None
        for msg in msgs.values():
            d = msg.deadline
            if d is not None:
                msg_deadline = d if msg_deadline is None else min(
                    msg_deadline, d)
        for attempt in range(attempts):
            if not pending:
                break
            if msg_deadline is not None and self.sim.now >= msg_deadline:
                break  # budget exhausted: stop feeding the queues
            for server, msg in pending.items():
                if attempt:
                    self.stats["rpc_retries"] += 1
                self._send(server, msg)
                contacted.add(server)
            wanted = {msg.req_id: server for server, msg in pending.items()}
            deadline = self.sim.now + self._backoff_window(base, attempt)
            if msg_deadline is not None:
                deadline = min(deadline, msg_deadline)
            while wanted:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    break
                reply = yield Recv(self.mailbox, timeout=remaining)
                if reply is RECV_TIMEOUT:
                    break
                if not reply.is_reply:
                    self._handle_oob(reply)
                    continue
                if reply.req_id in wanted:
                    server = wanted.pop(reply.req_id)
                    del pending[server]
                    replies[server] = reply
                    breaker = self._breaker_for(server)
                    if reply.__class__ is OverloadedReply:
                        self.stats["overloaded"] += 1
                        if breaker is not None:
                            breaker.record_failure(self.sim.now)
                    elif breaker is not None:
                        breaker.record_success()
            if wanted:
                self.stats["rpc_timeouts"] += 1
        if self._breakers is not None:
            for server in pending:
                if server in contacted:
                    self._breaker_for(server).record_failure(self.sim.now)
        return replies

    def _next_req(self) -> int:
        return next(self._req_counter)

    # -- overload control --------------------------------------------------

    def _tx_deadline(self) -> float | None:
        """Absolute deadline for a transaction begun now (None = no budget)."""
        if self.tx_budget is None:
            return None
        return self.sim.now + self.tx_budget

    def _check_deadline(self, tx: Tx) -> None:
        """Abort (releasing locks) once the transaction's deadline passed.

        Called at the top of data-path ops: a late transaction stops
        issuing work instead of adding stale requests to the very queues
        that made it late.
        """
        if tx.deadline is not None and self.sim.now >= tx.deadline:
            self._fail(tx, AbortReason.DEADLINE_EXCEEDED)

    def _timeout_reason(self, tx: Tx, default: AbortReason) -> AbortReason:
        """Abort reason for an unanswered RPC: deadline-aware.

        If the transaction's deadline expired while the RPC waited (or
        kept the RPC from being (re)sent at all), the timeout is really
        deadline exhaustion — report it as such so retry policy and stats
        distinguish overload from packet loss.
        """
        if tx.deadline is not None and self.sim.now >= tx.deadline:
            return AbortReason.DEADLINE_EXCEEDED
        return default

    def _expect(self, tx: Tx, reply: Reply | None,
                timeout_reason: AbortReason) -> Reply:
        """Abort on the two overload outcomes of an RPC; pass the rest.

        ``None`` (all attempts timed out / deadline expired) aborts with
        ``timeout_reason`` mapped through :meth:`_timeout_reason`; an
        :class:`OverloadedReply` (the server shed us) aborts with
        ``AbortReason.OVERLOADED``.  Anything else is a protocol reply and
        is returned for the caller to interpret.
        """
        if reply is None:
            self._fail(tx, self._timeout_reason(tx, timeout_reason))
        if reply.__class__ is OverloadedReply:
            self._fail(tx, AbortReason.OVERLOADED)
        return reply

    def _expect_all(self, tx: Tx, reqs: dict[Hashable, Any],
                    replies: dict[Hashable, Reply]) -> None:
        """:meth:`_expect` for an :meth:`_rpc_many` fan-out: abort unless
        every request got a protocol reply.

        A saturated server shed its request (``OVERLOADED``), or the map is
        partial (``RPC_TIMEOUT``, deadline-aware).  Either way ``_fail``
        releases on every server the transaction may hold locks at —
        including the responders that did install theirs.
        """
        if any(r.__class__ is OverloadedReply for r in replies.values()):
            self._fail(tx, AbortReason.OVERLOADED)
        if len(replies) < len(reqs):
            self._fail(tx, self._timeout_reason(tx, AbortReason.RPC_TIMEOUT))

    def _admit(self, tx: Tx, server: Hashable) -> None:
        """Admission control: refuse new work against a tripped server.

        Critical transactions bypass the gate entirely — Theorem 3's
        guarantee (criticals are never starved by normals) carried into
        the distributed layer; the bounded server queue never sheds them
        either.  In the open state everything normal is rejected up front
        (cheap client-side abort instead of a doomed round trip); after
        the cooldown :meth:`CircuitBreaker.allow` admits a single probe
        whose outcome decides whether the breaker closes.
        """
        if self._breakers is None or tx.priority:
            return
        breaker = self._breakers.get(server)
        if breaker is not None and not breaker.allow(self.sim.now):
            self.stats["admission_rejects"] += 1
            self._fail(tx, AbortReason.OVERLOADED)

    # -- epoch fencing -----------------------------------------------------

    def _check_epoch(self, tx: Tx, server: Hashable, epoch: int) -> None:
        """Abort if ``server`` restarted since this tx first talked to it.

        Servers stamp every reply with their epoch (bumped on restart).  A
        restarted server rejoined with empty volatile lock state, so any
        lock this transaction installed there before the crash is gone —
        committing anyway could serialize against readers/writers the lost
        lock was supposed to exclude.
        """
        first = tx.epochs.setdefault(server, epoch)
        if first != epoch:
            self._fail(tx, AbortReason.SERVER_RESTART)

    def _validate_epochs(self, tx: Tx) -> Generator[Any, Any, None]:
        """Pre-commit epoch round: confirm no touched server restarted.

        One EpochReq per touched server, fanned out in parallel.  Under the
        local (shared-object) commitment backend the reply handling, the
        commit proposal and the commit messages all happen in one
        simulation step, so no restart can slip between validation and
        decision.
        """
        reqs = {server: EpochReq(tx.id, self.client_id, self._next_req(),
                                 deadline=tx.deadline, critical=tx.priority)
                for server in sorted(tx.touched, key=str)}
        replies = yield from self._rpc_many(reqs)
        self._expect_all(tx, reqs, replies)
        for server, reply in replies.items():
            self._check_epoch(tx, server, reply.epoch)

    # -- bookkeeping -------------------------------------------------------------

    def _begin_record(self, tx: Tx) -> None:
        if self.history is not None:
            self.history.record_begin(tx.id)
        if self.tracer.enabled:
            self.tracer.begin(tx.id, pid=self.pid)

    def _abort(self, tx: Tx, reason: str) -> NoReturn:
        """Abort tail of every ``_fail``: record, count, trace, raise."""
        tx.aborted = True
        tx.abort_reason = AbortReason.of(reason)
        self.stats["aborts"] += 1
        if self.history is not None:
            self.history.record_abort(tx.id, tx.abort_reason)
        if self.tracer.enabled:
            self.tracer.abort(tx.id, reason=tx.abort_reason)
        raise TransactionAborted(tx.id, reason)

    def _committed(self, tx: Tx, ts: Timestamp) -> bool:
        """Commit tail of every coordinator: record, count, drop the
        commitment object (2PL and Bohm have none), trace."""
        if self.history is not None:
            self.history.record_commit(tx.id, ts, tuple(tx.writeset))
        self.stats["commits"] += 1
        self.registry.forget(tx.id)
        tx.committed = True
        if self.tracer.enabled:
            self.tracer.commit(tx.id, ts=ts)
        return True

    def _propose(self, tx: Tx,
                 outcome: Any) -> "Generator[Any, Any, Any]":
        """Decide the transaction outcome via the configured backend."""
        if self.consensus is not None:
            decision = yield from self.consensus.propose(
                tx.id, outcome, proposer_id=self.pid)
            return decision
        return self.registry.get(tx.id).propose(outcome)

    def _route(self, tx: Tx, key: Hashable) -> Hashable:
        """The server ``tx``'s request on ``key`` goes to: its partition."""
        return self.partition.server_of(key)


class MVTILClient(BaseClient):
    """The MVTIL coordinator (§8, Alg. 11/12)."""

    def __init__(self, *args: Any, delta: float = 0.005, late: bool = False,
                 read_timeout: float = 0.25, defer_writes: bool = False,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.delta = delta
        self.late = late
        #: Bound on a read's server-side lock wait.  Waiting reads can form
        #: wait cycles with writers (the deadlock risk §4.3 notes for
        #: waiting policies); timing out and restarting the transaction is
        #: the standard resolution.
        self.read_timeout = read_timeout
        #: Batched write locking: buffer writes locally and acquire the
        #: whole write-lock set at commit with one MVTLBatchLockReq per
        #: server — O(servers touched) commit-path messages instead of
        #: O(written keys).  Off by default: the eager per-key path is
        #: Alg. 12 as written (and what the failure tests exercise —
        #: a crashed coordinator's eagerly-placed locks must be timed out
        #: server-side); :func:`repro.dist.cluster.run_cluster` turns it on
        #: via ``ClusterConfig.batching``.
        self.defer_writes = defer_writes
        self.name = "mvtil-late" if late else "mvtil-early"
        #: How much wider a critical transaction's interval is, declared by
        #: the policy registry (the MVTL-Prio capability this protocol maps
        #: onto finite intervals) rather than reached out of a policy
        #: module's private constant.
        self.critical_delta_factor = policy_spec(
            self.name).critical_delta_factor

    def begin(self, priority: bool = False,
              read_only: bool = False) -> Tx:
        # read_only: interface uniformity here; ReplicaClient acts on it.
        now = self.clock.now()
        # Critical transactions get a wider interval — more timestamps to
        # survive shrinking, the finite-delta analogue of MVTL-Prio's
        # lock-everything (the registry's critical_delta_factor capability).
        delta = self.delta * (self.critical_delta_factor
                              if priority else 1.0)
        interval = TsInterval.closed(Timestamp(now, self.pid),
                                     Timestamp(now + delta, self.pid))
        tx = Tx((self.client_id, next(self._tx_counter)),
                self._tx_deadline(), priority)
        tx.interval = IntervalSet.from_interval(interval)
        self._begin_record(tx)
        return tx

    # Each op is a simulation coroutine; drive with ``yield from``.

    def read(self, tx: Tx, key: Hashable) -> Generator[Any, Any, Any]:
        if key in tx.writeset:
            return tx.writeset[key]
        if tx.interval.is_empty:
            self._fail(tx, AbortReason.INTERVAL_EMPTY)
        # Guards inlined (see MVTOClient.read): the no-op path of this hot
        # coroutine tests each condition in place.
        if tx.deadline is not None and self.sim.now >= tx.deadline:
            self._fail(tx, AbortReason.DEADLINE_EXCEEDED)
        server = self._route(tx, key)
        if self._breakers is not None and not tx.priority:
            self._admit(tx, server)
        req = MVTLReadReq(tx.id, self.client_id, self._next_req(), key=key,
                          upper=tx.interval.pick_high(), wait=True,
                          floor=tx.interval.pick_low(),
                          deadline=tx.deadline, critical=tx.priority)
        tx.touched.add(server)
        requested = tx.interval
        # retries=0: the read timeout is semantic (waiting reads can form
        # wait cycles with writers; timing out breaks them) — re-sending
        # would just park a duplicate behind the same writer.
        # breaker_timeouts=False for the same reason: a read wait lost to
        # a writer is contention, not server saturation.
        reply = yield from self._rpc(server, req,
                                     timeout=self.read_timeout, retries=0,
                                     breaker_timeouts=False)
        if reply is None or reply.__class__ is OverloadedReply:
            self._expect(tx, reply, AbortReason.READ_LOCK_TIMEOUT)
        if reply.tr is None:
            self._fail(tx, AbortReason.PURGED_VERSION)
        if tx.epochs.setdefault(server, reply.epoch) != reply.epoch:
            self._fail(tx, AbortReason.SERVER_RESTART)
        tx.interval = tx.interval.intersect(reply.locked)
        if self.tracer.enabled:
            self.tracer.lock_acquire(tx.id, key, "read",
                                     requested=requested,
                                     granted=tx.interval)
            self.tracer.read(tx.id, key, ts=reply.tr)
        if tx.interval.is_empty:
            self._fail(tx, AbortReason.INTERVAL_EMPTY)
        tx.readset.append((key, reply.tr))
        if self.history is not None:
            self.history.record_read(tx.id, key, reply.tr)
        return reply.value

    def write(self, tx: Tx, key: Hashable,
              value: Any) -> Generator[Any, Any, None]:
        if tx.interval.is_empty:
            self._fail(tx, AbortReason.INTERVAL_EMPTY)
        if self.defer_writes:
            # Buffer locally; the whole write-lock set is acquired at
            # commit, one batch message per server.
            tx.writeset[key] = value
            if self.tracer.enabled:
                self.tracer.write(tx.id, key)
            return
        # Guards inlined (see MVTOClient.read).
        if tx.deadline is not None and self.sim.now >= tx.deadline:
            self._fail(tx, AbortReason.DEADLINE_EXCEEDED)
        server = self._route(tx, key)
        if self._breakers is not None and not tx.priority:
            self._admit(tx, server)
        req = MVTLWriteLockReq(tx.id, self.client_id, self._next_req(),
                               key=key, value=value, want=tx.interval,
                               wait=False,
                               deadline=tx.deadline, critical=tx.priority)
        tx.touched.add(server)
        if not tx.writeset:
            # First written key's server is the decision point (§H.1).
            self.registry.set_decision_point(tx.id, server)
        requested = tx.interval
        reply = yield from self._rpc(server, req)
        if reply is None or reply.__class__ is OverloadedReply:
            self._expect(tx, reply, AbortReason.RPC_TIMEOUT)
        if tx.epochs.setdefault(server, reply.epoch) != reply.epoch:
            self._fail(tx, AbortReason.SERVER_RESTART)
        tx.interval = tx.interval.intersect(reply.acquired)
        if self.tracer.enabled:
            self.tracer.lock_acquire(tx.id, key, "write",
                                     requested=requested,
                                     granted=tx.interval)
            self.tracer.write(tx.id, key)
        if tx.interval.is_empty:
            self._fail(tx, AbortReason.INTERVAL_EMPTY)
        tx.writeset[key] = value

    def commit(self, tx: Tx) -> Generator[Any, Any, bool]:
        if tx.interval.is_empty:
            self._fail(tx, AbortReason.INTERVAL_EMPTY)
        if self.defer_writes and tx.writeset:
            yield from self._batch_write_locks(tx)
        if self.validate_epochs and tx.touched:
            yield from self._validate_epochs(tx)
        ts = (tx.interval.pick_high() if self.late
              else tx.interval.pick_low())
        decision = yield from self._propose(tx, ts)
        if decision == ABORT:
            self._fail(tx, AbortReason.COMMITMENT_ABORT)
        ts = decision
        # One CommitReq per touched server: freeze+install the write keys,
        # freeze the read-lock prefixes (they seal the serialization
        # decision), and release the rest.  The server applies all of it
        # atomically under the key latches (§8.1).
        yield from self._send_commit(tx, ts)
        return self._committed(tx, ts)

    def _batch_write_locks(self, tx: Tx
                           ) -> Generator[Any, Any, list[tuple]]:
        """Deferred write-lock pass: one MVTLBatchLockReq per server.

        All batches fly in parallel (:meth:`_rpc_many`), so the whole pass
        costs one round trip regardless of how many servers the write set
        spans — and O(servers) messages instead of O(written keys).
        Returns the per-key grants ``(key, granted)`` in request order.
        """
        by_server: dict[Hashable, list[Hashable]] = {}
        for key in tx.writeset:
            by_server.setdefault(self._route(tx, key), []).append(key)
        servers = list(by_server)
        # The first write server becomes the decision point (§H.1) —
        # before any lock lands, so a server that times out our orphaned
        # write lock reaches the same commitment object we propose to.
        self.registry.set_decision_point(tx.id, servers[0])
        requested = tx.interval
        reqs: dict[Hashable, MVTLBatchLockReq] = {}
        for server in servers:
            tx.touched.add(server)
            items = tuple((key, tx.writeset[key], requested)
                          for key in by_server[server])
            reqs[server] = MVTLBatchLockReq(tx.id, self.client_id,
                                            self._next_req(), items=items,
                                            deadline=tx.deadline,
                                            critical=tx.priority)
        replies = yield from self._rpc_many(reqs)
        self._expect_all(tx, reqs, replies)
        grants = []
        for server in servers:
            self._check_epoch(tx, server, replies[server].epoch)
            acquired = replies[server].acquired
            for key in by_server[server]:
                granted = acquired.get(key, EMPTY_SET)
                grants.append((key, granted))
                tx.interval = tx.interval.intersect(granted)
                if self.tracer.enabled:
                    self.tracer.lock_acquire(tx.id, key, "write",
                                             requested=requested,
                                             granted=tx.interval)
        if tx.interval.is_empty:
            self._fail(tx, AbortReason.INTERVAL_EMPTY)
        return grants

    def _key_destinations(self, key: Hashable) -> tuple[Hashable, ...]:
        """Servers a key's commit-time state must reach: its partition."""
        return (self.partition.server_of(key),)

    def _commit_reqs(self, tx: Tx, ts: Timestamp,
                     ack: bool = False) -> dict[Hashable, CommitReq]:
        """Alg. 11 commit tail + gc: one CommitReq per destination server."""
        spans_by_server: dict[Hashable, dict[Hashable, IntervalSet]] = {}
        for key, tr in tx.readset:
            if tr < ts:
                span = IntervalSet.from_interval(
                    TsInterval.open_closed(tr, ts))
            else:
                span = EMPTY_SET
            for server in self._key_destinations(key):
                spans_by_server.setdefault(server, {})[key] = span
            if self.tracer.enabled:
                self.tracer.freeze(tx.id, key, "read", span=span)
        if self.tracer.enabled:
            for key in tx.writeset:
                self.tracer.freeze(tx.id, key, "write", span=None, ts=ts)
        writes_by_server: dict[Hashable, list[Hashable]] = {}
        for key in tx.writeset:
            for server in self._key_destinations(key):
                writes_by_server.setdefault(server, []).append(key)
        targets = set(tx.touched)
        targets.update(spans_by_server)
        targets.update(writes_by_server)
        # Sorted fan-out: tx.touched is a set, and set order over string
        # ids varies per process (hash randomization) — send order must
        # not, or the network RNG draws diverge between identical runs.
        reqs: dict[Hashable, CommitReq] = {}
        for server in sorted(targets, key=str):
            keys = tuple(writes_by_server.get(server, ()))
            reqs[server] = CommitReq(
                tx.id, self.client_id, self._next_req(), ts=ts,
                write_keys=keys,
                spans=spans_by_server.get(server, {}),
                release=True,
                # Redo payload: lets a server that lost its pending buffer
                # in a crash still install the right values.
                values={k: tx.writeset[k] for k in keys},
                ack=ack)
        return reqs

    def _send_commit(self, tx: Tx, ts: Timestamp
                     ) -> Generator[Any, Any, None]:
        """Send the commit requests fire-and-forget (the paper's
        notification).  A generator, so a subclass may await acks."""
        for server, req in self._commit_reqs(tx, ts).items():
            self._send(server, req)
        return
        yield  # pragma: no cover - generator for the subclass's sake

    def _fail(self, tx: Tx, reason: str) -> NoReturn:
        """Abort: agree on the outcome, release our locks everywhere.

        No consensus round is needed on this path: we release our locks
        explicitly, and nobody else will ever propose commit for us (only
        the coordinator does, §H Lemma 2).  In local mode we still record
        the abort in the shared object so late server proposals see it.
        """
        if self.consensus is None:
            self.registry.get(tx.id).propose(ABORT)
        for server in sorted(tx.touched, key=str):
            self._send(server, ReleaseReq(tx.id, self.client_id,
                                          self._next_req()))
        self.registry.forget(tx.id)
        self._abort(tx, reason)


class MVTOClient(BaseClient):
    """MVTO+ coordinator over the MVTL servers (§8.1 baseline)."""

    name = "mvto+"

    def __init__(self, *args: Any, batch_commit: bool = False,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Batch the commit-time point write locks per server (one
        #: MVTLBatchLockReq each) instead of one RPC per written key.  Off
        #: by default for protocol fidelity with the per-key pseudo-code;
        #: ``ClusterConfig.batching`` turns it on.
        self.batch_commit = batch_commit

    def begin(self, priority: bool = False,
              read_only: bool = False) -> Tx:
        # read_only is accepted for interface uniformity; MVTO+ has no
        # snapshot-read path (reads already never wait on read locks).
        # MVTO+ has no protocol-level shield for criticals (that is the
        # paper's point, Theorem 3) — but they still ride the overload
        # machinery: priority service class, never shed, admission bypass.
        tx = Tx((self.client_id, next(self._tx_counter)),
                self._tx_deadline(), priority)
        tx.ts = Timestamp(self.clock.now(), self.pid)
        tx.write_servers = set()
        self._begin_record(tx)
        return tx

    def read(self, tx: Tx, key: Hashable) -> Generator[Any, Any, Any]:
        if key in tx.writeset:
            return tx.writeset[key]
        # The guards below are _check_deadline/_admit/_expect/_check_epoch
        # with their conditions tested in place: this is the hottest
        # coroutine in the closed loop, and calling the four helpers
        # unconditionally instead — plain calls, but four per read that
        # usually do nothing — measured 0.962x on ``mvto-grid`` (1 win of
        # 12 alternating pairs, PR 20).
        if tx.deadline is not None and self.sim.now >= tx.deadline:
            self._fail(tx, AbortReason.DEADLINE_EXCEEDED)
        server = self._route(tx, key)
        if self._breakers is not None and not tx.priority:
            self._admit(tx, server)
        req = MVTLReadReq(tx.id, self.client_id, self._next_req(), key=key,
                          upper=tx.ts, wait=True,
                          deadline=tx.deadline, critical=tx.priority)
        tx.touched.add(server)
        reply = yield from self._rpc(server, req)
        if reply is None or reply.__class__ is OverloadedReply:
            self._expect(tx, reply, AbortReason.RPC_TIMEOUT)
        if reply.tr is None:
            self._fail(tx, AbortReason.PURGED_VERSION)
        if tx.epochs.setdefault(server, reply.epoch) != reply.epoch:
            self._fail(tx, AbortReason.SERVER_RESTART)
        tx.readset.append((key, reply.tr))
        if self.history is not None:
            self.history.record_read(tx.id, key, reply.tr)
        if self.tracer.enabled:
            self.tracer.read(tx.id, key, ts=reply.tr)
        return reply.value

    def write(self, tx: Tx, key: Hashable,
              value: Any) -> Generator[Any, Any, None]:
        tx.writeset[key] = value  # lock only at commit (like MVTL-TO)
        if self.tracer.enabled:
            self.tracer.write(tx.id, key)
        return
        yield  # pragma: no cover - generator for interface uniformity

    def commit(self, tx: Tx) -> Generator[Any, Any, bool]:
        point = IntervalSet.point(tx.ts)
        if self.batch_commit and tx.writeset:
            yield from self._batch_commit_locks(tx, point)
        else:
            for key in tx.writeset:
                server = self._route(tx, key)
                tx.touched.add(server)
                tx.write_servers.add(server)
                if len(tx.write_servers) == 1:
                    self.registry.set_decision_point(tx.id, server)
                req = MVTLWriteLockReq(tx.id, self.client_id,
                                       self._next_req(),
                                       key=key, value=tx.writeset[key],
                                       want=point, wait=False,
                                       all_or_nothing=True,
                                       deadline=tx.deadline,
                                       critical=tx.priority)
                reply = yield from self._rpc(server, req)
                if reply is None or reply.__class__ is OverloadedReply:
                    self._expect(tx, reply, AbortReason.RPC_TIMEOUT)
                if tx.epochs.setdefault(server, reply.epoch) != reply.epoch:
                    self._fail(tx, AbortReason.SERVER_RESTART)
                if self.tracer.enabled:
                    self.tracer.lock_acquire(tx.id, key, "write",
                                             requested=point,
                                             granted=reply.acquired)
                if reply.acquired.is_empty:
                    # Read-timestamp conflict: abort, releasing write locks
                    # only.  Read locks persist — MVTO+'s read-timestamps
                    # are never rolled back (§3), hence ghost aborts.
                    self._fail(tx, AbortReason.WRITE_CONFLICT)
        if self.validate_epochs and tx.touched:
            yield from self._validate_epochs(tx)
        decision = yield from self._propose(tx, tx.ts)
        if decision == ABORT:
            self._fail(tx, AbortReason.COMMITMENT_ABORT)
        writes_by_server: dict[Hashable, list[Hashable]] = {}
        for key in tx.writeset:
            writes_by_server.setdefault(self._route(tx, key), []).append(key)
        for server, keys in writes_by_server.items():
            # Freeze write locks only; read locks stay held-unfrozen forever
            # (MVTO+'s persistent read-timestamps), hence release=False and
            # no read spans.
            self._send(server, CommitReq(
                tx.id, self.client_id, self._next_req(), ts=tx.ts,
                write_keys=tuple(keys), spans={}, release=False,
                values={k: tx.writeset[k] for k in keys}))
        return self._committed(tx, tx.ts)

    def _batch_commit_locks(self, tx: Tx, point: IntervalSet
                            ) -> Generator[Any, Any, None]:
        """Commit-time point write locks, one batch message per server.

        Same all-or-nothing semantics as the per-key loop — any refused
        key aborts the transaction (write locks released, read-timestamps
        kept) — but the messages drop from O(written keys) to O(servers)
        and the round trips overlap.
        """
        by_server: dict[Hashable, list[Hashable]] = {}
        for key in tx.writeset:
            by_server.setdefault(self._route(tx, key), []).append(key)
        servers = list(by_server)
        self.registry.set_decision_point(tx.id, servers[0])
        reqs: dict[Hashable, MVTLBatchLockReq] = {}
        for server in servers:
            tx.touched.add(server)
            tx.write_servers.add(server)
            items = tuple((key, tx.writeset[key], point)
                          for key in by_server[server])
            reqs[server] = MVTLBatchLockReq(tx.id, self.client_id,
                                            self._next_req(), items=items,
                                            all_or_nothing=True,
                                            deadline=tx.deadline,
                                            critical=tx.priority)
        replies = yield from self._rpc_many(reqs)
        self._expect_all(tx, reqs, replies)
        refused = False
        for server in servers:
            self._check_epoch(tx, server, replies[server].epoch)
            acquired = replies[server].acquired
            for key in by_server[server]:
                got = acquired.get(key, EMPTY_SET)
                if self.tracer.enabled:
                    self.tracer.lock_acquire(tx.id, key, "write",
                                             requested=point, granted=got)
                if got.is_empty:
                    refused = True
        if refused:
            self._fail(tx, AbortReason.WRITE_CONFLICT)

    def _fail(self, tx: Tx, reason: str) -> NoReturn:
        if self.consensus is None:
            self.registry.get(tx.id).propose(ABORT)
        for server in sorted(tx.write_servers, key=str):
            self._send(server, ReleaseReq(tx.id, self.client_id,
                                          self._next_req(), write_only=True))
        self.registry.forget(tx.id)
        self._abort(tx, reason)
