"""The strict-2PL baseline (§8.1): a coordinator that locks per access and
a server with one readers-writer lock and one version per key, on the
framework of :mod:`repro.dist.client` and :mod:`repro.dist.server`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Hashable, NoReturn

import numpy as np

from ..core.exceptions import AbortReason
from ..core.timestamp import BOTTOM, TS_ZERO, Timestamp
from ..sim.network import Network
from ..sim.simulator import Simulator
from ..sim.testbed import TestbedProfile
from .client import BaseClient, Tx
from .messages import OverloadedReply, PurgeReq, Reply, Request
from .server import _ServerBase

__all__ = ["TwoPLClient", "TwoPLServer", "TwoPLLockReq", "TwoPLLockReply",
           "TwoPLCommitReq", "TwoPLReleaseReq"]

# -- 2PL wire -----------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class TwoPLLockReq(Request):
    """Acquire the per-key readers-writer lock (exclusive if ``write``).

    The server parks the request while the lock is unavailable; the *client*
    enforces the deadlock-prevention timeout by giving up and aborting.
    A read lock reply carries the current value.
    """

    #: Sheddable, like MVTL's data-path requests
    #: (:data:`repro.dist.messages.SHEDDABLE_REQUESTS`).
    sheddable = True

    key: Hashable = None
    write: bool = False


@dataclass(unsafe_hash=True, slots=True)
class TwoPLLockReply(Reply):
    granted: bool = True
    value: Any = None
    version_ts: Timestamp | None = None


@dataclass(unsafe_hash=True, slots=True)
class TwoPLCommitReq(Request):
    """Install ``writes`` at ``commit_ts`` and release all of tx's locks on
    this server (batched per server, like a real unlock piggyback)."""

    writes: dict = field(default_factory=dict)   # key -> value
    release_keys: tuple = ()                     # read-locked keys
    commit_ts: Timestamp = None


@dataclass(unsafe_hash=True, slots=True)
class TwoPLReleaseReq(Request):
    """Release tx's locks on ``keys`` without writing (abort path)."""

    keys: tuple = ()


#: Floor of a 2PL lock wait, in seconds (tuned for throughput, §8.4.1).
LOCK_TIMEOUT = 0.05
#: A calibrated lock wait times out at this many granted-lock round trips.
RTT_MULTIPLE = 3.0


class TwoPLClient(BaseClient):
    """Strict-2PL coordinator (§8.1 baseline).

    The lock-wait timeout is the deadlock-prevention mechanism, and the
    paper tunes it per deployment ("we set the timeout such as to maximize
    total throughput").  We automate that tuning: the client keeps an EWMA
    of granted-lock round-trip times (which includes server queueing) and
    times out at ``RTT_MULTIPLE`` times it — long enough that deep server
    queues and ordinary waits behind a writer don't abort transactions
    spuriously, short enough that genuine deadlocks break quickly.
    ``LOCK_TIMEOUT`` is the floor.
    """

    name = "2pl"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._rtt_ewma: float | None = None

    def _observe_rtt(self, rtt: float) -> None:
        if self._rtt_ewma is None:
            self._rtt_ewma = rtt
        else:
            self._rtt_ewma = 0.9 * self._rtt_ewma + 0.1 * rtt

    def _current_timeout(self) -> float:
        # Until the EWMA is calibrated (first granted lock), use the floor
        # as-is: a fresh client must still break deadlocks within
        # ``LOCK_TIMEOUT``, not some larger default.
        if self._rtt_ewma is None:
            return LOCK_TIMEOUT
        return min(2.0, max(LOCK_TIMEOUT, RTT_MULTIPLE * self._rtt_ewma))

    def begin(self, priority: bool = False,
              read_only: bool = False) -> Tx:
        # read_only: interface uniformity only (2PL has no snapshot path).
        tx = Tx((self.client_id, next(self._tx_counter)),
                self._tx_deadline(), priority)
        tx.locked_keys = set()
        self._begin_record(tx)
        return tx

    def read(self, tx: Tx, key: Hashable) -> Generator[Any, Any, Any]:
        if key in tx.writeset:
            return tx.writeset[key]
        reply = yield from self._lock(tx, key, write=False)
        tx.readset.append((key, reply.version_ts))
        if self.history is not None:
            self.history.record_read(tx.id, key, reply.version_ts)
        if self.tracer.enabled:
            self.tracer.read(tx.id, key, ts=reply.version_ts)
        return reply.value

    def write(self, tx: Tx, key: Hashable,
              value: Any) -> Generator[Any, Any, None]:
        yield from self._lock(tx, key, write=True)
        tx.writeset[key] = value
        if self.tracer.enabled:
            self.tracer.write(tx.id, key)

    def _lock(self, tx: Tx, key: Hashable,
              write: bool) -> Generator[Any, Any, Any]:
        self._check_deadline(tx)
        server = self._route(tx, key)
        self._admit(tx, server)
        req = TwoPLLockReq(tx.id, self.client_id, self._next_req(), key=key,
                           write=write,
                           deadline=tx.deadline, critical=tx.priority)
        tx.locked_keys.add(key)
        sent_at = self.sim.now
        # retries=0: the lock-wait timeout IS the deadlock prevention;
        # re-sending would re-queue behind the same conflicting holder.
        # breaker_timeouts=False: a wait lost to a lock holder is
        # contention, not saturation — only OVERLOADED sheds trip the
        # breaker here.
        reply = yield from self._rpc(server, req,
                                     timeout=self._current_timeout(),
                                     retries=0, breaker_timeouts=False)
        if reply is None:
            # Lock-wait timeout: the paper's deadlock prevention.  Abort and
            # release everything (the server drops our queued request too).
            self._fail(tx, self._timeout_reason(tx,
                                                AbortReason.LOCK_TIMEOUT))
        if reply.__class__ is OverloadedReply:
            self._fail(tx, AbortReason.OVERLOADED)
        self._observe_rtt(self.sim.now - sent_at)
        if self.tracer.enabled:
            self.tracer.lock_acquire(tx.id, key, "write" if write else "read",
                                     rtt=self.sim.now - sent_at)
        return reply

    def commit(self, tx: Tx) -> Generator[Any, Any, bool]:
        commit_ts = Timestamp(self.sim.now, self.pid)
        by_server: dict[Hashable, tuple[dict, list]] = {}
        # Sorted: locked_keys is a set; see the MVTIL commit fan-out.
        for key in sorted(tx.locked_keys, key=str):
            server = self._route(tx, key)
            writes, releases = by_server.setdefault(server, ({}, []))
            if key in tx.writeset:
                writes[key] = tx.writeset[key]
            else:
                releases.append(key)
        for server, (writes, releases) in by_server.items():
            self._send(server, TwoPLCommitReq(
                tx.id, self.client_id, self._next_req(), writes=writes,
                release_keys=tuple(releases), commit_ts=commit_ts))
        return self._committed(tx, commit_ts)
        yield  # pragma: no cover

    def _fail(self, tx: Tx, reason: str) -> NoReturn:
        by_server: dict[Hashable, list] = {}
        for key in sorted(tx.locked_keys, key=str):
            by_server.setdefault(self._route(tx, key), []).append(key)
        for server, keys in by_server.items():
            self._send(server, TwoPLReleaseReq(
                tx.id, self.client_id, self._next_req(), keys=tuple(keys)))
        self._abort(tx, reason)


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

    _HANDLERS = {
        TwoPLLockReq: "_handle_lock",
        TwoPLCommitReq: "_handle_commit",
        TwoPLReleaseReq: "_handle_tx_release",
        PurgeReq: "_ignore",  # single-version store: nothing to purge
    }

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

    def latest_values(self) -> dict[Hashable, Any]:
        return {key: e.value for key, e in self._keys.items()
                if e.version_ts is not None}
