"""Wire messages of the distributed MVTL protocol (Algorithms 11-13): the
ones every run sends, MVTIL's and MVTO+'s alike (§8.1).

The other protocols' messages live beside the roles that speak them —
2PL's in :mod:`repro.dist.twopl`, Bohm's in :mod:`repro.dist.bohm`, the
replication members' in :mod:`repro.dist.member` — so a run creates only
the message classes of the protocol its config names (DESIGN.md, "A run
loads what its config names").

Every request carries the issuing transaction, the client's node id (for the
reply) and a client-chosen request id so the client coroutine can match
replies to requests and discard stale ones (e.g. a reply arriving after the
client timed out and moved on).

Delivery contract: the transport is **at-least-once** once clients retry —
a request may reach the server zero times (lost), once, or several times
(retry or link-level duplication).  Servers therefore deduplicate by
``(client, req_id)``: the first arrival is processed, later arrivals of an
already-answered request just get the cached reply re-sent, and arrivals of
a request still in progress (parked) are dropped.  Replies carry the
server's ``epoch`` (bumped on every restart) so clients can detect that a
server lost its volatile lock state mid-transaction and abort instead of
committing on locks that no longer exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..core.intervals import IntervalSet
from ..core.timestamp import Timestamp

__all__ = [
    "Message", "Request", "Reply", "OverloadedReply", "SHEDDABLE_REQUESTS",
    "MVTLReadReq", "MVTLReadReply",
    "MVTLWriteLockReq", "MVTLWriteLockReply",
    "MVTLBatchLockReq", "MVTLBatchLockReply",
    "ReleaseReq", "CommitReq",
    "EpochReq", "EpochReply",
    "PurgeReq", "ClockBroadcast", "CommitAck",
]


class Message:
    """Root of everything on the wire: the class-level routing flags.

    Servers and clients classify every message they receive (dedup or
    not, RPC reply or out-of-band, sheddable or not, carries a deadline or
    not).  These are properties of the message *class*, so they are class
    attributes read with one attribute load — not ``isinstance`` /
    ``getattr`` calls made several times per message on the hot path.
    """

    __slots__ = ()

    #: A :class:`Request`: deduplicated by ``(client, req_id)`` and answered.
    is_request = False
    #: A :class:`Reply`: belongs in a client's RPC mailbox.
    is_reply = False
    #: Listed in :data:`SHEDDABLE_REQUESTS` (set below, next to the list).
    sheddable = False
    #: Only requests carry a deadline (their dataclass field shadows this).
    deadline = None


@dataclass(unsafe_hash=True, slots=True)
class Request(Message):
    """Base: fields common to every client->server request.

    ``deadline`` is the transaction's *absolute* deadline (simulated
    seconds): a saturated server drops data requests whose deadline has
    already passed instead of serving stale work (the client has moved on).
    Clients only stamp it on requests that are safe to drop — reads and
    lock acquisitions, whose loss the client maps to an abort — never on
    commit/release/GC notifications, which free resources and must always
    be applied.  ``critical`` marks requests of critical (MVTL-Prio-class)
    transactions: served ahead of normals and never shed (Theorem 3's
    guarantee, carried into the distributed layer).
    """

    is_request = True

    tx_id: Hashable
    client: Hashable
    req_id: int
    deadline: float | None = field(default=None, kw_only=True)
    critical: bool = field(default=False, kw_only=True)


@dataclass(unsafe_hash=True, slots=True)
class Reply(Message):
    """Base: every server->client reply echoes the request id."""

    is_reply = True

    req_id: int


@dataclass(unsafe_hash=True, slots=True)
class OverloadedReply(Reply):
    """Explicit load-shed rejection: the server's bounded queue was full.

    Sent instead of silently parking work a saturated server will never
    get to.  The client maps it to ``AbortReason.OVERLOADED`` (and feeds
    its per-server circuit breaker) rather than retrying into the same
    saturated server.
    """


# -- MVTL family (MVTIL and MVTO+ run the same server ops, §8.1) -------------

@dataclass(unsafe_hash=True, slots=True)
class MVTLReadReq(Request):
    """Read ``key`` and read-lock a contiguous interval below ``upper``.

    ``wait`` selects the blocking idiom ("waiting if write-locked but not
    frozen"): with ``wait=True`` the request parks while the contiguous
    grantable prefix cannot reach ``floor`` (default: ``upper``).  MVTO+
    needs the full range up to its timestamp (``floor`` unset); an MVTIL
    client only needs the prefix to reach into its interval ``I``, so it
    passes ``floor = min I`` and *shrinks* instead of waiting whenever some
    of ``I`` is still reachable (§8.1).  ``wait=False`` never parks.
    """

    key: Hashable = None
    upper: Timestamp = None
    wait: bool = True
    floor: Timestamp | None = None


@dataclass(unsafe_hash=True, slots=True)
class MVTLReadReply(Reply):
    """``tr``/``value`` is the version read; ``locked`` the granted range.

    ``tr is None`` means the read failed permanently (version purged).
    """

    tr: Timestamp | None = None
    value: Any = None
    locked: IntervalSet = field(default_factory=IntervalSet)
    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class MVTLWriteLockReq(Request):
    """Write-lock some of ``want`` on ``key`` and buffer ``value`` (Alg. 13).

    ``wait=False`` grants the conflict-free subset immediately (MVTIL);
    ``wait=True`` parks until all of ``want`` is grantable or a frozen
    conflict makes that impossible (TO's commit-time point lock uses
    ``wait=False`` too — it *fails* on any conflict).
    ``all_or_nothing`` makes a partially-grantable request fail instead of
    shrinking.
    """

    key: Hashable = None
    value: Any = None
    want: IntervalSet = field(default_factory=IntervalSet)
    wait: bool = False
    all_or_nothing: bool = False


@dataclass(unsafe_hash=True, slots=True)
class MVTLWriteLockReply(Reply):
    acquired: IntervalSet = field(default_factory=IntervalSet)
    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class MVTLBatchLockReq(Request):
    """Write-lock several keys of one server in a single message.

    ``items`` is a tuple of ``(key, value, want)`` triples — each the
    payload of one :class:`MVTLWriteLockReq` — applied independently in
    order, always without waiting (parking a multi-key request would couple
    unrelated keys' wait lists).  ``all_or_nothing`` applies per item, as in
    the single-key message.  Batching is what drops a commit-time lock pass
    from O(written keys) to O(servers touched) round trips: the client
    groups its write set by the partition and sends one of these per server
    (the paper's Thrift prototype pays per-server, not per-key, RPCs).
    Server-side CPU cost still scales with ``len(items)`` — batching saves
    messages, not lock work.
    """

    items: tuple = ()  # ((key, value, IntervalSet want), ...)
    all_or_nothing: bool = False


@dataclass(unsafe_hash=True, slots=True)
class MVTLBatchLockReply(Reply):
    """Per-key grant map for a :class:`MVTLBatchLockReq` (key -> granted
    IntervalSet; empty set = refused)."""

    acquired: dict = field(default_factory=dict)
    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class ReleaseReq(Request):
    """Release tx's unfrozen locks on this server (abort / gc tail).

    ``write_only=True`` releases only write locks — the MVTO+ abort path,
    whose persistent read-timestamps (kept read locks) are the source of its
    ghost aborts (§3, §5.5).
    """

    write_only: bool = False


@dataclass(unsafe_hash=True, slots=True)
class CommitReq(Request):
    """Commit notification, batched per server: atomically propose commit to
    the transaction's commitment object and — on a commit decision — freeze
    write locks at ``ts`` and expose the buffered values for ``write_keys``,
    freeze the read-lock ``spans``, and (if ``release``) release the
    transaction's remaining unfrozen locks.

    Batching freeze+install+GC into one server-side step closes the window
    where a separately-delivered GC could release a commit-point write lock
    before its freeze was processed (the prototype holds the key's latch
    across this sequence, §8.1).

    ``values`` repeats the written values keyed by key.  The server
    normally installs from its ``pending`` buffer (filled at write-lock
    time), but a server that crashed and restarted between lock install and
    commit has lost that buffer — the notification itself must carry
    everything needed to apply the commit (like a redo record).
    """

    ts: Timestamp = None
    write_keys: tuple = ()
    spans: dict = field(default_factory=dict)  # key -> IntervalSet
    release: bool = True
    values: dict = field(default_factory=dict)  # key -> written value
    #: Ask for a :class:`CommitAck` reply.  The default fan-out is
    #: fire-and-forget (the mirrored-hold timeout + commitment registry
    #: self-heal a lost notification); the reliable fan-out used under
    #: lossy links sets this so the client can retry unacked members.
    ack: bool = False


@dataclass(unsafe_hash=True, slots=True)
class CommitAck(Reply):
    """Acknowledges an ``ack=True`` :class:`CommitReq` was applied."""

    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class EpochReq(Request):
    """Pre-commit epoch probe: "are you still the server I locked on?".

    Sent to every touched server just before the coordinator proposes
    commit (when epoch validation is enabled).  The reply's epoch is
    compared against the epoch of the transaction's first contact with that
    server; a mismatch means the server restarted — and silently dropped
    the transaction's volatile locks — so the coordinator must abort.
    """


@dataclass(unsafe_hash=True, slots=True)
class EpochReply(Reply):
    epoch: int = 0


# -- maintenance ---------------------------------------------------------------

@dataclass(unsafe_hash=True, slots=True)
class PurgeReq(Request):
    """From the timestamp service: purge versions/locks older than ``bound``."""

    bound: Timestamp = None


@dataclass(unsafe_hash=True, slots=True)
class ClockBroadcast(Message):
    """Timestamp-service broadcast to clients: advance your clock to ``t``."""

    t: float = 0.0


# -- commitment object (consensus) ----------------------------------------------

#: Request types a saturated server may shed (bounded queue) or expire
#: (deadline passed): data-path acquisitions whose rejection the client
#: handles as a clean abort.  Control notifications (commit, freeze,
#: release, GC, purge) are never shed — they *free* resources, are cheap
#: (see the servers' control-message weight), and dropping them would leak
#: locks until the write-lock timeout (or, for 2PL, forever).  2PL's lock
#: request is sheddable too; :mod:`repro.dist.twopl` sets its flag.
SHEDDABLE_REQUESTS = (MVTLReadReq, MVTLWriteLockReq, MVTLBatchLockReq,
                      EpochReq)
for _cls in SHEDDABLE_REQUESTS:
    _cls.sheddable = True
