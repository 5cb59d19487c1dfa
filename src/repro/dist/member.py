"""Both halves of a replication group: the member server and its client.

:class:`~repro.dist.server.MVTLServer` is Alg. 13 and
:class:`~repro.dist.client.MVTILClient` Alg. 11/12, one copy per key.
:class:`ReplicaServer` is that server as a *member* of replication groups
(DESIGN.md §5e, §5h): it accepts mirrored write holds for groups led
elsewhere, grants-and-freezes committed readers' spans it never saw the
reads of, answers locked-timestamp snapshot reads from its stable GC
frontier, reports heartbeats to the failover controller, and runs both
sides of the anti-entropy protocol that lets a restarted or recruited
member re-earn snapshot servability.  :class:`ReplicaClient` is the
coordinator that fences, mirrors and reads snapshots against such groups.
The cluster builds both exactly when ``replication > 1``.  The
replication counters are named here, and only :func:`replication_report`
and :func:`merge_replication_metrics` iterate them.  The messages only
replication sends (mirrored holds, snapshot reads, heartbeats,
anti-entropy) are defined here too, beside the roles that speak them.

It lives in ``repro.dist`` rather than ``repro.repl`` because it subclasses
the server and the client: ``repro.dist.cluster`` imports ``repro.repl``,
so a ``repl`` module importing ``repro.dist`` would close an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Hashable

from ..core.exceptions import AbortReason
from ..core.intervals import IntervalSet
from ..core.timestamp import TS_ZERO, Timestamp
from ..obs.metrics import MetricsRegistry
from ..repl.placement import group_index
from ..repl.replica import scan_lost_commits, write_quorum
from .client import MVTILClient, Tx
from .gc_service import _PID_MIN
from .messages import ClockBroadcast, Message, OverloadedReply, Reply, Request
from .server import MVTLServer

__all__ = ["ReplicaClient", "ReplicaServer", "merge_replication_metrics",
           "replication_report",
           "ReplicaHoldReq", "ReplicaHoldReply",
           "SnapshotReadReq", "SnapshotReadReply",
           "HeartbeatReq", "HeartbeatReply",
           "SyncPoke", "SyncReq", "SyncDelta", "SyncDone"]

# -- the replication wire (DESIGN.md §5e, §5h) --------------------------------

@dataclass(unsafe_hash=True, slots=True)
class ReplicaHoldReq(Request):
    """Mirror granted write locks + pending values onto a follower.

    Sent by the *client* after the group leader granted its write locks:
    ``items`` is a tuple of ``(key, value, granted IntervalSet)`` triples,
    exactly the leader's grant.  The follower installs the same spans in
    its lock table (best effort — the leader already serialized them, so
    they are conflict-free unless the follower was just promoted), buffers
    the value, and arms the ordinary write-lock timeout.  A write lock is
    *held at a write quorum* once the leader grant plus a majority of
    mirrors acknowledge — from then on any quorum member can finish the
    commit alone (the mirror carries the redo value).
    """

    items: tuple = ()  # ((key, value, IntervalSet granted), ...)


@dataclass(unsafe_hash=True, slots=True)
class ReplicaHoldReply(Reply):
    """``mirrored`` is False when some span could not be installed (the
    follower was promoted meanwhile and granted conflicting locks); the
    client does not count such an ack toward the write quorum."""

    mirrored: bool = True
    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class SnapshotReadReq(Request):
    """Read ``key`` at the locked (GC-frontier) timestamp ``ts``.

    Unlike :class:`MVTLReadReq` this takes **no lock**: the timestamp
    service's broadcast floor already write-locks the whole key space below
    the frontier (no new transaction can begin — let alone install — below
    it), so a floor read at ``ts`` on any replica that has applied the
    frontier's purge is version-clean.  Served by followers; read-only
    transactions use it to bypass the leader entirely.
    """

    key: Hashable = None
    ts: Timestamp = None


@dataclass(unsafe_hash=True, slots=True)
class SnapshotReadReply(Reply):
    """``ok=False``: the replica cannot vouch for the snapshot (restarted
    since, frontier not yet applied, or an in-flight write straddles the
    timestamp) — the client falls back to the leader."""

    ok: bool = False
    tr: Timestamp | None = None
    value: Any = None
    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class HeartbeatReq(Request):
    """Failover-controller ping; cheap control traffic, never shed."""


@dataclass(unsafe_hash=True, slots=True)
class HeartbeatReply(Reply):
    """Liveness + freshness report used to pick promotion candidates."""

    server: Hashable = None
    epoch: int = 0
    #: Total commit applications since boot (freshness proxy).
    applied: int = 0
    #: True once the server has restarted: it may have missed commit
    #: records while down and must not be preferred for promotion (nor
    #: serve snapshot reads).
    dirty: bool = False


@dataclass(unsafe_hash=True, slots=True)
class SyncPoke(Message):
    """Failover-controller nudge driving anti-entropy (DESIGN.md §5h).

    Not a :class:`Request`: the controller fires one per tick at each dirty
    member and relies on the *next* tick — not dedup/retry — for loss
    recovery, exactly like its heartbeats.  ``sources`` maps the catch-up
    work: ``((leader, (gid, ...)), ...)`` — for each entry the receiver
    runs one sync session against ``leader`` covering those placement
    groups.  ``full=True`` marks the set as a complete servability plan
    (every group the receiver is a member of): only completing *all* of a
    full plan's sessions clears ``snapshot_dirty``.  ``mark_dirty`` is the
    recruitment prologue: drop servability *now* (and any stale full plan)
    before membership changes land.  ``origin`` is where to report
    :class:`SyncDone` for non-full (recruitment) sessions.
    """

    sources: tuple = ()  # ((leader, (gid, ...)), ...)
    full: bool = False
    mark_dirty: bool = False
    num_groups: int = 1
    batch: int = 64
    origin: Hashable = None


@dataclass(unsafe_hash=True, slots=True)
class SyncReq(Request):
    """Pull one batch of committed versions from a group leader.

    ``session`` is a follower-chosen nonce: the leader materializes its
    committed state for ``gids`` once per session (a stable enumeration —
    concurrent commits land via the ordinary fan-out, not the sync) and
    serves ``batch`` entries from ``cursor``.  At-least-once safe: the
    request rides the ordinary dedup layer, and a duplicated/stale delta
    is dropped by the follower's (session, cursor) match.
    """

    gids: tuple = ()
    session: int = 0
    cursor: int = 0
    batch: int = 64
    num_groups: int = 1


@dataclass(unsafe_hash=True, slots=True)
class SyncDelta(Reply):
    """One batch of a sync session: ``entries`` is ``((key, ts, value),
    ...)`` committed versions; ``floor`` is the leader's stable GC floor at
    session start (``None`` = leader never purged, i.e. the session ships
    its *entire* committed state).  ``done`` marks the last batch."""

    gids: tuple = ()
    session: int = 0
    cursor: int = 0
    next_cursor: int = 0
    entries: tuple = ()
    done: bool = False
    floor: Timestamp | None = None
    epoch: int = 0


@dataclass(unsafe_hash=True, slots=True)
class SyncDone(Message):
    """Follower -> controller: a recruitment sync session finished.

    Re-sent on every later poke for the same completed session, so a lost
    notification only delays — never wedges — the membership flip.
    """

    server: Hashable = None
    gids: tuple = ()
    session: int = 0



#: The replication counters, named once.  Each row is ``(replication_report
#: key or None, server stat)``: the registry merge files every stat per
#: server as ``server.<stat>``, and the report sums it over the servers
#: under its report key.  Rows without a report key are registry-only
#: detail (the report carries refusals by reason as one nested dict).
SERVER_COUNTERS: tuple[tuple[str | None, str], ...] = (
    ("holds_mirrored", "holds_mirrored"),
    ("snapshot_reads", "snapshot_reads"),
    ("snapshot_refused", "snapshot_refused"),
    (None, "snapshot_refused_dirty"),
    (None, "snapshot_refused_floor"),
    (None, "snapshot_refused_unfrozen"),
    (None, "snapshot_refused_missing"),
    (None, "sync_reqs"),
    ("sync_rounds", "sync_deltas"),
    ("sync_installs", "sync_installs"),
    (None, "sync_batches_served"),
    ("sync_aborted", "sync_aborted"),
    ("resyncs", "resyncs"),
    (None, "snapshot_served_resynced"),
)

#: Client-side replication counters (:class:`ReplicaClient` stats): summed
#: into the report under their own name, filed per client as
#: ``client.<stat>`` in the registry.
CLIENT_COUNTERS: tuple[str, ...] = (
    "follower_reads", "snapshot_fallbacks", "snapshot_commits",
    "fanout_acked", "fanout_unacked",
)


class ReplicaServer(MVTLServer):
    """An :class:`MVTLServer` that is a member of replication groups."""

    _HANDLERS = {
        **MVTLServer._HANDLERS,
        ReplicaHoldReq: "_handle_replica_hold",
        SnapshotReadReq: "_handle_snapshot_read",
        HeartbeatReq: "_handle_heartbeat",
        SyncReq: "_handle_sync_req",
        SyncDelta: "_handle_sync_delta",
        SyncPoke: "_handle_sync_poke",
    }

    _WEIGHT_KIND = {
        **MVTLServer._WEIGHT_KIND,
        HeartbeatReq: 1, SyncReq: 1, SyncPoke: 1,
        ReplicaHoldReq: 2,
        SyncDelta: 3,
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
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

    def restart(self) -> None:
        """Rejoin as the base does — ``snapshot_dirty`` set, to be cleared
        by a completed sync plan — with the sync state reset first."""
        if not self.crashed:
            return
        self._dirty_since = self.sim.now
        # Sync state is volatile: cached sessions die with the epoch bump
        # (aborting every in-flight run against us) and our own runs are
        # forgotten — the controller's next poke starts a fresh plan.
        self._sync_sessions.clear()
        self._sync_runs.clear()
        self._sync_plan = None
        super().restart()

    def _seal_tx(self, tx_id: Hashable, keep_all_reads: bool,
                 spans: dict[Hashable, IntervalSet] | None = None,
                 point: tuple = (), written: tuple = ()) -> None:
        """Follower read-span mirror, then the seal: this member never saw
        the transaction's reads, so it holds no read lock to freeze.  Grant
        each committed span here, and the seal freezes it — without that,
        a post-promotion writer could install inside a committed reader's
        span (an MVSG violation the leader's frozen read lock was
        preventing).  The mirrored write grants equal the leader's, so the
        span is conflict-free by construction."""
        for key, span in (spans or {}).items():
            if self.locks.state(key).hold_read(tx_id, span):
                self.locks.note_owner(tx_id, key)
        super()._seal_tx(tx_id, keep_all_reads, spans, point, written)

    # -- mirrored holds and follower reads (§5e) ----------------------------

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
        # A partial grant means leftover sealed/foreign state blocks the
        # mirror (can happen after this follower was itself promoted and
        # back-demoted).  The client counts this against the quorum.
        _, mirrored = self._install_write_locks(req.tx_id, req.items)
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

    def _handle_heartbeat(self, msg: HeartbeatReq) -> None:
        self._reply(msg, HeartbeatReply(msg.req_id,
                                        server=self.server_id,
                                        epoch=self.epoch,
                                        applied=self.applied_commits,
                                        dirty=self.snapshot_dirty))

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
                self.mvtl.floor = adopted


class ReplicaClient(MVTILClient):
    """An :class:`MVTILClient` whose keys live in replication groups (§5e):
    group-epoch fencing, quorum write mirroring, commit requests to every
    group member, and snapshot-mode read-only transactions."""

    def __init__(self, *args: Any, follower_reads: bool = False,
                 reliable_fanout: bool = False, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Acked commit fan-out: each group member's CommitReq asks for a
        #: CommitAck and unanswered members are retried (at-least-once).
        #: Off = the paper's fire-and-forget notification, which assumes
        #: loss-free links; under LinkFaults a lost CommitReq to a
        #: non-mirrored member would otherwise permanently miss a version
        #: there.  The decision is already made when the fan-out runs, so
        #: retry exhaustion never fails the transaction — it is counted
        #: (``fanout_unacked``) and left to the mirrored-hold timeout.
        self.reliable_fanout = reliable_fanout
        #: Serve read-only transactions as lock-free snapshot reads at the
        #: GC frontier, preferring follower replicas.
        self.follower_reads = follower_reads
        #: Latest GC frontier T received via ClockBroadcast — the locked
        #: timestamp snapshot (follower) reads run at.
        self._snap_floor = 0.0
        #: Staleness samples of served snapshot reads: now - snapshot ts.
        self.read_staleness: list[float] = []
        self.stats.update(dict.fromkeys(CLIENT_COUNTERS, 0))

    def _handle_oob(self, msg: Any) -> bool:
        # T is also the stability frontier snapshot reads lock onto: no
        # transaction can begin below it once every clock is floored, so a
        # read at T needs no lock of its own.
        if msg.__class__ is ClockBroadcast and msg.t > self._snap_floor:
            self._snap_floor = msg.t
        return super()._handle_oob(msg)

    # -- group-epoch fencing -------------------------------------------------

    def _check_group(self, tx: Tx, key: Hashable) -> None:
        """Abort if ``key``'s group failed over since this tx first used it.

        The group analogue of :meth:`_check_epoch`: a promotion bumps the
        group's fencing epoch in the shared placement (which models a
        consensus-backed configuration service), so a transaction that
        acquired locks under the old leadership is fenced instead of
        committing on state the new leader may not have.
        """
        gid = self.partition.group_of(key)
        epoch = self.partition.group_epoch(gid)
        first = tx.group_epochs.setdefault(gid, epoch)
        if first != epoch:
            self._fail(tx, AbortReason.REPLICATION_QUORUM)

    def _validate_groups(self, tx: Tx) -> None:
        """Pre-commit fence: no touched group failed over mid-transaction."""
        for gid in sorted(tx.group_epochs):
            if self.partition.group_epoch(gid) != tx.group_epochs[gid]:
                self._fail(tx, AbortReason.REPLICATION_QUORUM)

    def _route(self, tx: Tx, key: Hashable) -> Hashable:
        """The key's group leader, after the group fence."""
        server = self.partition.server_of(key)
        self._check_group(tx, key)
        return server

    def _propose(self, tx: Tx, outcome: Any) -> Generator[Any, Any, Any]:
        self._validate_groups(tx)
        decision = yield from super()._propose(tx, outcome)
        return decision

    # -- the transaction -----------------------------------------------------

    def begin(self, priority: bool = False,
              read_only: bool = False) -> Tx:
        tx = super().begin(priority, read_only)
        tx.group_epochs = {}
        # A read-only transaction under follower_reads runs in snapshot
        # mode: every read happens at the locked GC-frontier timestamp T
        # (no locks taken — the broadcast floor already guarantees no new
        # transaction can run below T), served by a follower replica when
        # possible.  Before the first broadcast there is no frontier yet
        # and the transaction runs the normal interval protocol.
        tx.snapshot_ts = None
        if read_only and self.follower_reads and self._snap_floor > 0.0:
            tx.snapshot_ts = Timestamp(self._snap_floor, _PID_MIN)
        return tx

    def read(self, tx: Tx, key: Hashable) -> Generator[Any, Any, Any]:
        # A snapshot transaction never writes (``write`` refuses), so this
        # test keeps the parent's order: writeset hit first.
        if tx.snapshot_ts is not None:
            value = yield from self._snapshot_read(tx, key)
        else:
            value = yield from super().read(tx, key)
        return value

    def write(self, tx: Tx, key: Hashable,
              value: Any) -> Generator[Any, Any, None]:
        if tx.snapshot_ts is not None:
            raise TypeError("snapshot (read-only) transactions cannot write")
        yield from super().write(tx, key, value)

    def commit(self, tx: Tx) -> Generator[Any, Any, bool]:
        if tx.snapshot_ts is not None:
            # Read-only snapshot transaction: it took no locks and wrote
            # nothing, so there is nothing to decide or send — it commits
            # locally at its locked frontier timestamp.  Serializable by
            # construction: every version it read is the latest below T
            # and no transaction can ever commit between those versions
            # and T (the broadcast floor forbids new intervals below T).
            self.stats["snapshot_commits"] += 1
            return self._committed(tx, tx.snapshot_ts)
        committed = yield from super().commit(tx)
        return committed

    def _snapshot_read(self, tx: Tx,
                       key: Hashable) -> Generator[Any, Any, Any]:
        """Lock-free read at the locked frontier timestamp (§5e).

        Tries a follower of the key's group first (spreading read load off
        leaders, pid-rotated for balance), then the leader.  A replica
        refuses when it cannot prove the frontier stable locally (it
        restarted, or has not applied the frontier's purge yet); both
        refusing means the version is genuinely unavailable and the
        read-only transaction aborts — the closed-loop workload retries it
        at a fresher frontier.
        """
        self._check_deadline(tx)
        self._check_group(tx, key)
        ts = tx.snapshot_ts
        gid = self.partition.group_of(key)
        followers = self.partition.followers_of(key)
        targets: list[Hashable] = []
        if followers:
            targets.append(followers[self.pid % len(followers)])
        targets.append(self.partition.leader(gid))
        for i, server in enumerate(targets):
            req = SnapshotReadReq(tx.id, self.client_id, self._next_req(),
                                  key=key, ts=ts, deadline=tx.deadline,
                                  critical=tx.priority)
            reply = yield from self._rpc(server, req)
            if (reply is None or reply.__class__ is OverloadedReply
                    or not reply.ok):
                self.stats["snapshot_fallbacks"] += 1
                continue
            if i == 0 and followers:
                self.stats["follower_reads"] += 1
            self.read_staleness.append(self.sim.now - ts.value)
            tx.readset.append((key, reply.tr))
            if self.history is not None:
                self.history.record_read(tx.id, key, reply.tr)
            if self.tracer.enabled:
                self.tracer.read(tx.id, key, ts=reply.tr)
            return reply.value
        self._fail(tx, AbortReason.READ_FAILED)

    # -- quorum write mirroring and the commit fan-out ------------------------

    def _batch_write_locks(self, tx: Tx
                           ) -> Generator[Any, Any, list[tuple]]:
        grants = yield from super()._batch_write_locks(tx)
        yield from self._mirror_write_locks(tx, grants)
        return grants

    def _mirror_write_locks(self, tx: Tx,
                            grants: list[tuple]) -> Generator[Any, Any, None]:
        """Quorum write mirroring: ship leader-granted locks to followers.

        Each follower of a written group receives the exact interval its
        leader granted plus the pending value (so any quorum member can
        finish the commit alone) and arms the ordinary write-lock timeout
        on it.  A group counts as quorum-held when the leader (1) plus
        acknowledged mirrors reach ``write_quorum(replication)``; anything
        less aborts — committing on a sub-quorum hold could lose the write
        in a later failover.
        """
        items_by_follower: dict[Hashable, list] = {}
        group_followers: dict[int, set[Hashable]] = {}
        for key, granted in grants:
            if granted.is_empty:
                continue
            gid = self.partition.group_of(key)
            flw = self.partition.followers_of(key)
            group_followers.setdefault(gid, set()).update(flw)
            for server in flw:
                items_by_follower.setdefault(server, []).append(
                    (key, tx.writeset[key], granted))
        if not items_by_follower:
            return
        reqs: dict[Hashable, ReplicaHoldReq] = {}
        for server in sorted(items_by_follower, key=str):
            tx.touched.add(server)
            reqs[server] = ReplicaHoldReq(
                tx.id, self.client_id, self._next_req(),
                items=tuple(items_by_follower[server]),
                deadline=tx.deadline, critical=tx.priority)
        replies = yield from self._rpc_many(reqs)
        for server in sorted(replies, key=str):
            reply = replies[server]
            if reply.__class__ is not OverloadedReply:
                self._check_epoch(tx, server, reply.epoch)
        need = write_quorum(self.partition.replication)
        for gid in sorted(group_followers):
            acks = 1  # the leader's own grant
            for server in group_followers[gid]:
                reply = replies.get(server)
                if reply.__class__ is ReplicaHoldReply and reply.mirrored:
                    acks += 1
            if acks < need:
                self._fail(tx, AbortReason.REPLICATION_QUORUM)

    def _key_destinations(self, key: Hashable) -> tuple[Hashable, ...]:
        """Every member of the key's group: the CommitReq fan-out to
        followers IS the commit-record replication (each member applies
        the decision it reads from the shared commitment registry), and
        read spans must freeze on followers too so a promoted follower
        still excludes writers from committed readers' pasts."""
        return self.partition.members(self.partition.group_of(key))

    def _send_commit(self, tx: Tx, ts: Timestamp
                     ) -> Generator[Any, Any, None]:
        """The commit fan-out, acked and retried under ``reliable_fanout``
        (unanswered members are re-sent through :meth:`_rpc_many`)."""
        if not self.reliable_fanout:
            yield from super()._send_commit(tx, ts)
            return
        reqs = self._commit_reqs(tx, ts, ack=True)
        # The decision is final: exhaustion weakens redundancy on the
        # unanswered members (counted, audited by scan_lost_commits) but
        # never un-commits — the mirrored-hold timeout is the backstop.
        replies = yield from self._rpc_many(reqs)
        self.stats["fanout_acked"] += len(replies)
        if len(replies) < len(reqs):
            self.stats["fanout_unacked"] += len(reqs) - len(replies)


# -- the replication report -------------------------------------------------


def replication_report(config: Any, servers: list, clients: list,
                       controller: Any, injector: Any, history: Any,
                       placement: Any) -> dict:
    """``ClusterResult.replication_report`` of a replicated or WAL run;
    ``controller`` / ``injector`` are None without failover / chaos."""
    members = [s for s in servers if isinstance(s, ReplicaServer)]
    coordinators = [c for c in clients if isinstance(c, ReplicaClient)]
    promotions = list(controller.promotions) if controller else []
    failover_latencies = []
    if controller is not None and injector is not None:
        # Latency = promotion time minus the old leader's most recent
        # crash before it (epoch-change promotions follow a restart, so
        # a prior crash event always exists).
        for when, gid, old, new, epoch in promotions:
            crashes = [t for (t, kind, sid) in injector.server_events
                       if kind == "crash" and sid == old and t <= when]
            if crashes:
                failover_latencies.append(when - crashes[-1])
    staleness = sorted(s for c in coordinators for s in c.read_staleness)
    resync_latencies = sorted(lat for s in members
                              for lat in s.resync_latencies)
    durables = [s.durable for s in servers if s.durable is not None]
    report = {
        "replication": config.replication,
        "durability": config.durability,
        "promotions": [(t, gid, str(old), str(new), ep)
                       for (t, gid, old, new, ep) in promotions],
        "failover_latencies": failover_latencies,
        "heartbeats_sent": controller.heartbeats_sent if controller else 0,
        # Refusals broken down by first failing guard, so anti-entropy
        # progress is observable ("dirty" must go to zero once every
        # restarted member completed its full sync plan).
        "snapshot_refused_by_reason": {
            reason: sum(s.stats.get(f"snapshot_refused_{reason}", 0)
                        for s in servers)
            for reason in ("dirty", "floor", "unfrozen", "missing")},
        "snapshot_served_resynced_by_server": {
            str(s.server_id): s.stats.get("snapshot_served_resynced", 0)
            for s in servers
            if s.stats.get("resyncs", 0) > 0},
        # Self-healing (DESIGN.md §5h).
        "sync_pokes": controller.sync_pokes if controller else 0,
        # The one member stat only the report shows (never filed in
        # the metrics registry, so not a SERVER_COUNTERS row).
        "sync_sessions": sum(s.stats.get("sync_sessions", 0)
                             for s in servers),
        "resyncs_by_server": {
            str(s.server_id): s.stats.get("resyncs", 0)
            for s in servers if s.stats.get("resyncs", 0) > 0},
        "resync_latencies": resync_latencies,
        "recruitments": [
            (t, gid, str(old), str(new), ep)
            for (t, gid, old, new, ep) in
            (controller.recruitments if controller else [])],
        "min_live_members": (controller.min_live_members
                             if controller else None),
        "dirty_at_end": sorted(str(s.server_id) for s in servers
                               if s.snapshot_dirty),
        "wal_records": sum(d.wal.records_appended for d in durables),
        "wal_sync_records": sum(d.wal.records_by_kind.get("sync", 0)
                                for d in durables),
        "checkpoints": sum(d.checkpoints for d in durables),
        "read_staleness": {
            "count": len(staleness),
            "mean": (sum(staleness) / len(staleness)
                     if staleness else 0.0),
            "p95": (staleness[int(0.95 * (len(staleness) - 1))]
                    if staleness else 0.0),
            "max": staleness[-1] if staleness else 0.0,
        },
    }
    for report_key, stat in SERVER_COUNTERS:
        if report_key is not None:
            report[report_key] = sum(s.stats.get(stat, 0) for s in servers)
    for stat in CLIENT_COUNTERS:
        report[stat] = sum(c.stats[stat] for c in coordinators)
    if history is not None and config.replication > 1:
        # Audit the measurement window only: the settle period drains
        # its commit fan-outs, but commits decided *during* settle can
        # be mid-flight when the simulation halts.
        report.update(scan_lost_commits(
            history, placement, {s.server_id: s for s in servers},
            before=config.warmup + config.measure))
    return report


def merge_replication_metrics(registry: MetricsRegistry, servers: list,
                              clients: list) -> None:
    """File the replication / durability counters in the registry: each
    stat per server (``server.<stat>``, plus WAL records and checkpoints)
    and per client (``client.<stat>``), and every follower-read staleness
    sample.  Zero counts are skipped (absent labels read back as 0)."""
    per_server = [(stat, registry.counter(f"server.{stat}"))
                  for _report_key, stat in SERVER_COUNTERS]
    wal_records = registry.counter("server.wal_records")
    checkpoints = registry.counter("server.checkpoints")
    for server in servers:
        for stat, counter in per_server:
            n = server.stats.get(stat, 0)
            if n:
                counter.inc(server.server_id, n)
        durable = server.durable
        if durable is not None:
            if durable.wal.records_appended:
                wal_records.inc(server.server_id,
                                durable.wal.records_appended)
            if durable.checkpoints:
                checkpoints.inc(server.server_id, durable.checkpoints)
    per_client = [(stat, registry.counter(f"client.{stat}"))
                  for stat in CLIENT_COUNTERS]
    staleness = registry.histogram("replication.read_staleness")
    for client in clients:
        if not isinstance(client, ReplicaClient):
            continue
        for stat, counter in per_client:
            n = client.stats[stat]
            if n:
                counter.inc(client.client_id, n)
        for sample in client.read_staleness:
            staleness.observe(sample)
