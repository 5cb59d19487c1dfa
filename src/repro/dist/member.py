"""The replication-group member: a storage server that is also a replica.

:class:`~repro.dist.server.MVTLServer` is Alg. 13 — one server, one copy of
each key.  :class:`ReplicaServer` is that server acting as a *member* of
replication groups (DESIGN.md §5e, §5h): it accepts mirrored write holds
for groups led elsewhere (:class:`~repro.dist.messages.ReplicaHoldReq`),
grants-and-freezes committed readers' spans it never saw the reads of,
answers locked-timestamp snapshot reads from its stable GC frontier,
reports heartbeats to the failover controller, and runs both sides of the
anti-entropy protocol that lets a restarted or recruited member re-earn
snapshot servability.  The cluster builds it instead of the plain server
exactly when ``replication > 1``.

It lives in ``repro.dist`` rather than ``repro.repl`` because it subclasses
the server: ``repro.dist.cluster`` imports ``repro.repl``, so a ``repl``
module importing ``repro.dist.server`` would close an import cycle.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..core.intervals import IntervalSet
from ..core.timestamp import TS_ZERO
from ..repl.placement import group_index
from .messages import (HeartbeatReply, HeartbeatReq, ReplicaHoldReply,
                       ReplicaHoldReq, SnapshotReadReply, SnapshotReadReq,
                       SyncDelta, SyncDone, SyncPoke, SyncReq)
from .server import MVTLServer

__all__ = ["ReplicaServer", "SERVER_COUNTERS", "CLIENT_COUNTERS"]

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

#: Client-side replication counters (incremented in ``dist/client.py``):
#: summed into the report under their own name, filed per client as
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

    def _freeze_read_spans(self, tx_id: Hashable,
                           spans: dict[Hashable, IntervalSet]) -> None:
        """Follower read-span mirror: this member never saw the
        transaction's reads, so it holds no read lock to freeze.
        Grant-then-freeze the span here — without it, a post-promotion
        writer could install inside a committed reader's span (an MVSG
        violation the leader's frozen read lock was preventing).  The
        mirrored write grants equal the leader's, so the span is
        conflict-free by construction."""
        for key, span in spans.items():
            if self.locks.state(key).hold_frozen_read(tx_id, span):
                self.locks.note_owner(tx_id, key)

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
                self.stable_floor = adopted
