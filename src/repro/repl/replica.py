"""Quorum rules, the failover controller and post-run replication scans.

Replication scheme (primary-copy; DESIGN.md §5e):

* the group **leader** is the sole lock/conflict authority — Theorem 8's
  serializability argument is untouched;
* a client holds a write lock at a **write quorum**: the leader grant plus
  acknowledged mirrors (``ReplicaHoldReq``) on a majority of the group.
  Mirrors carry the granted interval *and* the pending value, so any
  quorum member can finish the commit alone;
* commit records fan out to **every** member and each member applies the
  decision it reads from the shared :class:`CommitmentRegistry` — the
  commitment object is the replication consensus, not a new protocol;
* on leader death the :class:`FailoverController` promotes the most
  up-to-date live follower and bumps the group's fencing epoch.  The
  promoted follower's mirrored (still unfrozen) locks resolve through the
  ordinary write-lock-timeout machinery: decided commits install, the rest
  abort — zero committed writes are lost.

The controller is deliberately message-driven (heartbeats over the
simulated network, no peeking at server objects), so detection latency is
a real, measurable quantity: ``promotion time - crash time``.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

from .placement import ReplicatedPlacement

__all__ = ["HEARTBEAT_INTERVAL", "write_quorum", "FailoverController",
           "scan_lost_commits"]

#: Seconds between the failover controller's ping rounds.  With
#: ``miss_limit`` it bounds promotion latency: a dead leader is demoted
#: within ``HEARTBEAT_INTERVAL * (miss_limit + 2)`` of its crash.
HEARTBEAT_INTERVAL = 0.05


def write_quorum(replication: int) -> int:
    """Members that must hold a write lock (leader included): a majority."""
    return replication // 2 + 1


class FailoverController:
    """Heartbeat-driven leader failure detection and follower promotion.

    Every :data:`HEARTBEAT_INTERVAL` seconds the controller pings all group
    members; a leader that misses ``miss_limit`` consecutive beats — or
    answers with a *changed* restart epoch, proving it crashed and lost its
    volatile lock state — is demoted.  The replacement is the live follower
    with the freshest applied-commit count, preferring members that never
    restarted (a restarted member may have missed commit records while
    down; it stays a cold standby).  Full-rank draws — same dirtiness, same
    applied count — break on the string form of the server id: the
    controller owns no RNG stream, so every decision (promotion,
    recruitment, sync pokes) is a pure function of the heartbeat history
    and replays identically under a fixed seed.

    With ``anti_entropy`` the controller also drives the §5h self-healing
    loop: dirty members are poked to stream missing committed versions
    from their group leaders until they re-earn snapshot servability, and
    with ``recruit`` each demoted leader's slot is re-filled by catching
    up a clean outside server and flipping the placement (epoch bump).
    """

    node_id = "__failover__"

    def __init__(self, sim: Any, net: Any, placement: ReplicatedPlacement,
                 *, miss_limit: int = 3, anti_entropy: bool = False,
                 recruit: bool = False, sync_batch: int = 64) -> None:
        # Deferred import: repro.dist.member imports this module at load.
        from ..dist.member import (HeartbeatReply, HeartbeatReq, SyncDone,
                                   SyncPoke)
        self._req_cls = HeartbeatReq
        self._reply_cls = HeartbeatReply
        self._poke_cls = SyncPoke
        self._done_cls = SyncDone
        self.sim = sim
        self.net = net
        self.placement = placement
        self.miss_limit = miss_limit
        self.anti_entropy = anti_entropy
        self.recruit_enabled = recruit
        self.sync_batch = sync_batch
        members: set[Hashable] = set()
        for gid in placement.groups():
            members.update(placement.members(gid))
        self._members = sorted(members, key=str)
        #: Cluster servers recruitable as replacements (all of them — a
        #: non-member of one group is fair game even while serving others).
        self._pool = sorted(set(placement.servers) | members, key=str)
        self._misses: dict[Hashable, int] = {m: 0 for m in self._pool}
        self._outstanding: dict[Hashable, Any] = {}
        self._epoch_seen: dict[Hashable, int] = {}
        self._suspect: set[Hashable] = set()
        #: Last reported (applied_commits, dirty) per member.
        self._state: dict[Hashable, tuple[int, bool]] = {}
        #: ``(time, gid, old_leader, new_leader, new_epoch)`` per promotion.
        self.promotions: list[tuple[float, int, Hashable, Hashable, int]] = []
        #: ``(time, gid, departed, recruit, new_epoch)`` per membership flip.
        self.recruitments: list[tuple[float, int, Hashable, Hashable,
                                      int]] = []
        #: gid -> in-flight recruitment ({"old", "cand", "stage"}); stages
        #: walk select -> dirtying -> syncing -> (flip on SyncDone).
        self._recruiting: dict[int, dict] = {}
        #: Smallest heartbeat-live member count any group ever showed
        #: (member not yet suspected by the detector = live).
        self.min_live_members: int | None = None
        self.heartbeats_sent = 0
        self.sync_pokes = 0
        self._seq = 0
        net.register(self.node_id, self._on_message)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.sim.schedule(HEARTBEAT_INTERVAL, self._tick)

    def _tick(self) -> None:
        # 1. Account a miss for every server whose last ping went unanswered.
        for sid in self._pool:
            if self._outstanding.get(sid) is not None:
                self._misses[sid] += 1
        # 2. Demote dead or restarted leaders.
        for gid in self.placement.groups():
            leader = self.placement.leader(gid)
            if (self._misses.get(leader, 0) >= self.miss_limit
                    or leader in self._suspect):
                self._promote(gid, leader)
        self._suspect = {s for s in self._suspect
                         if any(self.placement.leader(g) == s
                                for g in self.placement.groups())}
        # 3. Record the detector-level liveness floor per group.
        live_min = None
        for gid in self.placement.groups():
            live = sum(1 for m in self.placement.members(gid)
                       if self._misses.get(m, 0) < self.miss_limit)
            live_min = live if live_min is None else min(live_min, live)
        if live_min is not None:
            self.min_live_members = (live_min if self.min_live_members is None
                                     else min(self.min_live_members,
                                              live_min))
        # 4. Self-healing: recruit replacements, then poke dirty members.
        if self.recruit_enabled:
            self._drive_recruitment()
        if self.anti_entropy:
            self._drive_sync()
        # 5. Ping everyone again.
        for sid in self._pool:
            self._seq += 1
            req = self._req_cls(tx_id="__hb__", client=self.node_id,
                                req_id=self._seq)
            self._outstanding[sid] = self._seq
            self.heartbeats_sent += 1
            self.net.send(sid, req, src=self.node_id)
        self.sim.schedule(HEARTBEAT_INTERVAL, self._tick)

    # -- self-healing (DESIGN.md §5h) ---------------------------------------

    def _poke(self, sid: Hashable, sources: tuple, *, full: bool,
              mark_dirty: bool = False) -> None:
        self.sync_pokes += 1
        self.net.send(sid, self._poke_cls(sources=sources, full=full,
                                          mark_dirty=mark_dirty,
                                          num_groups=self.placement.num_groups,
                                          batch=self.sync_batch,
                                          origin=self.node_id),
                      src=self.node_id)

    def _drive_sync(self) -> None:
        """Poke every dirty, live member whose groups all have a clean,
        live source: the poke carries the *full* plan — one session per
        distinct leader — whose joint completion is the member's
        servability proof.  A group the member *itself leads* needs (and
        has) no external source: no commit in that group can be decided
        without the leader's own participation, in-flight fan-outs are
        redelivered by the at-least-once layer, and the post-run
        lost-commit audit checks leaders strictly — so the member's own
        durable state stands as that group's session, and a server that
        leads every group it belongs to gets an *empty* plan, which
        clears its flag at once.  Candidates mid-recruitment are skipped:
        their dirtiness is the membership-flip fence and must not be
        cleared against their *old* group set.
        """
        busy = {rec["cand"] for rec in self._recruiting.values()
                if rec["cand"] is not None}
        for sid in self._members:
            if sid in busy:
                continue
            st = self._state.get(sid)
            if st is None or not st[1] or self._misses.get(sid, 0) != 0:
                continue
            plan: dict[Hashable, list[int]] = {}
            ok = True
            for gid in self.placement.groups():
                if sid not in self.placement.members(gid):
                    continue
                leader = self.placement.leader(gid)
                if leader == sid:
                    continue  # own durable state is the authority here
                lst = self._state.get(leader)
                if (self._misses.get(leader, 0) != 0
                        or lst is None or lst[1]):
                    ok = False  # no clean live source for this group yet
                    break
                plan.setdefault(leader, []).append(gid)
            if not ok:
                continue
            sources = tuple((leader, tuple(sorted(plan[leader])))
                            for leader in sorted(plan, key=str))
            self._poke(sid, sources, full=True)

    def _select_recruit(self, members: set) -> Hashable | None:
        """Deterministic choice of a replacement: a live, clean outsider,
        freshest first, ties on server id — no RNG, same as promotion."""
        busy = {rec["cand"] for rec in self._recruiting.values()
                if rec["cand"] is not None}
        candidates = [sid for sid in self._pool
                      if sid not in members and sid not in busy
                      and self._misses.get(sid, 0) == 0
                      and sid in self._state and not self._state[sid][1]]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda sid: (-self._state[sid][0], str(sid)))

    def _drive_recruitment(self) -> None:
        """Advance each pending recruitment one deterministic step.

        Stage order is what makes the flip race-free: the candidate is
        marked dirty *first* (and the controller waits for a heartbeat to
        prove it took), so commits decided between its catch-up
        enumeration and the membership flip can never be served past —
        only the post-flip full sync, which covers them, re-earns
        servability.
        """
        for gid in sorted(self._recruiting):
            rec = self._recruiting[gid]
            members = set(self.placement.members(gid))
            leader = self.placement.leader(gid)
            if rec["old"] not in members or rec["old"] == leader:
                del self._recruiting[gid]  # membership moved on without us
                continue
            lst = self._state.get(leader)
            if (self._misses.get(leader, 0) != 0 or lst is None or lst[1]):
                continue  # no clean live sync source this tick
            cand = rec["cand"]
            if cand is not None and self._misses.get(cand, 0) != 0:
                rec["cand"] = None  # candidate died mid-recruitment
                rec["stage"] = "select"
                cand = None
            if cand is None:
                cand = self._select_recruit(members)
                if cand is None:
                    continue  # nobody recruitable this tick
                rec["cand"] = cand
                rec["stage"] = "dirtying"
            if rec["stage"] == "dirtying":
                st = self._state.get(cand)
                if st is not None and st[1]:
                    rec["stage"] = "syncing"  # heartbeat-confirmed dirty
                else:
                    self._poke(cand, (), full=False, mark_dirty=True)
                    continue
            if rec["stage"] == "syncing":
                self._poke(cand, ((leader, (gid,)),), full=False)

    def _promote(self, gid: int, old_leader: Hashable) -> None:
        candidates = [sid for sid in self.placement.members(gid)
                      if sid != old_leader
                      and self._misses.get(sid, 0) == 0
                      and sid in self._state]
        if not candidates:
            return  # nobody alive and known: retry next tick
        # Prefer clean (never-restarted) members, then the freshest.
        def rank(sid: Hashable) -> tuple:
            applied, dirty = self._state[sid]
            return (dirty, -applied, str(sid))
        new_leader = min(candidates, key=rank)
        epoch = self.placement.promote(gid, new_leader)
        self.promotions.append((self.sim.now, gid, old_leader, new_leader,
                                epoch))
        self._suspect.discard(old_leader)
        if self.recruit_enabled and gid not in self._recruiting:
            # The demoted leader's slot is marked for replacement: a clean
            # outsider will be caught up and swapped in, so the group's
            # quorum capacity survives repeated leader crashes.
            self._recruiting[gid] = {"old": old_leader, "cand": None,
                                     "stage": "select"}

    # -- message handling ---------------------------------------------------

    def _on_message(self, msg: Any) -> None:
        if isinstance(msg, self._done_cls):
            self._on_sync_done(msg)
            return
        if not isinstance(msg, self._reply_cls):
            return
        sid = msg.server
        if self._outstanding.get(sid) != msg.req_id:
            return  # stale or duplicated beat
        self._outstanding[sid] = None
        self._misses[sid] = 0
        self._state[sid] = (msg.applied, msg.dirty)
        prev = self._epoch_seen.get(sid)
        if prev is not None and msg.epoch != prev:
            # The member crashed and came back: its volatile locks are gone.
            # If it leads a group it must be fenced even though it answers.
            self._suspect.add(sid)
        self._epoch_seen[sid] = msg.epoch

    def _on_sync_done(self, msg: Any) -> None:
        """A recruitment catch-up finished: flip the membership.

        The flip only happens while the candidate is heartbeat-confirmed
        dirty and live — dirtiness is the fence that routes it through a
        post-flip full sync (covering the commits decided during the
        catch-up window) before it may serve snapshot reads.  The epoch
        bump fences transactions that mirrored onto the departing member.
        """
        if len(msg.gids) != 1:
            return
        gid = msg.gids[0]
        rec = self._recruiting.get(gid)
        if (rec is None or rec["cand"] != msg.server
                or rec["stage"] != "syncing"):
            return
        if self._misses.get(msg.server, 0) != 0:
            return  # candidate unreachable: let the tick re-select
        st = self._state.get(msg.server)
        if st is None or not st[1]:
            rec["stage"] = "dirtying"  # must be provably dirty to join
            return
        old = rec["old"]
        if (old not in self.placement.members(gid)
                or old == self.placement.leader(gid)):
            del self._recruiting[gid]
            return
        epoch = self.placement.replace_member(gid, old, msg.server,
                                              now=self.sim.now)
        self.recruitments.append((self.sim.now, gid, old, msg.server,
                                  epoch))
        del self._recruiting[gid]


def scan_lost_commits(history: Any, placement: ReplicatedPlacement,
                      servers: Mapping[Hashable, Any],
                      before: float | None = None) -> dict[str, int]:
    """Audit: is every committed write present where readers will look?

    ``lost_commits`` counts committed (key, ts) writes missing from the
    key's *current leader* — the zero-lost-writes assertion of the failover
    bench.  ``replica_missing`` additionally counts gaps on followers
    (weakened redundancy, not yet data loss).

    Versions at or below a server's stable purge floor are exempt on that
    server: the timestamp service legitimately discards overwritten
    versions below the floor (§6), keeping only each key's newest — absence
    there is garbage collection, not data loss.  ``before`` bounds the
    audit to commits whose timestamp precedes it: commits decided in the
    last instants before the simulation stops can have their (reliable)
    apply fan-out still in flight, which is an artifact of halting the
    world, not of the protocol.

    Recruited members get one more exemption (join cutoff): commits whose
    timestamp predates the member's join reached it only through the
    catch-up sync — possibly purged below the floor it adopted, possibly
    still streaming at scan time.  They are audited strictly on the leader
    and the founding members; flagging them on the recruit would turn
    healthy catch-up into phantom loss.  The leader check has *no* such
    exemption — a recruit is never promoted while dirty, and a clean
    recruit's store covers its adopted floor.
    """
    checked = lost = replica_missing = 0

    def missing(srv: Any, key: Hashable, ts: Any) -> bool:
        if srv is None:
            return True
        floor = getattr(srv, "stable_floor", None)
        if floor is not None and ts <= floor:
            return False  # purge-eligible; absence proves nothing
        return srv.store.version_at(key, ts) is None

    for rec in history.committed():
        if rec.commit_ts is None or not rec.writes:
            continue
        if before is not None and rec.commit_ts.value >= before:
            continue
        for key in rec.writes:
            checked += 1
            gid = placement.group_of(key)
            if missing(servers.get(placement.leader(gid)), key,
                       rec.commit_ts):
                lost += 1
            for sid in placement.members(gid):
                joined = placement.member_joined_at(gid, sid)
                if joined is not None and rec.commit_ts.value < joined:
                    continue  # pre-join commit: catch-up territory
                if missing(servers.get(sid), key, rec.commit_ts):
                    replica_missing += 1
    return {"commits_checked": checked, "lost_commits": lost,
            "replica_missing": replica_missing}
