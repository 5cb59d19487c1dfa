"""Failure injection (§7, §H).

Coordinator (client) crashes are the failure mode the distributed algorithm
must survive: a crashed coordinator may leave unfrozen write locks behind,
and §H's liveness theorems say the servers' write-lock timeout + commitment
object eventually abort the orphaned transaction and release its locks, so
correct coordinators are never delayed forever (Theorems 9-10).

:class:`CrashInjector` crashes a client mid-transaction: the client's
process is cancelled (it never takes another step) and its network node is
unregistered (replies to it vanish) — exactly how a crash looks to the rest
of an asynchronous system.  It also schedules *server* crash/restart: a
fail-stop server drops everything in flight, and a restarted one rejoins
with empty volatile lock state (see
:meth:`repro.dist.server._ServerBase.restart`), forcing clients whose locks
evaporated onto the recovery path.

:class:`ChaosSchedule` is the scenario script: a deterministic, seeded
sequence of :class:`ChaosEvent` (client crashes and server crash/restart
pairs) generated from a :class:`ChaosConfig`, applied to a running cluster
through a :class:`CrashInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

import numpy as np

from ..sim.network import Network
from ..sim.simulator import Process, Simulator

__all__ = ["ChaosConfig", "ChaosEvent", "ChaosSchedule", "CrashInjector",
           "chaos_report", "orphaned_write_locks"]


class CrashInjector:
    """Crash simulated clients — and crash/restart servers — at chosen times."""

    def __init__(self, sim: Simulator, net: Network) -> None:
        self.sim = sim
        self.net = net
        self.crashed: list[Hashable] = []
        #: (time, "crash"|"restart", server_id) in application order.
        self.server_events: list[tuple[float, str, Hashable]] = []

    def crash_client_at(self, when: float, client_id: Hashable,
                        process: Process) -> None:
        """Schedule a crash of ``client_id`` (and its driver process)."""
        self.sim.schedule(max(0.0, when - self.sim.now), self._crash,
                          client_id, process)

    def _crash(self, client_id: Hashable, process: Process) -> None:
        process.cancel()
        self.net.unregister(client_id)
        self.crashed.append(client_id)

    def crash_server_at(self, when: float, server: Any,
                        *extras: Any) -> None:
        """Schedule a fail-stop crash of ``server`` (an object with a
        ``crash()`` method).  ``extras`` crash at the same instant — e.g.
        the Paxos acceptor co-located with a storage server."""
        self.sim.schedule(max(0.0, when - self.sim.now),
                          self._crash_server, server, extras)

    def _crash_server(self, server: Any, extras: tuple) -> None:
        server.crash()
        for extra in extras:
            extra.crash()
        self.server_events.append((self.sim.now, "crash", server.server_id))

    def restart_server_at(self, when: float, server: Any,
                          *extras: Any) -> None:
        """Schedule a restart of a crashed ``server`` (empty volatile
        state; see the server's ``restart``)."""
        self.sim.schedule(max(0.0, when - self.sim.now),
                          self._restart_server, server, extras)

    def _restart_server(self, server: Any, extras: tuple) -> None:
        server.restart()
        for extra in extras:
            extra.restart()
        self.server_events.append((self.sim.now, "restart",
                                   server.server_id))

    def crash_leader_at(self, when: float, gid: int, placement: Any,
                        servers: dict, downtime: float,
                        extras: dict | None = None) -> None:
        """Schedule a crash of whoever *leads* group ``gid`` at fire time.

        The leader is resolved when the event fires, not when it is
        scheduled — an earlier failover may already have moved the
        leadership.  The crashed server restarts ``downtime`` seconds
        later as a cold standby (its restart marks it dirty, so the
        failover controller will not promote it back until it is the only
        candidate left).
        """
        extras = extras or {}
        def fire() -> None:
            sid = placement.leader(gid)
            server = servers[sid]
            if server.crashed:
                return  # already down (overlapping scenario); skip
            co = (extras[sid],) if sid in extras else ()
            self._crash_server(server, co)
            self.sim.schedule(downtime, self._restart_server, server, co)
        self.sim.schedule(max(0.0, when - self.sim.now), fire)

    def crash_follower_at(self, when: float, gid: int, idx: int,
                          placement: Any, servers: dict,
                          downtime: float,
                          extras: dict | None = None) -> None:
        """Schedule a crash of one *follower* of group ``gid`` at fire time.

        Like :meth:`crash_leader_at`, the victim is resolved when the
        event fires: the group's current members minus its current leader,
        sorted by ``str`` for determinism, indexed by ``idx`` modulo the
        follower count.  If the group has no live follower to crash (all
        already down, or replication degenerated to the leader alone) the
        event is skipped rather than crashing a leader — follower restarts
        must never cost a group its write authority.
        """
        extras = extras or {}
        def fire() -> None:
            leader = placement.leader(gid)
            followers = sorted((m for m in placement.members(gid)
                                if m != leader), key=str)
            followers = [m for m in followers if not servers[m].crashed]
            if not followers:
                return  # nothing safe to crash; skip
            sid = followers[idx % len(followers)]
            server = servers[sid]
            co = (extras[sid],) if sid in extras else ()
            self._crash_server(server, co)
            self.sim.schedule(downtime, self._restart_server, server, co)
        self.sim.schedule(max(0.0, when - self.sim.now), fire)


@dataclass(frozen=True)
class ChaosConfig:
    """What a chaos scenario injects (fault *models* live on the Network)."""

    #: Coordinator crashes: this many distinct clients die at seeded times.
    client_crashes: int = 0
    #: Server crash/restart pairs: each picks a server, crashes it, and
    #: restarts it ``downtime`` seconds later with empty volatile state.
    server_restarts: int = 0
    #: How long a crashed server stays down before rejoining.
    downtime: float = 0.3
    #: Replication-mode failover scenario: this many times, crash whatever
    #: server currently *leads* a randomly drawn key group (resolved at
    #: fire time) and restart it ``leader_downtime`` seconds later as a
    #: cold standby.  Requires ``ClusterConfig.replication > 1`` — the
    #: failover controller must exist to promote a follower.
    leader_crashes: int = 0
    leader_downtime: float = 0.5
    #: Self-healing scenario: this many times, crash whatever server is
    #: currently a *follower* of a randomly drawn key group (resolved at
    #: fire time, never the leader) and restart it ``follower_downtime``
    #: seconds later.  The restarted follower comes back dirty and must
    #: re-earn snapshot-servability through anti-entropy sync.  Requires
    #: ``ClusterConfig.replication > 1``.
    follower_restarts: int = 0
    follower_downtime: float = 0.3

    def __post_init__(self) -> None:
        if (self.client_crashes < 0 or self.server_restarts < 0
                or self.leader_crashes < 0 or self.follower_restarts < 0):
            raise ValueError("event counts must be >= 0")
        if (self.downtime <= 0 or self.leader_downtime <= 0
                or self.follower_downtime <= 0):
            raise ValueError("downtime must be positive")

    @property
    def any(self) -> bool:
        return bool(self.client_crashes or self.server_restarts
                    or self.leader_crashes or self.follower_restarts)

    def window_error(self, start: float, end: float) -> str | None:
        """Why the crashes do not fit the window ``[start, end]``, or None:
        each crash/restart pair needs a disjoint slot longer than its
        downtime.  ``ClusterConfig``'s ``chaos-window`` rule reads it."""
        if end <= start:
            return "need end > start"
        span = end - start
        n = self.server_restarts
        if n and self.downtime >= span / n:
            return (f"downtime {self.downtime} does not fit "
                    f"{n} restarts into a {span:.3f}s window: each restart "
                    f"needs a disjoint slot > {self.downtime}s, so the "
                    f"window must be longer than "
                    f"{n * self.downtime:.3f}s (n * downtime)")
        for name, downtime, n, what in (
                ("leader_downtime", self.leader_downtime,
                 self.leader_crashes, "leader crashes"),
                ("follower_downtime", self.follower_downtime,
                 self.follower_restarts, "follower restarts")):
            if n and downtime >= span / n:
                return (f"{name} {downtime} does not fit {n} "
                        f"{what} into a {span:.3f}s window")
        return None

    def check_window(self, start: float, end: float) -> None:
        """Raise :meth:`window_error`'s reason, if there is one."""
        error = self.window_error(start, end)
        if error is not None:
            raise ValueError(error)


@dataclass(frozen=True, order=True)
class ChaosEvent:
    """One scheduled injection: ``action`` is ``"crash-client"``,
    ``"crash-server"``, ``"restart-server"``, ``"crash-leader"`` (target is
    a group id) or ``"crash-follower"`` (target is ``(gid, idx)``)."""

    when: float
    action: str
    target: Hashable


class ChaosSchedule:
    """A deterministic scenario script: sorted :class:`ChaosEvent` list."""

    def __init__(self, events: Sequence[ChaosEvent],
                 leader_downtime: float = 0.5,
                 follower_downtime: float = 0.3) -> None:
        self.events = sorted(events)
        self.leader_downtime = leader_downtime
        self.follower_downtime = follower_downtime

    @classmethod
    def generate(cls, config: ChaosConfig, rng: np.random.Generator,
                 client_ids: Sequence[Hashable],
                 server_ids: Sequence[Hashable],
                 start: float, end: float,
                 num_groups: int | None = None) -> "ChaosSchedule":
        """Build a schedule from a seeded RNG stream — same stream, same
        scenario, so a chaos run is exactly reproducible.

        Client crashes hit distinct clients at uniform times in
        ``[start, end]``.  Server restarts are laid out one per disjoint
        time slot, so no two crash/restart windows overlap even when the
        same server is drawn twice.
        """
        config.check_window(start, end)
        events: list[ChaosEvent] = []
        span = end - start
        if config.client_crashes and len(client_ids):
            n = min(config.client_crashes, len(client_ids))
            picks = rng.choice(len(client_ids), size=n, replace=False)
            times = start + rng.random(n) * span
            for i, t in zip(picks, times):
                events.append(ChaosEvent(float(t), "crash-client",
                                         client_ids[int(i)]))
        if config.server_restarts:
            if not len(server_ids):
                # Silently generating no events would make the scenario a
                # no-op the caller thinks it ran.
                raise ValueError(
                    f"server_restarts={config.server_restarts} requested "
                    f"but no server_ids were given")
            n = config.server_restarts
            slot = span / n
            for k in range(n):
                sid = server_ids[int(rng.integers(len(server_ids)))]
                lo = start + k * slot
                t = lo + float(rng.random()) * (slot - config.downtime)
                events.append(ChaosEvent(t, "crash-server", sid))
                events.append(ChaosEvent(t + config.downtime,
                                         "restart-server", sid))
        if (config.leader_crashes or config.follower_restarts) \
                and not num_groups:
            raise ValueError("leader_crashes and follower_restarts require "
                             "a replicated placement (num_groups)")
        if config.leader_crashes:
            # Drawn strictly after every pre-existing stream use, so seeds
            # of non-replicated scenarios keep their exact outcomes.
            n = config.leader_crashes
            slot = span / n
            for k in range(n):
                gid = int(rng.integers(num_groups))
                lo = start + k * slot
                t = lo + float(rng.random()) * (slot - config.leader_downtime)
                events.append(ChaosEvent(t, "crash-leader", gid))
        if config.follower_restarts:
            # Also drawn after every pre-existing stream use (including
            # leader crashes), so existing chaos seeds keep their outcomes.
            n = config.follower_restarts
            slot = span / n
            for k in range(n):
                gid = int(rng.integers(num_groups))
                idx = int(rng.integers(1 << 16))
                lo = start + k * slot
                t = lo + float(rng.random()) * (slot
                                                - config.follower_downtime)
                events.append(ChaosEvent(t, "crash-follower", (gid, idx)))
        return cls(events, leader_downtime=config.leader_downtime,
                   follower_downtime=config.follower_downtime)

    def apply(self, injector: CrashInjector,
              client_procs: dict[Hashable, Process],
              servers: dict[Hashable, Any],
              extras: dict[Hashable, Any] | None = None,
              placement: Any | None = None) -> None:
        """Arm every event on the injector.

        ``client_procs`` maps client id -> driver Process; ``servers`` maps
        server id -> server object; ``extras`` optionally maps server id to
        a co-located component that crashes/restarts with it (its Paxos
        acceptor); ``placement`` (a ReplicatedPlacement) is required for
        ``crash-leader`` events, whose victim is resolved at fire time.
        """
        extras = extras or {}
        for ev in self.events:
            if ev.action == "crash-client":
                injector.crash_client_at(ev.when, ev.target,
                                         client_procs[ev.target])
            elif ev.action == "crash-server":
                co = ((extras[ev.target],) if ev.target in extras else ())
                injector.crash_server_at(ev.when, servers[ev.target], *co)
            elif ev.action == "restart-server":
                co = ((extras[ev.target],) if ev.target in extras else ())
                injector.restart_server_at(ev.when, servers[ev.target], *co)
            elif ev.action == "crash-leader":
                if placement is None:
                    raise ValueError("crash-leader events need a placement")
                injector.crash_leader_at(ev.when, ev.target, placement,
                                         servers, self.leader_downtime,
                                         extras)
            elif ev.action == "crash-follower":
                if placement is None:
                    raise ValueError("crash-follower events need a placement")
                gid, idx = ev.target
                injector.crash_follower_at(ev.when, gid, idx, placement,
                                           servers, self.follower_downtime,
                                           extras)
            else:
                raise ValueError(f"unknown chaos action {ev.action!r}")


def orphaned_write_locks(servers: Sequence[Any],
                         crashed_clients: set) -> int:
    """Count unfrozen write locks (or leaked pending values) still owned by
    crashed coordinators, across leaders *and* follower replicas.

    Theorems 9-10: after the write-lock timeout (plus decision latency) an
    orphaned transaction's write locks must be gone — either released (the
    timeout abort won) or frozen (a racing commit won).  The same applies
    to mirrored holds on followers, which arm the same timeout.  A pending
    buffer entry without any unfrozen lock is counted too: it means the
    hold was resolved but its value leaked.  Any survivor is a liveness
    bug.
    """

    def coordinator_crashed(tx_id: Any) -> bool:
        return (isinstance(tx_id, tuple) and bool(tx_id)
                and tx_id[0] in crashed_clients)

    orphaned: set[tuple] = set()
    for server in servers:
        if not hasattr(server, "locks"):
            continue  # 2PL server: no MVTL lock table
        for tx_id in list(server.locks.owners()):
            if not coordinator_crashed(tx_id):
                continue
            for key in server.locks.keys_of(tx_id):
                state = server.locks.peek(key)
                if state is not None and state.unfrozen_writes(tx_id):
                    orphaned.add((str(server.server_id), tx_id, key))
        for tx_id, key in getattr(server, "pending", {}):
            if coordinator_crashed(tx_id):
                orphaned.add((str(server.server_id), tx_id, key))
    return len(orphaned)


def chaos_report(injector: CrashInjector | None, net: Network,
                 servers: Sequence[Any], clients: Sequence[Any]) -> dict:
    """``ClusterResult.chaos_report`` of a run with chaos or link faults
    (``injector`` is None without crashes)."""
    crashed = list(injector.crashed) if injector else []
    return {
        "crashed_clients": crashed,
        "server_events": list(injector.server_events) if injector else [],
        "server_restarts": sum(s.stats["restarts"] for s in servers),
        "orphaned_write_locks": orphaned_write_locks(servers, set(crashed)),
        "messages_lost": net.messages_lost,
        "messages_duplicated": net.messages_duplicated,
        "delay_spikes": net.delay_spikes,
        "rpc_retries": sum(c.stats["rpc_retries"] for c in clients),
        "dup_requests": sum(s.stats["dup_requests"] for s in servers),
    }
