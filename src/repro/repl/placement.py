"""Replicated placement of key groups: leaders, followers, fencing epochs.

The one key -> server map (§7: "clients know how to find the server
responsible for a key, e.g. by hashing the key").  The key space is hashed
into ``len(servers)`` groups; group *g*'s initial leader is ``servers[g]``
— so with ``replication=1`` this is plain hash partitioning, a group being
one server — and each group is additionally assigned ``replication - 1``
followers in ring order.

The placement object is shared by clients, the failover controller and the
post-run scans.  It stands in for a consensus-backed configuration service
(the role etcd/ZooKeeper plays in real systems): promotions update it
atomically within one simulator event, and each promotion bumps the
group's *fencing epoch*.  Clients remember the epoch of every group they
touch and abort when it moves mid-transaction — the group-level analogue
of the per-server restart-epoch stamping of §H.
"""

from __future__ import annotations

import zlib
from typing import Hashable, Sequence

__all__ = ["ReplicatedPlacement", "group_index"]


def group_index(key: Hashable, num_groups: int) -> int:
    """Hash a key to its group id (the map shared by placement and the
    sync protocol's server-side filtering — one function, one answer)."""
    if isinstance(key, int):
        return key % num_groups
    return zlib.crc32(str(key).encode()) % num_groups


class ReplicatedPlacement:
    """Leader/follower assignment of hashed key groups with epochs."""

    def __init__(self, servers: Sequence[Hashable],
                 replication: int = 1) -> None:
        if not servers:
            raise ValueError("need at least one server")
        if not 1 <= replication <= len(servers):
            raise ValueError(f"replication must be in [1, {len(servers)}], "
                             f"got {replication}")
        self._servers = tuple(servers)
        self.replication = replication
        n = len(self._servers)
        self.num_groups = n
        self._members: list[tuple[Hashable, ...]] = [
            tuple(self._servers[(gid + i) % n] for i in range(replication))
            for gid in range(n)]
        self._leaders: list[Hashable] = [m[0] for m in self._members]
        self._epochs: list[int] = [0] * n
        #: (gid, server) -> simulated join time for members recruited after
        #: t=0.  Founding members have no entry: they are accountable for
        #: the full history, recruits only for commits at or after joining
        #: (earlier ones reach them via catch-up, audited by the stable
        #: floor + join-cutoff exemptions in ``scan_lost_commits``).
        self._joined: dict[tuple[int, Hashable], float] = {}
        # key -> group id memo: every client op hashes its key, workloads
        # reuse a bounded keyspace, and crc32-of-str is pure.  Groups never
        # change (leaders do), so the memo is valid for the whole run.
        self._group_cache: dict[Hashable, int] = {}

    # -- key routing --------------------------------------------------------

    def group_of(self, key: Hashable) -> int:
        """The key's group id (:func:`group_index`, memoized)."""
        gid = self._group_cache.get(key)
        if gid is None:
            gid = self._group_cache[key] = group_index(key, self.num_groups)
        return gid

    def leader_of(self, key: Hashable) -> Hashable:
        return self._leaders[self.group_of(key)]

    #: Single-copy callers route to the leader.
    server_of = leader_of

    def followers_of(self, key: Hashable) -> tuple[Hashable, ...]:
        gid = self.group_of(key)
        leader = self._leaders[gid]
        return tuple(s for s in self._members[gid] if s != leader)

    # -- group introspection ------------------------------------------------

    def leader(self, gid: int) -> Hashable:
        return self._leaders[gid]

    def members(self, gid: int) -> tuple[Hashable, ...]:
        return self._members[gid]

    def group_epoch(self, gid: int) -> int:
        return self._epochs[gid]

    def groups(self) -> range:
        return range(self.num_groups)

    # -- failover -----------------------------------------------------------

    def promote(self, gid: int, new_leader: Hashable) -> int:
        """Make ``new_leader`` the group's leader; returns the new epoch.

        Only an existing member may be promoted (a non-member has none of
        the group's mirrored state).  Bumping the epoch fences every
        transaction that touched the group under the old leadership.
        """
        if new_leader not in self._members[gid]:
            raise ValueError(f"{new_leader!r} is not a member of group "
                             f"{gid}")
        self._leaders[gid] = new_leader
        self._epochs[gid] += 1
        return self._epochs[gid]

    # -- dynamic membership (DESIGN.md §5h) ---------------------------------

    def replace_member(self, gid: int, old: Hashable, new: Hashable, *,
                       now: float = 0.0) -> int:
        """Swap follower ``old`` for recruit ``new``; returns the new epoch.

        The group's size (and so its write quorum) is invariant: a recruit
        joins only by taking a departing member's slot.  The current leader
        cannot be replaced — demote it first (``promote``) so the group
        always has a lock authority.  ``new`` must be a cluster server not
        already in the group.  The epoch bump fences in-flight transactions
        that mirrored onto ``old``, exactly as a promotion does.
        """
        if old not in self._members[gid]:
            raise ValueError(f"{old!r} is not a member of group {gid}")
        if old == self._leaders[gid]:
            raise ValueError(f"cannot replace the leader {old!r} of group "
                             f"{gid}; promote a successor first")
        if new in self._members[gid]:
            raise ValueError(f"{new!r} is already a member of group {gid}")
        if new not in self._servers:
            raise ValueError(f"{new!r} is not a cluster server")
        self._members[gid] = tuple(new if m == old else m
                                   for m in self._members[gid])
        self._joined[(gid, new)] = now
        self._epochs[gid] += 1
        return self._epochs[gid]

    def member_joined_at(self, gid: int, server: Hashable) -> float | None:
        """Join time of a recruited member; None for founding members."""
        return self._joined.get((gid, server))

    # -- the server list ----------------------------------------------------

    @property
    def servers(self) -> tuple[Hashable, ...]:
        return self._servers

    def __len__(self) -> int:
        return len(self._servers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedPlacement({len(self._servers)} servers, "
                f"r={self.replication})")
