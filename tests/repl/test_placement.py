"""ReplicatedPlacement: key routing, quorums, failover."""

import pytest

from repro.repl.placement import ReplicatedPlacement
from repro.repl.replica import write_quorum

SERVERS = [f"server-{i}" for i in range(5)]

#: Index into SERVERS of the server owning ``k0000`` .. ``k0499``, as routed
#: by ``dist/partition.py``'s ``Partition(SERVERS)`` at the commit before it
#: was deleted (PR 19): the unreplicated map every recorded seed depends on.
STR_KEY_ROUTES = (
    "32330311012430141024424232232410112444021242314402"
    "43001421424104143044033423344442113123342403244312"
    "10314231042441401312042111134230123121101113133232"
    "14343342123040200400004212404031204210043020221322"
    "22131323303132000320310020340221414331021124414023"
    "14040003304112003211201440123343301324244244322024"
    "41211301313112330020130122111120231441100303141103"
    "32000143143040314143312340041440210241202002041124"
    "40220321334230202103412200422442342141220122140412"
    "20132010212120100422441020141412234132214102032214")


class TestRoutingParity:
    def test_replication_one_matches_partition_for_str_keys(self):
        placement = ReplicatedPlacement(SERVERS, replication=1)
        for i, route in enumerate(STR_KEY_ROUTES):
            assert placement.server_of(f"k{i:04d}") == SERVERS[int(route)]

    def test_replication_one_matches_partition_for_int_keys(self):
        placement = ReplicatedPlacement(SERVERS, replication=1)
        for key, route in enumerate("01234" * 100):
            assert placement.server_of(key) == SERVERS[int(route)]

    def test_deterministic(self):
        p = ReplicatedPlacement(["s0", "s1", "s2"])
        assert p.server_of("k0000042") == p.server_of("k0000042")

    def test_int_keys_modulo(self):
        p = ReplicatedPlacement(["s0", "s1", "s2"])
        assert p.server_of(4) == "s1"

    def test_spreads_keys(self):
        p = ReplicatedPlacement([f"s{i}" for i in range(4)])
        hit = {p.server_of(f"k{i:07d}") for i in range(200)}
        assert len(hit) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedPlacement([])

    def test_len(self):
        assert len(ReplicatedPlacement(["a", "b"])) == 2

    def test_group_memo_survives_a_promotion(self):
        # The memo holds key -> group, never key -> server: a failover
        # must reroute keys already looked up.
        placement = ReplicatedPlacement(SERVERS, replication=3)
        assert placement.server_of(7) == "server-2"
        placement.promote(2, "server-3")
        assert placement.server_of(7) == "server-3"
        assert placement.servers == tuple(SERVERS)

    def test_leader_unmoved_by_higher_replication(self):
        r1 = ReplicatedPlacement(SERVERS, replication=1)
        r3 = ReplicatedPlacement(SERVERS, replication=3)
        for key in range(100):
            assert r3.leader_of(key) == r1.leader_of(key)


class TestMembership:
    def test_members_are_distinct_ring_successors(self):
        placement = ReplicatedPlacement(SERVERS, replication=3)
        for gid in placement.groups():
            members = placement.members(gid)
            assert len(members) == 3
            assert len(set(members)) == 3
            assert members[0] == placement.leader(gid)
            assert members == tuple(SERVERS[(gid + i) % 5]
                                    for i in range(3))

    def test_followers_exclude_the_leader(self):
        placement = ReplicatedPlacement(SERVERS, replication=3)
        for key in range(20):
            followers = placement.followers_of(key)
            assert placement.leader_of(key) not in followers
            assert len(followers) == 2

    def test_replication_bounds_validated(self):
        with pytest.raises(ValueError):
            ReplicatedPlacement(SERVERS, replication=0)
        with pytest.raises(ValueError):
            ReplicatedPlacement(SERVERS, replication=6)
        with pytest.raises(ValueError):
            ReplicatedPlacement([], replication=1)


class TestFailover:
    def test_promote_moves_leadership_and_bumps_epoch(self):
        placement = ReplicatedPlacement(SERVERS, replication=3)
        gid = 0
        follower = placement.members(gid)[1]
        assert placement.group_epoch(gid) == 0
        epoch = placement.promote(gid, follower)
        assert epoch == 1
        assert placement.leader(gid) == follower
        assert placement.group_epoch(gid) == 1
        # Other groups are untouched.
        assert all(placement.group_epoch(g) == 0
                   for g in placement.groups() if g != gid)
        # followers_of now excludes the new leader, includes the old.
        key = next(k for k in range(100) if placement.group_of(k) == gid)
        assert follower not in placement.followers_of(key)
        assert SERVERS[0] in placement.followers_of(key)

    def test_promote_rejects_non_members(self):
        placement = ReplicatedPlacement(SERVERS, replication=2)
        outsider = placement.members(0)[-1]
        for gid in placement.groups():
            if outsider not in placement.members(gid):
                with pytest.raises(ValueError):
                    placement.promote(gid, outsider)
                break
        else:  # pragma: no cover - ring of 5, r=2 always has a gap
            pytest.fail("no group without the outsider")


class TestReplaceMember:
    def test_replace_swaps_membership_and_bumps_epoch(self):
        placement = ReplicatedPlacement(SERVERS, replication=3)
        gid = 0
        old = placement.members(gid)[1]
        outsider = next(s for s in SERVERS
                        if s not in placement.members(gid))
        epoch = placement.replace_member(gid, old, outsider, now=3.5)
        assert epoch == 1
        assert placement.group_epoch(gid) == 1
        members = placement.members(gid)
        assert outsider in members and old not in members
        assert len(members) == 3
        # Leadership is untouched; only the follower slot moved.
        assert placement.leader(gid) == SERVERS[0]
        assert placement.member_joined_at(gid, outsider) == 3.5
        assert placement.member_joined_at(gid, old) is None
        assert placement.member_joined_at(gid, SERVERS[0]) is None

    def test_replace_refuses_to_touch_the_leader(self):
        placement = ReplicatedPlacement(SERVERS, replication=3)
        outsider = next(s for s in SERVERS
                        if s not in placement.members(0))
        with pytest.raises(ValueError, match="leader"):
            placement.replace_member(0, placement.leader(0), outsider)

    def test_replace_validates_old_and_new(self):
        placement = ReplicatedPlacement(SERVERS, replication=3)
        follower = placement.members(0)[1]
        with pytest.raises(ValueError):  # new already a member
            placement.replace_member(0, follower, placement.members(0)[2])
        outsider = next(s for s in SERVERS
                        if s not in placement.members(0))
        with pytest.raises(ValueError):  # old not a member
            placement.replace_member(0, outsider, outsider)
        with pytest.raises(ValueError):  # new not a known server
            placement.replace_member(0, follower, "nobody")


class TestWriteQuorum:
    def test_majorities(self):
        assert write_quorum(1) == 1
        assert write_quorum(2) == 2
        assert write_quorum(3) == 2
        assert write_quorum(4) == 3
        assert write_quorum(5) == 3
