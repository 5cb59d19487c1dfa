"""Commit-path batching: message counts and outcome equivalence.

The acceptance bar for batching is wire-level: an MVTIL commit's write-lock
pass must cost O(servers touched) messages, not O(written keys) — one
MVTLBatchLockReq per server instead of one MVTLWriteLockReq per key — and
batching must change *only* the message count, never what commits or what a
later reader observes.
"""

import numpy as np
import pytest

from repro.clocks import PerfectClock
from repro.core.exceptions import TransactionAborted
from repro.dist.client import MVTILClient, MVTOClient
from repro.dist.commitment import CommitmentRegistry
from repro.dist.server import MVTLServer
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, Network
from repro.sim.simulator import Simulator, Sleep
from repro.sim.testbed import LOCAL_TESTBED

KEYS = [f"b{i}" for i in range(8)]


class MiniCluster:
    def __init__(self, num_servers=2):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        self.servers = []
        ids = []
        for i in range(num_servers):
            sid = f"s{i}"
            ids.append(sid)
            self.servers.append(MVTLServer(
                self.sim, self.net, sid, LOCAL_TESTBED,
                np.random.default_rng(i + 1), self.registry))
        self.partition = ReplicatedPlacement(ids)

    def drive(self, gen, until=5.0):
        result = {}

        def wrapper():
            try:
                result["value"] = yield from gen
            except TransactionAborted as exc:
                result["aborted"] = exc.reason

        self.sim.spawn(wrapper())
        self.sim.run_until(self.sim.now + until)
        return result


def _mvtil(cluster, name="c1", pid=1, **kwargs):
    return MVTILClient(cluster.sim, cluster.net, name, pid,
                       cluster.partition,
                       PerfectClock(lambda: cluster.sim.now),
                       cluster.registry, delta=0.05, **kwargs)


def _mvto(cluster, name="c1", pid=1, **kwargs):
    return MVTOClient(cluster.sim, cluster.net, name, pid,
                      cluster.partition,
                      PerfectClock(lambda: cluster.sim.now),
                      cluster.registry, **kwargs)


def _write_all(client, keys):
    tx = client.begin()
    for key in keys:
        yield from client.write(tx, key, f"v-{key}")
    ok = yield from client.commit(tx)
    return ok, tx


def _count_messages(make_client):
    """Messages one all-write transaction costs on a fresh 2-server
    cluster; returns (sent, servers_touched)."""
    cluster = MiniCluster(num_servers=2)
    client = make_client(cluster)
    servers_touched = {cluster.partition.server_of(k) for k in KEYS}
    before = cluster.net.messages_sent
    out = cluster.drive(_write_all(client, KEYS))
    assert out["value"][0] is True
    return cluster.net.messages_sent - before, len(servers_touched)


class TestMessageCounts:
    def test_mvtil_commit_messages_drop_to_per_server(self):
        eager, s = _count_messages(lambda c: _mvtil(c, defer_writes=False))
        batched, s2 = _count_messages(lambda c: _mvtil(c, defer_writes=True))
        assert s == s2
        k = len(KEYS)
        assert s < k  # the workload actually exercises batching
        # Eager: one write-lock round trip per key (2K) + one CommitReq per
        # server.  Deferred: one batch round trip per server (2S) + the
        # same CommitReqs — O(servers), not O(written keys).
        assert eager == 2 * k + s
        assert batched == 3 * s

    def test_mvto_commit_messages_drop_to_per_server(self):
        eager, s = _count_messages(lambda c: _mvto(c, batch_commit=False))
        batched, s2 = _count_messages(lambda c: _mvto(c, batch_commit=True))
        assert s == s2
        k = len(KEYS)
        assert eager == 2 * k + s
        assert batched == 3 * s

    def test_client_msgs_sent_stat_counts_outbound(self):
        cluster = MiniCluster(num_servers=2)
        client = _mvtil(cluster, defer_writes=True)
        servers_touched = {cluster.partition.server_of(k) for k in KEYS}
        out = cluster.drive(_write_all(client, KEYS))
        assert out["value"][0] is True
        # Client-outbound only (replies belong to the servers): one batch
        # request plus one CommitReq per touched server.
        assert client.stats["msgs_sent"] == 2 * len(servers_touched)


class TestOutcomeEquivalence:
    @pytest.mark.parametrize("defer_writes", [False, True])
    def test_mvtil_written_values_visible(self, defer_writes):
        cluster = MiniCluster(num_servers=2)
        writer = _mvtil(cluster, "w", 1, defer_writes=defer_writes)
        out = cluster.drive(_write_all(writer, KEYS))
        assert out["value"][0] is True
        reader = _mvtil(cluster, "r", 2)

        def read_all():
            tx = reader.begin()
            got = {}
            for key in KEYS:
                got[key] = yield from reader.read(tx, key)
            ok = yield from reader.commit(tx)
            return ok, got

        out = cluster.drive(read_all())
        ok, got = out["value"]
        assert ok
        assert got == {key: f"v-{key}" for key in KEYS}

    def test_mvto_batched_write_conflict_still_aborts(self):
        """A batched all-or-nothing pass must refuse conflicted items.

        The writer begins first (lower timestamp); the reader then reads the
        key and commits, leaving a persistent read-timestamp above the
        writer's commit point.  The writer's batched commit must abort
        exactly like the per-key protocol does in the §5.5 schedule.
        """
        cluster = MiniCluster(num_servers=1)
        writer = _mvto(cluster, "w", 1, batch_commit=True)
        reader = _mvto(cluster, "r", 2)
        outcome = {}

        def run():
            t_w = writer.begin()
            yield Sleep(0.001)
            t_r = reader.begin()
            yield from reader.read(t_r, "X")
            assert (yield from reader.commit(t_r))
            yield from writer.write(t_w, "X", "late")
            try:
                yield from writer.commit(t_w)
                outcome["w"] = True
            except TransactionAborted:
                outcome["w"] = False

        cluster.drive(run())
        assert outcome["w"] is False
