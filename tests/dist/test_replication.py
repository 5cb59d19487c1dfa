"""Replication, WAL durability and failover at the cluster level (repro.repl).

Covers the regression for the volatile dedup cache (satellite a: a restart
used to forget which committed requests it had already applied), the
follower-aware orphan scan (satellite b), WAL-restart determinism, quorum
convergence, follower reads and leader-crash failover.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from repro.clocks import PerfectClock
from repro.dist.client import MVTILClient
from repro.dist.cluster import ClusterConfig, run_cluster
from repro.dist.commitment import CommitmentRegistry
from repro.dist.failure import ChaosConfig, orphaned_write_locks
from repro.dist.messages import CommitReq
from repro.dist.server import MVTLServer, _APPLIED
from repro.repl import HEARTBEAT_INTERVAL
from repro.repl.checkpoint import DurableStore
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, Network
from repro.sim.simulator import Simulator
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import HistoryRecorder, check_serializable
from repro.workload.generator import WorkloadConfig


class _MiniCluster:
    """One durable server + one MVTIL client, no chaos machinery."""

    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        self.history = HistoryRecorder()
        self.server = MVTLServer(self.sim, self.net, "s0", LOCAL_TESTBED,
                                 np.random.default_rng(1), self.registry,
                                 write_lock_timeout=5.0,
                                 history=self.history,
                                 durable=DurableStore())
        self.client = MVTILClient(self.sim, self.net, "c", 1,
                                  ReplicatedPlacement(["s0"]),
                                  PerfectClock(lambda: self.sim.now),
                                  self.registry, history=self.history,
                                  delta=0.5)

    def commit_one(self, key, value):
        done = {}

        def run():
            tx = self.client.begin()
            yield from self.client.write(tx, key, value)
            yield from self.client.commit(tx)
            done["ok"] = True

        self.sim.spawn(run())
        self.sim.run_until(self.sim.now + 1.0)
        assert done.get("ok")


class TestDedupSurvivesRestart:
    """Satellite (a): the (client, req_id) dedup cache was volatile —
    a restarted server would re-execute a retried, already-applied
    CommitReq.  Restart now re-primes the cache from the WAL."""

    def test_retried_commit_after_restart_is_deduplicated(self):
        cluster = _MiniCluster()
        cluster.commit_one("X", "v1")
        server = cluster.server

        [record] = server.durable.wal.replay()
        kind, tx_id, ts, entries, client, req_id = record
        assert kind == "commit" and client == "c"
        wal_before = server.durable.wal.records_appended

        server.crash()
        server.restart()
        # Durable state recovered; dedup decision re-derived from the WAL.
        assert server.store.latest("X").value == "v1"
        assert server._req_log[(client, req_id)] is _APPLIED

        dups_before = server.stats["dup_requests"]
        duplicate = CommitReq(tx_id=tx_id, client=client, req_id=req_id,
                              ts=ts, write_keys=tuple(k for k, _ in entries),
                              spans={}, release=True, values=dict(entries))
        server._on_request(duplicate)
        cluster.sim.run_until(cluster.sim.now + 0.5)

        assert server.stats["dup_requests"] == dups_before + 1
        assert server.durable.wal.records_appended == wal_before
        assert server.store.latest("X").value == "v1"

    def test_dedup_survives_a_second_restart(self):
        cluster = _MiniCluster()
        cluster.commit_one("X", "v1")
        server = cluster.server
        pair = next(iter(server._durable_dedup))
        for _ in range(2):
            server.crash()
            server.restart()
            assert server._req_log[pair] is _APPLIED
            assert server.store.latest("X").value == "v1"


class TestOrphanScanCoversFollowers:
    """Satellite (b): the settle-window orphan scan also counts leaked
    mirrored state on follower replicas — unfrozen locks *and* pending
    buffer entries owned by crashed coordinators."""

    def test_pending_entries_of_crashed_coordinators_counted(self):
        class _Locks:
            def owners(self):
                return []

        follower = SimpleNamespace(
            server_id="f0", locks=_Locks(),
            pending={(("dead", 1), "k"): "v",      # crashed coordinator
                     (("dead", 1), "k2"): "w",
                     (("live", 2), "k"): "x"})     # survivor: not orphaned
        assert orphaned_write_locks([follower], {"dead"}) == 2
        assert orphaned_write_locks([follower], set()) == 0

    def test_servers_without_lock_tables_are_skipped(self):
        plain = SimpleNamespace(server_id="s1",
                                pending={(("dead", 1), "k"): "v"})
        assert orphaned_write_locks([plain], {"dead"}) == 0


def _outcome(res):
    return (res.committed, res.aborted, res.messages_sent,
            res.chaos_report, res.replication_report)


_BASE = ClusterConfig(
    protocol="mvtil-early",
    profile=replace(LOCAL_TESTBED, gc_horizon=0.6),
    workload=WorkloadConfig(num_keys=500, tx_size=4, write_fraction=0.3),
    num_servers=3, num_clients=6, seed=7,
    warmup=1.0, measure=1.5, gc_period=0.15,
    write_lock_timeout=0.25, rpc_timeout=0.1,
    record_history=True)


class TestWalRestart:
    def test_wal_restart_chaos_is_deterministic_and_serializable(self):
        config = replace(_BASE, durability="wal", checkpoint_every=64,
                         chaos=ChaosConfig(client_crashes=2,
                                           server_restarts=2,
                                           downtime=0.3))
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]
        assert _outcome(runs[0]) == _outcome(runs[1])
        assert res.committed > 0
        assert res.chaos_report["server_restarts"] >= 2
        assert res.chaos_report["orphaned_write_locks"] == 0
        assert res.replication_report["wal_records"] > 0
        for r in runs:
            assert check_serializable(r.history).serializable


class TestReplication:
    def test_quorum_convergence_no_lost_commits(self):
        config = replace(_BASE, replication=3, durability="wal",
                         checkpoint_every=64)
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]
        rep = res.replication_report
        assert _outcome(runs[0]) == _outcome(runs[1])
        assert res.committed > 0
        assert rep["holds_mirrored"] > 0
        assert rep["commits_checked"] > 0
        assert rep["lost_commits"] == 0
        assert rep["replica_missing"] == 0
        assert check_serializable(res.history).serializable

    def test_follower_reads_are_served_and_serializable(self):
        config = replace(_BASE, replication=3, durability="wal",
                         checkpoint_every=64, follower_reads=True)
        res = run_cluster(config)
        rep = res.replication_report
        assert rep["follower_reads"] > 0
        assert rep["snapshot_commits"] > 0
        assert rep["read_staleness"]["count"] > 0
        # Snapshot readers and interval-locked writers share one history:
        # locked-timestamp follower reads must not break serializability.
        assert check_serializable(res.history).serializable

    def test_leader_crash_promotes_follower_without_losing_commits(self):
        config = replace(_BASE, replication=3, durability="wal",
                         checkpoint_every=64, follower_reads=True,
                         chaos=ChaosConfig(leader_crashes=1,
                                           leader_downtime=0.4))
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]
        rep = res.replication_report
        assert _outcome(runs[0]) == _outcome(runs[1])
        assert res.committed > 0
        assert len(rep["promotions"]) >= 1
        bound = (HEARTBEAT_INTERVAL * (config.heartbeat_miss_limit + 2)
                 + HEARTBEAT_INTERVAL)
        assert all(lat <= bound for lat in rep["failover_latencies"])
        assert rep["lost_commits"] == 0
        assert res.chaos_report["orphaned_write_locks"] == 0
        for r in runs:
            assert check_serializable(r.history).serializable
