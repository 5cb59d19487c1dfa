"""Full-result golden digests: every deterministic ``ClusterResult`` field
of thirteen small runs, pinned to values recorded on known-good code.

``test_golden_payload.py`` pins seven scalars of four unreplicated cells.
This file pins the rest — the report dicts, ``server_stats``,
``latency_summary``, ``final_state``, the trace and the folded ``metrics``
— across the feature compositions the cluster layer supports, so a
refactor of ``repro.dist`` that moves *any* simulated output fails here.
The digest is the sha256 of canonical JSON over the field set of
``repro.bench.recipes.fingerprint`` (everything but ``config``,
``history`` and ``wall_s``) minus ``sim_events``; it does not depend on
``PYTHONHASHSEED``.  ``sim_events`` is pinned beside it, in its own
table: it counts heap pops, so it moves with the simulator's
bookkeeping even when no simulated outcome does.

The outputs they cover were first pinned before the server/client
refactor that split ``MVTLServer`` and ``MVTILClient`` touched any source
file; the digests were re-based to leave ``sim_events`` out on the commit
before the event heap stopped holding dead timers (where the full
digests still matched), and held across that change.  Re-pin a digest
only for a deliberate protocol change, and say so in CHANGES.md; a
``SIM_EVENTS`` entry may move for an event-heap change that leaves every
digest alone.

The second half pins the *shape* that refactor produced: abort is an
exception, the plain server is Alg. 13 and only a ``ReplicaServer`` speaks
the replication-member wire, the plain MVTIL client is Alg. 11/12 and only
a ``ReplicaClient`` fences, mirrors and reads snapshots, and a WAL-only
restart is still reported.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.bench.recipes import fingerprint
from repro.core.timestamp import Timestamp
from repro.dist import (ChaosConfig, ClusterConfig, CommitmentRegistry,
                        MVTLServer, ReplicaClient, ReplicaServer, cluster,
                        member, run_cluster)
from repro.clocks import PerfectClock
from repro.dist.bohm import BohmClient
from repro.dist.client import BaseClient, MVTILClient, MVTOClient
from repro.dist.member import (HeartbeatReply, HeartbeatReq,
                               SnapshotReadReply, SnapshotReadReq, SyncPoke)
from repro.dist.twopl import TwoPLClient
from repro.sim import (LOCAL_TESTBED, LatencyModel, LinkFaults, Network,
                       Simulator)
from repro.repl.placement import ReplicatedPlacement
from repro.workload import WorkloadConfig

MIXED = WorkloadConfig(num_keys=60, tx_size=6, write_fraction=0.5)

#: The selfheal recipe's shape on a smaller key space and a shorter window:
#: one leader crash (promotion + recruitment) and one follower restart
#: (WAL recovery + full re-sync) under lossy links.
SELFHEAL = ClusterConfig(
    protocol="mvtil-early", profile=replace(LOCAL_TESTBED, gc_horizon=0.3),
    workload=WorkloadConfig(num_keys=400, tx_size=4, write_fraction=0.3),
    num_servers=4, num_clients=16, seed=11, warmup=0.3, measure=1.6,
    gc_period=0.1, write_lock_timeout=0.25, rpc_timeout=0.15, rpc_retries=3,
    replication=3, durability="wal", checkpoint_every=16,
    follower_reads=True, anti_entropy=True, recruitment=True,
    reliable_fanout=True, sync_batch=8, heartbeat_miss_limit=5,
    faults=LinkFaults(loss=0.03, duplicate=0.02, delay_spike=0.01),
    chaos=ChaosConfig(leader_crashes=1, leader_downtime=0.3,
                      follower_restarts=1, follower_downtime=0.2),
    record_history=True)

CONFIGS = {
    # perflab's four cluster workloads, shortened.
    "mvtil-hotpath": ClusterConfig(
        protocol="mvtil-early", profile=LOCAL_TESTBED,
        num_servers=4, num_clients=12, seed=1, warmup=0.2, measure=0.3,
        workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                write_fraction=0.25)),
    "mvtil-contended": ClusterConfig(
        protocol="mvtil-early", profile=LOCAL_TESTBED,
        num_servers=4, num_clients=60, seed=1, warmup=0.1, measure=0.15,
        workload=WorkloadConfig(num_keys=200, tx_size=8,
                                write_fraction=0.7)),
    "mvto-grid": ClusterConfig(
        protocol="mvto", profile=LOCAL_TESTBED,
        num_clients=30, seed=1, warmup=0.1, measure=0.2,
        workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                write_fraction=0.25)),
    "selfheal": SELFHEAL,
    "selfheal-traced": replace(SELFHEAL, trace=True, measure=1.2),
    # The other protocols and the per-key (unbatched) wire.
    "2pl": ClusterConfig(
        protocol="2pl", profile=LOCAL_TESTBED, workload=MIXED,
        num_clients=10, seed=11, warmup=0.1, measure=0.4,
        state_sample_period=0.1),
    "bohm": ClusterConfig(
        protocol="bohm", profile=LOCAL_TESTBED, workload=MIXED,
        num_clients=10, seed=11, warmup=0.1, measure=0.4),
    "mvtil-per-key": ClusterConfig(
        protocol="mvtil-late", profile=LOCAL_TESTBED, workload=MIXED,
        num_clients=10, seed=11, warmup=0.1, measure=0.4, batching=False,
        record_completions=True),
    "mvto-per-key": ClusterConfig(
        protocol="mvto", profile=LOCAL_TESTBED, workload=MIXED,
        num_clients=10, seed=11, warmup=0.1, measure=0.4, batching=False),
    # Overload control: bounded queues, deadlines, circuit breakers.
    "overload": ClusterConfig(
        protocol="mvtil-early", profile=LOCAL_TESTBED, workload=MIXED,
        num_clients=40, seed=11, warmup=0.1, measure=0.4,
        queue_capacity=4, admission_control=True, tx_budget=0.02,
        breaker_threshold=2),
    # Message-passing consensus with crashed coordinators on lossy links.
    "paxos-chaos": ClusterConfig(
        protocol="mvtil-early", profile=LOCAL_TESTBED, workload=MIXED,
        num_clients=10, seed=11, warmup=0.1, measure=0.5,
        commitment="paxos", write_lock_timeout=0.2,
        rpc_timeout=0.1, rpc_retries=2,
        faults=LinkFaults(loss=0.02, duplicate=0.02, delay_spike=0.01),
        chaos=ChaosConfig(client_crashes=2)),
    # Durability without replication: the servers are plain MVTLServers.
    "wal-restart": ClusterConfig(
        protocol="mvtil-early",
        profile=replace(LOCAL_TESTBED, gc_horizon=0.3), workload=MIXED,
        num_servers=2, num_clients=10, seed=11, warmup=0.1, measure=0.8,
        gc_period=0.1, write_lock_timeout=0.25,
        rpc_timeout=0.15, rpc_retries=2,
        durability="wal", checkpoint_every=16,
        chaos=ChaosConfig(server_restarts=1, downtime=0.2)),
    # A traced scenario run: trace events, folded metrics, final state.
    "bank-transfer-traced": ClusterConfig(
        protocol="mvtil-early", scenario="bank-transfer",
        workload=WorkloadConfig(num_keys=32, tx_size=4,
                                write_fraction=0.5, zipf_s=0.6),
        num_clients=4, seed=23, warmup=0.1, measure=0.4,
        record_history=True, trace=True),
}

DIGESTS = {
    "2pl":
        "8c8d4d10f65305c0a598b8912c93a7b8f3457a4a6bd35c2400b5970c588d8253",
    "bank-transfer-traced":
        "f5d6772f4c6e96b5723c6112c43fa6eda9a29d2c7687ddd1a449ca5468812e23",
    # Re-pinned when the Bohm sequencer began counting its requests: only
    # ``server_stats[0]["requests"]`` moved (0 -> 500).
    "bohm":
        "15290b061a038d2dfcb79574519e4e0da7b439bc5944178d2ca4f0ea136651eb",
    "mvtil-contended":
        "1af72363a7f742337ade43dddf126759047d8e1260798e971e7e6802593703c8",
    "mvtil-hotpath":
        "e1c558b86124c6bbef4384f976e1dc49a15fe04d9f7fb6e1a452c950cca633a2",
    "mvtil-per-key":
        "ae1c6b37245290abf09cb4899c759467517126d3f1ca8da2b856008d5f2b6b43",
    "mvto-grid":
        "36a4670d89929b2750cea1cd5d38cc6eabf55b5edf68e3142768505a8cbc0061",
    "mvto-per-key":
        "cece40ae2f120f7ee1fcd80adb8cfda24f0025f1f590ade3de1d3072b7f2ef1a",
    "overload":
        "4989f5d86bc3f45d53e68dc1c082d05632837e58bd6928daef4b108b4f3c5fd1",
    "paxos-chaos":
        "f7ae459fe55a18fb9c4c34d5c53b1ff9fa17453110f58bf19d7e23f56803911d",
    "selfheal":
        "43d71138fd043791700b26b52cf225f68df5486e10937fa7a68223265b358883",
    "selfheal-traced":
        "3bf752688fa049423c7e914939627f07f3d68a9e095ca8dd524affd5a9adce53",
    "wal-restart":
        "4bb2243ee3fe5c2dd0322136ba45819df30cdcaa5a058be14b17debd7ca7b337",
}

#: ``ClusterResult.sim_events`` per config: how many heap events the
#: simulator popped.  It counts simulator bookkeeping as well as simulated
#: work (a timer that pops after its wait was answered is one event), so
#: it is pinned apart from the digest: a change to the event heap may move
#: it without moving any simulated outcome.
SIM_EVENTS = {
    "2pl": 4557,
    "bank-transfer-traced": 15399,
    "bohm": 2039,
    "mvtil-contended": 79056,
    "mvtil-hotpath": 55687,
    "mvtil-per-key": 17855,
    "mvto-grid": 71771,
    "mvto-per-key": 33311,
    "overload": 79855,
    "paxos-chaos": 14158,
    "selfheal": 16407,
    "selfheal-traced": 11735,
    "wal-restart": 101382,
}


def digest(result) -> str:
    names = [f.name for f in fields(result)
             if f.name not in ("config", "history", "wall_s")]
    values = fingerprint(result)
    assert len(names) == len(values)
    doc = dict(zip(names, values))
    del doc["sim_events"]  # pinned on its own, in SIM_EVENTS
    canonical = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_full_result_matches_the_pinned_digest(name):
    result = run_cluster(CONFIGS[name])
    assert result.committed > 0
    assert digest(result) == DIGESTS[name], (
        f"{name}: a deterministic ClusterResult field changed.  A refactor "
        f"must not move simulated output: diff the fields of this config's "
        f"result against the parent commit's to find which one.")
    assert result.sim_events == SIM_EVENTS[name]


# -- the shape the refactor must keep (PR 20) --------------------------------

MEMBER_MESSAGES = (
    HeartbeatReq("__hb__", "probe", 1),
    SnapshotReadReq("tx", "probe", 2, key="k", ts=Timestamp(1.0, 0)),
    SyncPoke(mark_dirty=True, origin="probe"),
)


def test_abort_is_an_exception_not_a_coroutine():
    for client in (MVTILClient, MVTOClient, TwoPLClient, BohmClient):
        assert not inspect.isgeneratorfunction(client._fail), client
    for helper in ("_check_deadline", "_admit", "_expect", "_expect_all",
                   "_check_epoch"):
        assert not inspect.isgeneratorfunction(getattr(BaseClient, helper))
    for helper in ("_check_group", "_validate_groups"):
        assert not inspect.isgeneratorfunction(getattr(ReplicaClient,
                                                       helper))
    # The runner drives these two with ``yield from``: still generators.
    assert inspect.isgeneratorfunction(MVTOClient.write)
    assert inspect.isgeneratorfunction(TwoPLClient.commit)


def lone_server(server_cls):
    sim = Simulator()
    net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                  np.random.default_rng(0))
    server = server_cls(sim, net, "s0", LOCAL_TESTBED,
                        np.random.default_rng(1), CommitmentRegistry(sim))
    replies = []
    net.register("probe", replies.append)
    return sim, server, replies


def test_the_plain_server_is_alg13_and_rejects_member_traffic():
    source = inspect.getsource(MVTLServer)
    for name in ("ReplicaHoldReq", "SnapshotReadReq", "HeartbeatReq",
                 "SyncReq", "SyncDelta", "SyncPoke", "SyncDone", "_sync_",
                 "resync"):
        assert name not in source, name
    assert "replicated" not in inspect.signature(MVTLServer).parameters
    _sim, server, _replies = lone_server(MVTLServer)
    for msg in MEMBER_MESSAGES:
        with pytest.raises(TypeError, match="unknown message"):
            server._on_request(msg)


def test_a_replica_server_answers_member_traffic():
    sim, server, replies = lone_server(ReplicaServer)
    for msg in MEMBER_MESSAGES:
        server._on_request(msg)
    sim.run_until(0.01)
    beat, read = replies
    assert isinstance(beat, HeartbeatReply) and beat.server == "s0"
    # Never purged, so no frontier is provably stable here: refused.
    assert isinstance(read, SnapshotReadReply) and not read.ok
    assert server.snapshot_dirty  # the poke's recruitment prologue took


def record_builds(monkeypatch, *where):
    """Patch each ``(module, class name)`` with a subclass that appends the
    name to the returned list when built.  Each class is patched where
    run_cluster looks it up: the replica roles in :mod:`repro.dist.member`,
    which only a replicated config loads, and which checks its members
    with ``isinstance``, so the stand-in must stay a subclass."""
    built = []
    for module, name in where:
        class Recording(getattr(module, name)):
            def __init__(self, *args, _name=name, **kwargs):
                built.append(_name)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(module, name, Recording)
    return built


@pytest.mark.parametrize("replication", [1, 3])
def test_run_cluster_builds_replica_servers_exactly_when_replicated(
        replication, monkeypatch):
    built = record_builds(monkeypatch, (cluster, "MVTLServer"),
                          (member, "ReplicaServer"))
    run_cluster(ClusterConfig(
        protocol="mvtil-early", profile=LOCAL_TESTBED, workload=MIXED,
        num_servers=3, num_clients=2, seed=3, warmup=0.05, measure=0.05,
        replication=replication))
    assert built == ["ReplicaServer" if replication > 1
                     else "MVTLServer"] * 3


def test_the_plain_mvtil_client_is_alg11_12():
    source = inspect.getsource(MVTILClient)
    for name in ("replication", "snapshot", "follower", "group_epoch",
                 "mirror", "fanout", "_snap_floor"):
        assert name not in source, name
    sim = Simulator()
    net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                  np.random.default_rng(0))
    args = (sim, net, "c", 1, ReplicatedPlacement(["s0"]),
            PerfectClock(lambda: sim.now), CommitmentRegistry(sim))
    client = MVTILClient(*args)
    for name in ("replication", "_snap_floor", "read_staleness",
                 "server_of"):
        assert not hasattr(client, name), name
    assert len(client.stats) == 7
    assert [p.name for p in inspect.signature(MVTILClient).parameters.values()
            if p.kind is p.KEYWORD_ONLY] == [
        "delta", "late", "read_timeout", "defer_writes"]
    with pytest.raises(TypeError, match="follower_reads"):
        MVTILClient(*args, follower_reads=True)


@pytest.mark.parametrize("replication", [1, 3])
def test_run_cluster_builds_replica_clients_exactly_when_replicated(
        replication, monkeypatch):
    built = record_builds(monkeypatch, (cluster, "MVTILClient"),
                          (member, "ReplicaClient"))
    run_cluster(ClusterConfig(
        protocol="mvtil-early", profile=LOCAL_TESTBED, workload=MIXED,
        num_servers=3, num_clients=2, seed=3, warmup=0.05, measure=0.05,
        replication=replication))
    assert built == ["ReplicaClient" if replication > 1
                     else "MVTILClient"] * 2


def test_a_wal_only_restart_still_reports_the_server_dirty():
    report = run_cluster(CONFIGS["wal-restart"]).replication_report
    assert report["replication"] == 1
    assert report["dirty_at_end"] == ["server-1"]
    assert report["resyncs"] == 0 and report["resync_latencies"] == []


def test_the_knobs_nobody_set_are_gone():
    assert not {"queue_sample_period", "heartbeat_interval"} & {
        f.name for f in fields(ClusterConfig)}
