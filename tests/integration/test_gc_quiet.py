"""Cluster runs make no cyclic garbage — which is why pausing the cycle
collector for their span (``run_cluster``) is safe.

Everything a run allocates and drops while it is live — messages, replies,
interval sets, lock records, transaction records, exceptions — is acyclic
and freed by reference counting; only the *finished* cluster is a cyclic
blob, and that is reclaimed after ``run_cluster`` re-enables the collector.
These tests run with the pause neutralised and count what the collector
finds inside the call.  A change that makes every transaction (or message)
leave a reference cycle behind would, under the pause, grow memory for the
whole length of a run; here it fails a test instead.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

# run_cluster imports the paxos backend on first use; building its slotted
# dataclasses leaves the discarded class objects (5 tracked objects, once
# per process) for the collector.  Import-time, not run-time: do it here.
import repro.dist.paxos  # noqa: F401
from repro.dist import ClusterConfig, cluster, run_cluster
from repro.dist.failure import ChaosConfig
from repro.sim.network import LinkFaults
from repro.sim.testbed import LOCAL_TESTBED
from repro.workload import WorkloadConfig
from repro.workload.scenarios import scenario_config

MIXED = WorkloadConfig(num_keys=60, tx_size=6, write_fraction=0.5)


def small(protocol="mvtil-early", **kwargs):
    defaults = dict(protocol=protocol, profile=LOCAL_TESTBED, workload=MIXED,
                    num_clients=8, warmup=0.1, measure=0.4, seed=11)
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


CONFIGS = {
    "mvtil-early": small("mvtil-early"),
    "mvtil-late": small("mvtil-late"),
    "mvto": small("mvto"),
    "2pl": small("2pl"),
    "bohm": small("bohm"),
    "traced+history": small(trace=True, record_history=True),
    "overload": small(
        num_clients=40, queue_capacity=4, admission_control=True,
        tx_budget=0.02, breaker_threshold=2),
    "abort-heavy": small(
        num_clients=30,
        workload=WorkloadConfig(num_keys=200, tx_size=8,
                                write_fraction=0.7)),
    "replicated+wal+faults+chaos": small(
        profile=replace(LOCAL_TESTBED, gc_horizon=0.3),
        workload=WorkloadConfig(num_keys=400, tx_size=4,
                                write_fraction=0.3),
        num_clients=16, num_servers=4, replication=3, durability="wal",
        checkpoint_every=16,
        follower_reads=True, anti_entropy=True, recruitment=True,
        reliable_fanout=True, sync_batch=8, heartbeat_miss_limit=5,
        write_lock_timeout=0.25, rpc_timeout=0.15, rpc_retries=3,
        gc_period=0.1, warmup=0.3, measure=1.2,
        faults=LinkFaults(loss=0.03, duplicate=0.02, delay_spike=0.01),
        chaos=ChaosConfig(leader_crashes=1, leader_downtime=0.3,
                          follower_restarts=1, follower_downtime=0.2)),
    "bank-transfer": scenario_config("bank-transfer", seed=23, warmup=0.1,
                                     measure=0.4, num_clients=4),
    "paxos": small(commitment="paxos"),
}


def cyclic_garbage_during_run(config, monkeypatch):
    """(collections, objects found) by the collector inside run_cluster."""
    monkeypatch.setattr(cluster.gc, "disable", lambda: None)
    seen = {"on": False, "collections": 0, "garbage": 0}

    def hook(phase, info):
        if phase == "stop" and seen["on"]:
            seen["collections"] += 1
            seen["garbage"] += info["collected"] + info["uncollectable"]

    gc.collect()
    gc.callbacks.append(hook)
    try:
        seen["on"] = True
        result = run_cluster(config)
        # Switched off before anything is allocated: the finished cluster
        # *is* cyclic, and the next collection will (rightly) find it.
        seen["on"] = False
    finally:
        gc.callbacks.remove(hook)
    assert result.committed > 0
    return seen["collections"], seen["garbage"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_live_run_leaves_nothing_for_the_cycle_collector(name, monkeypatch):
    assert gc.isenabled()
    collections, garbage = cyclic_garbage_during_run(CONFIGS[name],
                                                     monkeypatch)
    # run_cluster's own young collection on entry, plus the automatic ones.
    assert collections >= 2, "run too short to exercise the collector"
    assert garbage == 0, (
        f"{garbage} objects in reference cycles were dropped while the "
        f"cluster was running; under run_cluster's collector pause they "
        f"would pile up until the run ends")
