#!/usr/bin/env python3
"""Distributed MVTL (§7/§H) on the simulated testbed.

Builds a 3-server cluster on the *local* testbed profile, runs a contended
read-write workload under MVTIL and under the two baselines, prints the
§8-style summary (throughput, commit rate, messages), and certifies every
run with the MVSG serializability checker.  Then injects a coordinator
crash and shows the write-lock timeout + commitment object cleaning up.

Run:  python examples/distributed_cluster.py
"""

from repro.dist import ClusterConfig, run_cluster
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import check_serializable
from repro.workload import WorkloadConfig


def comparison() -> None:
    print("=" * 72)
    print("MVTIL vs MVTO+ vs 2PL on the simulated local testbed")
    print("  (20 clients, 8 ops/tx, 50% writes, 400 keys, 3 servers)")
    print("=" * 72)
    workload = WorkloadConfig(num_keys=400, tx_size=8, write_fraction=0.5)
    for protocol in ("mvtil-early", "mvtil-late", "mvto", "2pl"):
        config = ClusterConfig(
            protocol=protocol, profile=LOCAL_TESTBED, workload=workload,
            num_clients=20, warmup=0.3, measure=1.0, seed=42,
            record_history=True)
        result = run_cluster(config)
        report = check_serializable(result.history)
        assert report.serializable, (protocol, report.error)
        print(f"  {protocol:12s} throughput={result.throughput:8.1f} txs/s  "
              f"commit rate={result.commit_rate:5.3f}  "
              f"messages={result.messages_sent:7d}  serializable=OK")


def crash_recovery() -> None:
    print()
    print("=" * 72)
    print("Coordinator crash recovery (§H)")
    print("=" * 72)
    import numpy as np

    from repro.clocks import PerfectClock
    from repro.core.exceptions import TransactionAborted
    from repro.dist import (CommitmentRegistry, CrashInjector, MVTILClient,
                            MVTLServer)
    from repro.repl import ReplicatedPlacement
    from repro.sim import LatencyModel, Network, Simulator, Sleep

    sim = Simulator()
    net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                  np.random.default_rng(0))
    registry = CommitmentRegistry(sim)
    server = MVTLServer(sim, net, "s0", LOCAL_TESTBED,
                        np.random.default_rng(1), registry,
                        write_lock_timeout=0.25)
    partition = ReplicatedPlacement(["s0"])
    injector = CrashInjector(sim, net)

    victim = MVTILClient(sim, net, "victim", 1, partition,
                         PerfectClock(lambda: sim.now), registry, delta=0.5)
    survivor = MVTILClient(sim, net, "survivor", 2, partition,
                           PerfectClock(lambda: sim.now), registry,
                           delta=0.5)
    log = []

    def doomed():
        tx = victim.begin()
        yield from victim.write(tx, "account", "stolen")
        log.append(f"t={sim.now * 1000:6.1f}ms victim write-locked "
                   "'account' ... and crashes")
        yield Sleep(999)

    def rescuer():
        while True:
            tx = survivor.begin()
            try:
                yield from survivor.write(tx, "account", "safe")
                yield from survivor.commit(tx)
                log.append(f"t={sim.now * 1000:6.1f}ms survivor committed "
                           "'account'='safe'")
                return
            except TransactionAborted:
                log.append(f"t={sim.now * 1000:6.1f}ms survivor blocked by "
                           "orphaned locks, retrying")
                yield Sleep(0.1)

    proc = sim.spawn(doomed())
    injector.crash_client_at(0.01, "victim", proc)
    sim.schedule(0.05, lambda: sim.spawn(rescuer()))
    sim.run_until(3.0)
    for line in log:
        print("  " + line)
    print(f"  final value: account = {server.store.latest('account').value}")
    assert server.store.latest("account").value == "safe"


if __name__ == "__main__":
    comparison()
    crash_recovery()
