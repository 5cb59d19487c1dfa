"""End-to-end runs with the Paxos commitment backend (§H.1)."""

import pytest

from repro.dist import ClusterConfig, run_cluster
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import check_serializable
from repro.workload import WorkloadConfig


def config(**kwargs):
    defaults = dict(
        protocol="mvtil-early", profile=LOCAL_TESTBED,
        workload=WorkloadConfig(num_keys=80, tx_size=5, write_fraction=0.5),
        num_clients=8, warmup=0.2, measure=0.6, seed=13,
        commitment="paxos", record_history=True)
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


class TestPaxosCluster:
    @pytest.mark.parametrize("protocol", ["mvtil-early", "mvto"])
    def test_serializable_under_paxos(self, protocol):
        res = run_cluster(config(protocol=protocol))
        report = check_serializable(res.history)
        assert report.serializable, (protocol, report.error, report.cycle)
        assert res.committed > 0

    def test_paxos_costs_messages(self):
        local = run_cluster(config(commitment="local"))
        paxos = run_cluster(config(commitment="paxos"))
        # Consensus rounds add traffic...
        assert paxos.messages_sent > local.messages_sent
        # ...but both decide and commit plenty.
        assert paxos.commit_rate > 0.5

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(commitment="2pc")

    def test_crash_recovery_under_paxos(self):
        """An orphaned transaction is aborted through real consensus."""
        import numpy as np

        from repro.clocks import PerfectClock
        from repro.core.locks import LockMode
        from repro.dist import (CommitmentRegistry, CrashInjector,
                                MVTILClient, MVTLServer)
        from repro.dist.commitment import ABORT
        from repro.dist.paxos import PaxosAcceptor, PaxosConsensus
        from repro.repl import ReplicatedPlacement
        from repro.sim import LatencyModel, Network, Simulator, Sleep

        sim = Simulator()
        net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                      np.random.default_rng(0))
        registry = CommitmentRegistry(sim)
        acceptors = [PaxosAcceptor(sim, net, f"acc{i}") for i in range(3)]
        consensus = PaxosConsensus(sim, net, [f"acc{i}" for i in range(3)],
                                   rng=np.random.default_rng(1))
        server = MVTLServer(sim, net, "s0", LOCAL_TESTBED,
                            np.random.default_rng(2), registry,
                            write_lock_timeout=0.3, consensus=consensus)
        partition = ReplicatedPlacement(["s0"])
        injector = CrashInjector(sim, net)
        victim = MVTILClient(sim, net, "victim", 1, partition,
                             PerfectClock(lambda: sim.now), registry,
                             delta=0.5, consensus=consensus)

        def doomed():
            tx = victim.begin()
            yield from victim.write(tx, "X", "orphan")
            yield Sleep(999.0)

        proc = sim.spawn(doomed())
        injector.crash_client_at(0.01, "victim", proc)
        sim.run_until(3.0)
        # The server's timeout ran Paxos and decided abort; locks are gone.
        decided = [v for v in consensus.learned.values()]
        assert decided and decided[0] == ABORT
        state = server.locks.peek("X")
        for owner in list(state.owners()):
            assert state.held(owner, LockMode.WRITE).is_empty
