"""Server crash/restart, epoch fencing, and chaos scenarios end to end.

A restarted server rejoins with empty volatile lock state but a bumped
epoch.  Every MVTL reply carries the epoch; a client that sees two
different epochs from the same server knows its locks there may have
evaporated and aborts instead of committing on them (SERVER_RESTART).
"""

import numpy as np
import pytest

from repro.clocks import PerfectClock
from repro.core.exceptions import AbortReason, TransactionAborted
from repro.dist.client import MVTILClient
from repro.dist.cluster import ClusterConfig, run_cluster
from repro.dist.commitment import CommitmentRegistry
from repro.dist.failure import (ChaosConfig, ChaosEvent, ChaosSchedule,
                                CrashInjector)
from repro.dist.server import MVTLServer
from repro.dist.gc_service import TimestampService
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, LinkFaults, Network
from repro.sim.simulator import Simulator, Sleep
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import HistoryRecorder, check_serializable
from repro.workload.generator import WorkloadConfig


class Cluster:
    def __init__(self, write_lock_timeout=0.3, **client_kw):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        self.history = HistoryRecorder()
        self.server = MVTLServer(self.sim, self.net, "s0", LOCAL_TESTBED,
                                 np.random.default_rng(1), self.registry,
                                 write_lock_timeout=write_lock_timeout,
                                 history=self.history)
        self.partition = ReplicatedPlacement(["s0"])
        self.client_kw = client_kw

    def client(self, name, pid):
        return MVTILClient(self.sim, self.net, name, pid, self.partition,
                           PerfectClock(lambda: self.sim.now), self.registry,
                           history=self.history, delta=0.5, **self.client_kw)


class TestServerRestart:
    def test_restart_wipes_locks_keeps_versions(self):
        cluster = Cluster()
        client = cluster.client("c", 1)
        done = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v1")
            yield from client.commit(tx)
            done["committed"] = True
            tx2 = client.begin()
            yield from client.write(tx2, "Y", "pending")
            done["locked"] = True

        cluster.sim.spawn(run())
        cluster.sim.run_until(0.1)
        assert done.get("committed") and done.get("locked")
        server = cluster.server
        assert server.locks.owners()  # tx2's write lock is installed
        server.crash()
        server.restart()
        assert server.epoch == 1
        assert server.stats["restarts"] == 1
        # Volatile state gone ...
        assert server.locks.owners() == []
        assert not server.pending
        # ... durable versions kept.
        assert server.store.latest("X").value == "v1"

    def test_crash_is_fail_stop(self):
        cluster = Cluster()
        server = cluster.server
        server.crash()
        assert not cluster.net.is_up("s0")
        server.crash()  # idempotent
        server.restart()
        assert cluster.net.is_up("s0")
        server.restart()  # idempotent: no double epoch bump
        assert server.epoch == 1

    def test_epoch_fencing_aborts_across_restart(self):
        """A transaction that spans a server restart must abort: its locks
        on the restarted server no longer exist."""
        cluster = Cluster(rpc_timeout=0.05, rpc_retries=3)
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v")  # epoch 0 recorded
            yield Sleep(0.2)                       # restart happens here
            try:
                yield from client.write(tx, "Y", "w")  # reply: epoch 1
                yield from client.commit(tx)
                outcome["committed"] = True
            except TransactionAborted as exc:
                outcome["reason"] = exc.reason

        cluster.sim.spawn(run())
        cluster.sim.schedule(0.08, cluster.server.crash)
        cluster.sim.schedule(0.12, cluster.server.restart)
        cluster.sim.run_until(2.0)
        assert "committed" not in outcome
        assert outcome["reason"] == AbortReason.SERVER_RESTART

    def test_validate_epochs_catches_silent_restart(self):
        """With validate_epochs the pre-commit round detects a restart even
        when the client had no post-restart traffic with the server."""
        cluster = Cluster(rpc_timeout=0.05, rpc_retries=3,
                          validate_epochs=True)
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v")
            yield Sleep(0.2)  # server restarts; no further ops before commit
            try:
                yield from client.commit(tx)
                outcome["committed"] = True
            except TransactionAborted as exc:
                outcome["reason"] = exc.reason

        cluster.sim.spawn(run())
        cluster.sim.schedule(0.08, cluster.server.crash)
        cluster.sim.schedule(0.12, cluster.server.restart)
        cluster.sim.run_until(2.0)
        assert "committed" not in outcome
        assert outcome["reason"] == AbortReason.SERVER_RESTART

    def test_requests_during_downtime_vanish(self):
        cluster = Cluster(rpc_timeout=0.05, rpc_retries=0)
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            try:
                yield from client.write(tx, "X", "v")
                outcome["locked"] = True
            except TransactionAborted as exc:
                outcome["reason"] = exc.reason

        cluster.server.crash()
        cluster.sim.spawn(run())
        cluster.sim.run_until(1.0)
        assert outcome.get("reason") == AbortReason.RPC_TIMEOUT


class TestTimestampServiceSkipsCrashed:
    def test_no_broadcast_to_crashed_nodes(self):
        sim = Simulator()
        net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                      np.random.default_rng(0))
        got = {"server": [], "client": []}
        net.register("srv", got["server"].append)
        net.register("cli", got["client"].append)
        service = TimestampService(sim, net, ["srv"], ["cli"],
                                   horizon=0.1, period=0.5)
        service.start()
        sim.run_until(1.1)  # two ticks, both nodes up
        up_srv, up_cli = len(got["server"]), len(got["client"])
        assert up_srv == up_cli == 2
        net.unregister("cli")
        baseline = net.messages_sent
        sim.run_until(2.1)  # two more ticks, client crashed
        # The server still gets purges; nothing was even *sent* to the
        # crashed client (regression: it used to broadcast forever).
        assert len(got["server"]) == up_srv + 2
        assert len(got["client"]) == up_cli
        assert net.messages_sent == baseline + 2


class TestChaosSchedule:
    def test_generate_is_deterministic(self):
        cfg = ChaosConfig(client_crashes=3, server_restarts=2, downtime=0.2)
        a = ChaosSchedule.generate(cfg, np.random.default_rng(5),
                                   ["c0", "c1", "c2", "c3"], ["s0", "s1"],
                                   start=1.0, end=4.0)
        b = ChaosSchedule.generate(cfg, np.random.default_rng(5),
                                   ["c0", "c1", "c2", "c3"], ["s0", "s1"],
                                   start=1.0, end=4.0)
        assert a.events == b.events

    def test_generate_shape(self):
        cfg = ChaosConfig(client_crashes=2, server_restarts=2, downtime=0.2)
        sched = ChaosSchedule.generate(cfg, np.random.default_rng(5),
                                       ["c0", "c1", "c2"], ["s0"],
                                       start=1.0, end=4.0)
        crashes = [e for e in sched.events if e.action == "crash-client"]
        downs = [e for e in sched.events if e.action == "crash-server"]
        ups = {e.target: e.when
               for e in sched.events if e.action == "restart-server"}
        assert len(crashes) == 2
        assert len({e.target for e in crashes}) == 2  # distinct clients
        assert len(downs) == 2
        for e in sched.events:
            assert 1.0 <= e.when <= 4.0
        for down in downs:
            assert ups[down.target] >= down.when + cfg.downtime - 1e-9

    def test_downtime_must_fit_slot(self):
        cfg = ChaosConfig(server_restarts=4, downtime=0.9)
        with pytest.raises(ValueError):
            ChaosSchedule.generate(cfg, np.random.default_rng(0),
                                   [], ["s0"], start=0.0, end=2.0)

    def test_downtime_error_states_minimum_window(self):
        # The error must tell the user how long the window needs to be
        # (n * downtime), not just that the config is invalid.
        cfg = ChaosConfig(server_restarts=4, downtime=0.9)
        with pytest.raises(ValueError, match=r"longer than 3\.600s"):
            ChaosSchedule.generate(cfg, np.random.default_rng(0),
                                   [], ["s0"], start=0.0, end=2.0)

    def test_restarts_without_servers_is_an_error(self):
        # Silently generating zero events would let a "chaos" run pass
        # while injecting nothing.
        cfg = ChaosConfig(server_restarts=2)
        with pytest.raises(ValueError, match="no server_ids"):
            ChaosSchedule.generate(cfg, np.random.default_rng(0),
                                   ["c0"], [], start=0.0, end=2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(client_crashes=-1)
        with pytest.raises(ValueError):
            ChaosConfig(downtime=0.0)
        assert not ChaosConfig().any
        assert ChaosConfig(client_crashes=1).any

    def test_apply_arms_injector(self):
        sim = Simulator()
        net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                      np.random.default_rng(0))
        injector = CrashInjector(sim, net)

        class FakeServer:
            def __init__(self, sid):
                self.server_id = sid
                self.log = []

            def crash(self):
                self.log.append("crash")

            def restart(self):
                self.log.append("restart")

        def sleeper():
            yield Sleep(999.0)

        srv = FakeServer("s0")
        proc = sim.spawn(sleeper())
        net.register("c0", lambda m: None)
        sched = ChaosSchedule([
            ChaosEvent(0.1, "crash-client", "c0"),
            ChaosEvent(0.2, "crash-server", "s0"),
            ChaosEvent(0.4, "restart-server", "s0"),
        ])
        sched.apply(injector, {"c0": proc}, {"s0": srv})
        sim.run_until(1.0)
        assert injector.crashed == ["c0"]
        assert srv.log == ["crash", "restart"]
        assert [(a, t) for _, a, t in injector.server_events] \
            == [("crash", "s0"), ("restart", "s0")]


class TestClusterChaosConfig:
    def test_2pl_rejects_faults(self):
        with pytest.raises(ValueError):
            ClusterConfig(protocol="2pl", faults=LinkFaults(loss=0.1))
        with pytest.raises(ValueError):
            ClusterConfig(protocol="2pl",
                          chaos=ChaosConfig(client_crashes=1))

    def test_paxos_rejects_server_restarts(self):
        with pytest.raises(ValueError):
            ClusterConfig(commitment="paxos",
                          chaos=ChaosConfig(server_restarts=1))
        # Client crashes alone are fine.
        ClusterConfig(commitment="paxos",
                      chaos=ChaosConfig(client_crashes=1))


class TestClusterChaosRuns:
    def _config(self, **kw):
        base = dict(
            protocol="mvtil-early", profile=LOCAL_TESTBED,
            workload=WorkloadConfig(num_keys=2_000, tx_size=3,
                                    write_fraction=0.5),
            num_clients=6, seed=3, warmup=0.2, measure=1.0,
            write_lock_timeout=0.4, rpc_timeout=0.15, rpc_retries=3,
            faults=LinkFaults(loss=0.05, duplicate=0.02, delay_spike=0.01),
            chaos=ChaosConfig(client_crashes=2, server_restarts=2,
                              downtime=0.2),
            record_history=True)
        base.update(kw)
        return ClusterConfig(**base)

    def test_chaos_run_serializable_and_lock_free(self):
        res = run_cluster(self._config())
        rep = res.chaos_report
        assert rep is not None
        assert len(rep["crashed_clients"]) == 2
        assert rep["server_restarts"] == 2
        assert rep["messages_lost"] > 0
        assert rep["orphaned_write_locks"] == 0
        assert res.committed > 0
        report = check_serializable(res.history)
        assert report.serializable, (report.error, report.cycle)

    def test_chaos_run_deterministic(self):
        a = run_cluster(self._config())
        b = run_cluster(self._config())
        assert (a.committed, a.aborted) == (b.committed, b.aborted)
        assert a.chaos_report == b.chaos_report

    def test_faults_without_chaos(self):
        res = run_cluster(self._config(chaos=None))
        rep = res.chaos_report
        assert rep["crashed_clients"] == []
        assert rep["server_restarts"] == 0
        assert rep["messages_lost"] > 0
        assert res.committed > 0
        assert check_serializable(res.history).serializable
