"""Coordinator-failure handling (§7, §H: Theorems 8-10).

A client that crashes mid-transaction leaves unfrozen write locks on the
servers.  The servers' write-lock timeout proposes abort to the commitment
object; once decided, the locks are released and other transactions proceed
— no transaction of a correct coordinator is delayed indefinitely.
"""

import numpy as np
import pytest

from repro.clocks import PerfectClock
from repro.core.exceptions import TransactionAborted
from repro.dist.client import MVTILClient
from repro.dist.commitment import ABORT, CommitmentRegistry
from repro.dist.failure import CrashInjector
from repro.dist.server import MVTLServer
from repro.core.locks import LockMode
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, LinkFaults, Network
from repro.sim.simulator import Simulator, Sleep
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import HistoryRecorder, check_serializable


class Cluster:
    def __init__(self, write_lock_timeout=0.3):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        self.history = HistoryRecorder()
        self.server = MVTLServer(self.sim, self.net, "s0", LOCAL_TESTBED,
                                 np.random.default_rng(1), self.registry,
                                 write_lock_timeout=write_lock_timeout)
        self.partition = ReplicatedPlacement(["s0"])
        self.injector = CrashInjector(self.sim, self.net)

    def client(self, name, pid, **kw):
        return MVTILClient(self.sim, self.net, name, pid, self.partition,
                           PerfectClock(lambda: self.sim.now), self.registry,
                           history=self.history, delta=0.5, **kw)


class TestCoordinatorCrash:
    def test_crashed_coordinator_locks_released(self):
        cluster = Cluster(write_lock_timeout=0.3)
        victim = cluster.client("victim", 1)
        outcome = {}

        def crashing():
            tx = victim.begin()
            yield from victim.write(tx, "X", "doomed")
            outcome["locked"] = True
            # ... crash happens here: the process is cancelled below.
            yield Sleep(999.0)
            yield from victim.commit(tx)
            outcome["committed"] = True

        proc = cluster.sim.spawn(crashing())
        # Crash right after the write lock round-trip, before commit.
        cluster.injector.crash_client_at(0.01, "victim", proc)
        cluster.sim.run_until(1.0)
        assert outcome.get("locked")
        assert "committed" not in outcome
        # Theorem: the orphaned transaction was decided ABORT and its
        # write locks are gone.
        state = cluster.server.locks.peek("X")
        assert state is not None
        for owner in list(state.owners()):
            assert state.held(owner, LockMode.WRITE).is_empty

    def test_survivor_can_write_after_crash(self):
        """Theorem 9: no transaction of a correct coordinator is delayed
        indefinitely by a failed one."""
        cluster = Cluster(write_lock_timeout=0.3)
        victim = cluster.client("victim", 1)
        survivor = cluster.client("survivor", 2)
        outcome = {}

        def crashing():
            tx = victim.begin()
            yield from victim.write(tx, "X", "doomed")
            yield Sleep(999.0)  # never resumed: the crash injector cancels us

        def surviving():
            # Start after the crash; retry until the orphaned locks clear.
            attempts = 0
            while True:
                tx = survivor.begin()
                try:
                    yield from survivor.write(tx, "X", "alive")
                    yield from survivor.commit(tx)
                    outcome["committed_at"] = cluster.sim.now
                    return
                except TransactionAborted:
                    attempts += 1
                    outcome["attempts"] = attempts
                    yield Sleep(0.1)

        proc = cluster.sim.spawn(crashing())
        cluster.injector.crash_client_at(0.01, "victim", proc)
        cluster.sim.schedule(0.05, lambda: cluster.sim.spawn(surviving()))
        cluster.sim.run_until(5.0)
        assert "committed_at" in outcome
        # The survivor got through shortly after the write-lock timeout.
        assert outcome["committed_at"] < 2.0
        # And the final state is the survivor's value.
        assert cluster.server.store.latest("X").value == "alive"

    def test_crash_after_commit_decision_still_commits(self):
        """A commit decided before the crash is durable: servers freeze on
        their own via the commitment object (Alg. 13 timeout, commit arm)."""
        cluster = Cluster(write_lock_timeout=0.3)
        client = cluster.client("c", 1)
        state = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v")
            ts = tx.interval.pick_low()
            # Propose commit, then crash before sending CommitReq.
            decision = cluster.registry.get(tx.id).propose(ts)
            state["decision"] = decision
            yield Sleep(999.0)  # crash point

        proc = cluster.sim.spawn(run())
        cluster.injector.crash_client_at(0.02, "c", proc)
        cluster.sim.run_until(2.0)
        # The server's timeout proposed abort but the decision was already
        # commit: it froze and installed the pending value.
        assert cluster.server.store.latest("X").value == "v"

    def test_history_stays_serializable_with_crashes(self):
        cluster = Cluster(write_lock_timeout=0.2)
        procs = []

        def worker(client, keys, crash_after):
            done = 0
            while True:
                tx = client.begin()
                try:
                    for k in keys:
                        yield from client.read(tx, k)
                        yield from client.write(tx, k, f"{client.client_id}-{done}")
                    yield from client.commit(tx)
                    done += 1
                except TransactionAborted:
                    pass
                yield Sleep(0.01)

        for i in range(4):
            client = cluster.client(f"c{i}", i + 1)
            proc = cluster.sim.spawn(worker(client, ["A", "B"], None))
            procs.append((f"c{i}", proc))
        # Crash two of them at different times.
        cluster.injector.crash_client_at(0.13, "c1", procs[1][1])
        cluster.injector.crash_client_at(0.29, "c3", procs[3][1])
        cluster.sim.run_until(3.0)
        report = check_serializable(cluster.history)
        assert report.serializable, (report.error, report.cycle)


class TestCoordinatorCrashUnderFaults:
    """Satellite of the fault-injection layer: the coordinator crashes
    between lock install and freeze while the network itself is lossy and
    duplicating.  Theorems 9-10 must still hold."""

    def _faulty_cluster(self, write_lock_timeout=0.3):
        cluster = Cluster(write_lock_timeout=write_lock_timeout)
        cluster.net._fault_rng = np.random.default_rng(17)
        cluster.net.set_default_faults(
            LinkFaults(loss=0.05, duplicate=0.05))
        return cluster

    def test_locks_reclaimed_within_timeout_bound(self):
        cluster = self._faulty_cluster(write_lock_timeout=0.3)
        victim = cluster.client("victim", 1, rpc_timeout=0.05,
                                rpc_retries=3)
        installed = {}

        def crashing():
            tx = victim.begin()
            yield from victim.write(tx, "X", "doomed")
            installed["at"] = cluster.sim.now  # lock installed, not frozen
            yield Sleep(999.0)                 # crash point

        proc = cluster.sim.spawn(crashing())
        cluster.injector.crash_client_at(0.06, "victim", proc)
        # Run to install-time + write-lock timeout + decision slack only:
        # eventual release must happen *within this bound*, not eventually.
        cluster.sim.run_until(0.06 + 0.3 + 0.2)
        assert "at" in installed
        assert installed["at"] <= 0.06
        state = cluster.server.locks.peek("X")
        assert state is not None
        for owner in list(state.owners()):
            assert state.held(owner, LockMode.WRITE).is_empty

    def test_history_serializable_with_crashes_and_faults(self):
        cluster = self._faulty_cluster(write_lock_timeout=0.2)
        procs = []

        def worker(client, keys):
            done = 0
            while True:
                tx = client.begin()
                try:
                    for k in keys:
                        yield from client.read(tx, k)
                        yield from client.write(
                            tx, k, f"{client.client_id}-{done}")
                    yield from client.commit(tx)
                    done += 1
                except TransactionAborted:
                    pass
                yield Sleep(0.01)

        for i in range(4):
            client = cluster.client(f"c{i}", i + 1, rpc_timeout=0.05,
                                    rpc_retries=3)
            proc = cluster.sim.spawn(worker(client, ["A", "B"]))
            procs.append((f"c{i}", proc))
        cluster.injector.crash_client_at(0.13, "c1", procs[1][1])
        cluster.injector.crash_client_at(0.29, "c3", procs[3][1])
        cluster.sim.run_until(3.0)
        assert cluster.net.messages_lost > 0
        assert cluster.net.messages_duplicated > 0
        report = check_serializable(cluster.history)
        assert report.serializable, (report.error, report.cycle)
        # And no write lock of a crashed coordinator survived.
        for key in cluster.server.locks.all_keys():
            state = cluster.server.locks.peek(key)
            for owner in list(state.owners()):
                if isinstance(owner, tuple) and owner[0] in ("c1", "c3"):
                    held = state.held(owner, LockMode.WRITE)
                    frozen = state.frozen(owner, LockMode.WRITE)
                    assert held.subtract(frozen).is_empty
