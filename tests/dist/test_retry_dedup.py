"""At-least-once RPC (retry + backoff) and server-side deduplication.

Retries turn the client's at-most-once RPC into at-least-once delivery;
the server's request log turns at-least-once back into exactly-once
application.  Together they ride out the lossy/duplicating links of the
fault models without double-applying anything.
"""

import numpy as np

from repro.clocks import PerfectClock
from repro.core.exceptions import TransactionAborted
from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import LockMode
from repro.core.timestamp import Timestamp
from repro.dist.client import MVTILClient
from repro.dist.commitment import CommitmentRegistry
from repro.dist.messages import ClockBroadcast, MVTLWriteLockReq
from repro.dist.server import MVTLServer
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, LinkFaults, Network
from repro.sim.simulator import Simulator
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import HistoryRecorder, check_serializable


class Cluster:
    def __init__(self, server_ids=("s0",), rpc_timeout=0.05, rpc_retries=3):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0),
                           fault_rng=np.random.default_rng(99))
        self.registry = CommitmentRegistry(self.sim)
        self.history = HistoryRecorder()
        self.servers = [
            MVTLServer(self.sim, self.net, sid, LOCAL_TESTBED,
                       np.random.default_rng(i + 1), self.registry,
                       write_lock_timeout=5.0, history=self.history)
            for i, sid in enumerate(server_ids)]
        self.partition = ReplicatedPlacement(list(server_ids))
        self.rpc_timeout = rpc_timeout
        self.rpc_retries = rpc_retries

    def client(self, name, pid):
        return MVTILClient(self.sim, self.net, name, pid, self.partition,
                           PerfectClock(lambda: self.sim.now), self.registry,
                           history=self.history, delta=0.5,
                           rpc_timeout=self.rpc_timeout,
                           rpc_retries=self.rpc_retries)


class TestRetry:
    def test_retry_rides_out_a_dead_window(self):
        """All traffic to the server is lost until t=0.08; the first
        attempt (timeout 0.05) dies, the retry gets through."""
        cluster = Cluster()
        cluster.net.set_link_faults("c", "s0", LinkFaults(loss=1.0))
        cluster.sim.schedule(
            0.08, cluster.net.set_link_faults, "c", "s0", None)
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v")
            yield from client.commit(tx)
            outcome["done"] = True

        cluster.sim.spawn(run())
        cluster.sim.run_until(2.0)
        assert outcome.get("done")
        assert client.stats["rpc_retries"] >= 1
        assert client.stats["rpc_timeouts"] >= 1
        assert cluster.servers[0].store.latest("X").value == "v"

    def test_no_retries_times_out(self):
        cluster = Cluster(rpc_retries=0)
        cluster.net.set_link_faults("c", "s0", LinkFaults(loss=1.0))
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            try:
                yield from client.write(tx, "X", "v")
            except TransactionAborted:
                outcome["aborted"] = True

        cluster.sim.spawn(run())
        cluster.sim.run_until(1.0)
        assert outcome.get("aborted")
        assert client.stats["rpc_retries"] == 0

    def test_clock_broadcast_during_pending_rpc(self):
        """Out-of-band traffic arriving mid-RPC must reach its handler
        (regression: it used to be swallowed by the RPC receive loop)."""
        cluster = Cluster()
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v")
            outcome["locked"] = True

        cluster.sim.spawn(run())
        # Land a broadcast while the write-lock RPC is in flight.
        cluster.sim.schedule(
            5e-5, cluster.net.send, "c", ClockBroadcast(t=123.0))
        cluster.sim.run_until(1.0)
        assert outcome.get("locked")          # the RPC still completed
        assert client.clock.now() >= 123.0    # and the broadcast applied


class TestServerDedup:
    def _write_req(self, rid):
        want = IntervalSet.from_interval(
            TsInterval.closed(Timestamp(1.0, 0), Timestamp(2.0, 0)))
        return MVTLWriteLockReq(("c", 1), "cli", rid, key="K", value="v",
                                want=want, wait=False)

    def test_duplicate_request_applied_once(self):
        cluster = Cluster()
        server = cluster.servers[0]
        replies = []
        cluster.net.register("cli", replies.append)
        req = self._write_req(rid=7)
        cluster.net.send("s0", req, src="cli")
        cluster.net.send("s0", req, src="cli")  # duplicate, same req_id
        cluster.sim.run_until(1.0)
        # Both copies answered (the second from the reply cache) ...
        assert len(replies) == 2
        assert replies[0] == replies[1]
        assert server.stats["dup_requests"] == 1
        # ... but the lock state reflects a single application.
        state = server.locks.peek("K")
        held = state.held(("c", 1), LockMode.WRITE)
        assert not held.is_empty

    def test_duplicate_of_parked_request_dropped(self):
        """A duplicate arriving while the original is parked (in progress,
        no reply yet) is dropped — no double handling, no premature
        reply; the parked original answers when it unparks."""
        cluster = Cluster()
        server = cluster.servers[0]
        replies = []
        cluster.net.register("cli", replies.append)
        want = IntervalSet.from_interval(
            TsInterval.closed(Timestamp(1.0, 0), Timestamp(2.0, 0)))
        blocker = MVTLWriteLockReq(("b", 1), "cli", 1, key="K", value="x",
                                   want=want, wait=False)
        cluster.net.send("s0", blocker, src="cli")
        cluster.sim.run_until(0.5)
        assert len(replies) == 1
        waiter = MVTLWriteLockReq(("c", 2), "cli", 2, key="K", value="y",
                                  want=want, wait=True)
        cluster.net.send("s0", waiter, src="cli")
        cluster.net.send("s0", waiter, src="cli")  # duplicate
        cluster.sim.run_until(1.0)
        # Both tx are alive: the waiter is parked, its duplicate dropped.
        assert len(replies) == 1
        assert server.stats["dup_requests"] == 1

    def test_duplicating_link_end_to_end(self):
        cluster = Cluster()
        cluster.net.set_link_faults(
            "c", "s0", LinkFaults(duplicate=1.0))
        client = cluster.client("c", 1)
        outcome = {}

        def run():
            tx = client.begin()
            yield from client.write(tx, "X", "v")
            yield from client.commit(tx)
            outcome["done"] = True

        cluster.sim.spawn(run())
        cluster.sim.run_until(2.0)
        assert outcome.get("done")
        assert cluster.servers[0].stats["dup_requests"] >= 1
        # Exactly one version of X was installed (plus the initial BOTTOM).
        assert cluster.servers[0].store.version_count("X") == 2
        assert check_serializable(cluster.history).serializable


class TestRpcManyPartial:
    def test_partial_timeout_releases_installed_locks(self):
        """One of two servers is down: the batched lock round returns a
        partial reply map, the client aborts, and the abort releases the
        locks that *were* installed on the live server (regression: a
        None return used to leak them until the write-lock timeout)."""
        cluster = Cluster(server_ids=("s0", "s1"), rpc_timeout=0.05,
                          rpc_retries=0)
        live, dead = cluster.servers
        dead.crash()
        client = cluster.client("c", 1)
        # Two keys, one per server.
        keys = {s.server_id: None for s in cluster.servers}
        for i in range(10_000):
            key = f"k{i}"
            sid = cluster.partition.server_of(key)
            if keys[sid] is None:
                keys[sid] = key
            if all(v is not None for v in keys.values()):
                break
        outcome = {}

        def run():
            tx = client.begin()
            try:
                yield from client.write(tx, keys["s0"], "a")
                yield from client.write(tx, keys["s1"], "b")
                yield from client.commit(tx)
                outcome["committed"] = True
            except TransactionAborted as exc:
                outcome["reason"] = exc.reason

        cluster.sim.spawn(run())
        cluster.sim.run_until(1.0)
        assert "committed" not in outcome
        assert outcome["reason"] is not None
        # The live server's write locks were released by the abort, well
        # before the 5s write-lock timeout.
        state = live.locks.peek(keys["s0"])
        if state is not None:
            for owner in list(state.owners()):
                assert state.held(owner, LockMode.WRITE).is_empty
