"""Overload control across the distributed substrate.

Covers the client/server halves of the overload layer working together:
bounded-queue sheds surfacing as OVERLOADED aborts, deadline propagation
(client stamps, server drops, client aborts), the per-server circuit
breaker's trip/half-open/recover cycle, admission-control rejection with
critical bypass, and seeded retry-backoff jitter desynchronization.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.clocks import PerfectClock
from repro.core.exceptions import AbortReason, TransactionAborted
from repro.core.timestamp import Timestamp
from repro.dist.client import CircuitBreaker, MVTILClient
from repro.dist.cluster import ClusterConfig, run_cluster
from repro.dist.commitment import CommitmentRegistry
from repro.dist.messages import CommitReq, MVTLReadReq, ReleaseReq
from repro.dist.server import MVTLServer, _Resubmit
from repro.repl.placement import ReplicatedPlacement
from repro.sim.network import LatencyModel, Network
from repro.sim.simulator import Simulator, Sleep
from repro.sim.testbed import LOCAL_TESTBED
from repro.workload.generator import WorkloadConfig


class Cluster:
    """One-server mini-cluster with overload knobs exposed."""

    def __init__(self, queue_capacity=None, service_time=None,
                 concurrency=1, **client_kw):
        self.sim = Simulator()
        self.net = Network(self.sim, LatencyModel.from_mean(1e-4, cv=0.1),
                           np.random.default_rng(0))
        self.registry = CommitmentRegistry(self.sim)
        profile = replace(LOCAL_TESTBED, server_concurrency=concurrency,
                          **({"service_time": service_time}
                             if service_time is not None else {}))
        self.server = MVTLServer(self.sim, self.net, "s0", profile,
                                 np.random.default_rng(1), self.registry,
                                 queue_capacity=queue_capacity)
        self.partition = ReplicatedPlacement(["s0"])
        self.client_kw = client_kw

    def client(self, name, pid, **extra):
        kw = {**self.client_kw, **extra}
        return MVTILClient(self.sim, self.net, name, pid, self.partition,
                           PerfectClock(lambda: self.sim.now), self.registry,
                           delta=0.5, **kw)


def run_proc(cluster, gen, until=10.0):
    outcome = {}

    def wrapper():
        try:
            yield from gen
            outcome["ok"] = True
        except TransactionAborted as exc:
            outcome["reason"] = exc.reason

    cluster.sim.spawn(wrapper())
    cluster.sim.run_until(until)
    return outcome


class TestRequestClasses:
    """Queue-class mapping: what may be shed, and what never is."""

    def test_control_messages_are_never_sheddable(self):
        cluster = Cluster()
        server = cluster.server
        read = MVTLReadReq("t", "c", 1, key="x", upper=Timestamp(1.0, 0))
        assert server._request_class(read) == 1
        crit_read = MVTLReadReq("t", "c", 2, key="x",
                                upper=Timestamp(1.0, 0), critical=True)
        assert server._request_class(crit_read) == 0
        for control in (CommitReq("t", "c", 3), ReleaseReq("t", "c", 4)):
            assert server._request_class(control) == 0

    def test_parked_resubmission_keeps_its_class(self):
        cluster = Cluster()
        server = cluster.server
        read = MVTLReadReq("t", "c", 1, key="x", upper=Timestamp(1.0, 0))
        crit = MVTLReadReq("t", "c", 2, key="x", upper=Timestamp(1.0, 0),
                           critical=True)
        assert server._request_class(_Resubmit(read)) == 1
        assert server._request_class(_Resubmit(crit)) == 0


class TestShedToAbort:
    """A full queue sheds newest normals; the shed client aborts OVERLOADED;
    a critical arrival is admitted by displacing a queued normal."""

    def make_saturated(self):
        # One slot, one queue place, slow service: the third normal read
        # is shed on arrival, and a critical read displaces the queued one.
        cluster = Cluster(queue_capacity=1, service_time=0.5,
                          read_timeout=100.0)
        return cluster

    def test_critical_bypass_under_full_normal_saturation(self):
        cluster = self.make_saturated()
        outcomes = {}

        def reader(name, pid, start, priority=False):
            client = cluster.client(name, pid)

            def proc():
                yield Sleep(start)
                tx = client.begin(priority=priority)
                try:
                    yield from client.read(tx, "x")
                    yield from client.commit(tx)
                    outcomes[name] = "committed"
                except TransactionAborted as exc:
                    outcomes[name] = exc.reason

            cluster.sim.spawn(proc())
            return client

        reader("a", 1, 0.001)                    # takes the service slot
        reader("b", 2, 0.002)                    # queued
        c = reader("c", 3, 0.003)                # shed on arrival
        reader("d", 4, 0.004, priority=True)     # displaces b
        cluster.sim.run_until(60.0)

        assert outcomes["c"] == AbortReason.OVERLOADED
        assert outcomes["b"] == AbortReason.OVERLOADED  # displaced
        assert outcomes["d"] == "committed"              # critical survives
        assert outcomes["a"] == "committed"
        assert cluster.server.stats["shed"] == 2
        assert cluster.server.queue.requests_shed == 2
        assert c.stats["overloaded"] == 1


class TestDeadlines:
    def test_begin_stamps_absolute_deadline(self):
        cluster = Cluster(tx_budget=0.5)
        client = cluster.client("c", 1)
        cluster.sim.run_until(0.25)
        tx = client.begin()
        assert tx.deadline == pytest.approx(0.75)

    def test_no_budget_means_no_deadline(self):
        cluster = Cluster()
        client = cluster.client("c", 1)
        tx = client.begin()
        assert tx.deadline is None

    def test_client_aborts_expired_transaction_before_sending(self):
        cluster = Cluster(tx_budget=0.1)
        client = cluster.client("c", 1)

        def proc():
            tx = client.begin()
            yield Sleep(0.2)  # sleep past the budget
            yield from client.read(tx, "x")

        outcome = run_proc(cluster, proc())
        assert outcome["reason"] == AbortReason.DEADLINE_EXCEEDED
        # Nothing was sent: the abort happened client-side.
        assert cluster.server.stats["requests"] == 0

    def test_server_drops_expired_request_before_service(self):
        cluster = Cluster()
        server = cluster.server
        stale = MVTLReadReq("t", "c", 1, key="x", upper=Timestamp(1.0, 0),
                            deadline=-1.0)
        server.queue.submit(stale)
        cluster.sim.run_until(1.0)
        assert server.stats["expired"] == 1
        assert server.queue.requests_expired == 1
        assert server.stats["requests"] == 0  # handler never ran


class TestCircuitBreaker:
    def test_trip_halfopen_recover_cycle(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        assert breaker.state == "closed"
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == "closed" and breaker.allow(0.0)
        breaker.record_failure(0.0)            # third strike trips it
        assert breaker.state == "open"
        assert not breaker.allow(0.5)          # still cooling down
        assert breaker.allow(1.0)              # half-open: one probe
        assert breaker.state == "half-open"
        assert not breaker.allow(1.0)          # the rest hold
        breaker.record_failure(1.1)            # probe failed: re-open
        assert breaker.state == "open"
        assert not breaker.allow(1.5)
        assert breaker.allow(2.2)              # next probe
        breaker.record_success()               # probe succeeded
        assert breaker.state == "closed"
        assert breaker.allow(2.3)
        assert breaker.trips == 2

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state == "closed"  # count restarted after success

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestAdmissionControl:
    def trip(self, client, server="s0", n=8):
        breaker = client._breaker_for(server)
        for _ in range(n):
            breaker.record_failure(client.sim.now)
        return breaker

    def test_normal_tx_rejected_against_tripped_server(self):
        cluster = Cluster(admission_control=True, breaker_cooldown=5.0)
        client = cluster.client("c", 1)
        self.trip(client)

        def proc():
            tx = client.begin()
            yield from client.read(tx, "x")

        outcome = run_proc(cluster, proc(), until=1.0)
        assert outcome["reason"] == AbortReason.OVERLOADED
        assert client.stats["admission_rejects"] == 1
        assert cluster.server.stats["requests"] == 0  # gated client-side

    def test_critical_tx_bypasses_tripped_breaker(self):
        cluster = Cluster(admission_control=True, breaker_cooldown=5.0)
        client = cluster.client("c", 1)
        self.trip(client)

        def proc():
            tx = client.begin(priority=True)
            yield from client.read(tx, "x")
            yield from client.commit(tx)

        outcome = run_proc(cluster, proc())
        assert outcome.get("ok")
        assert client.stats["admission_rejects"] == 0
        assert client.stats["commits"] == 1

    def test_halfopen_probe_recovers_breaker(self):
        cluster = Cluster(admission_control=True, breaker_cooldown=0.05)
        client = cluster.client("c", 1)
        breaker = self.trip(client)

        def proc():
            yield Sleep(0.1)  # past the cooldown: next request is the probe
            tx = client.begin()
            yield from client.read(tx, "x")
            yield from client.commit(tx)

        outcome = run_proc(cluster, proc())
        assert outcome.get("ok")
        assert breaker.state == "closed"  # probe success closed it

    def test_admission_off_means_no_breakers(self):
        cluster = Cluster()
        client = cluster.client("c", 1)
        assert client._breaker_for("s0") is None


class TestRetryJitter:
    def test_jitter_draws_from_seeded_stream(self):
        cluster = Cluster()
        c1 = cluster.client("c1", 1, rng=np.random.default_rng(7))
        c2 = cluster.client("c2", 2, rng=np.random.default_rng(8))
        # Attempt 0 is exact for everyone (it is a tuned timeout).
        assert c1._backoff_window(0.1, 0) == pytest.approx(0.1)
        assert c2._backoff_window(0.1, 0) == pytest.approx(0.1)
        # Retries desynchronize: different streams, different windows.
        w1 = c1._backoff_window(0.1, 1)
        w2 = c2._backoff_window(0.1, 1)
        assert w1 != w2
        for w in (w1, w2):
            assert 0.2 <= w < 0.4  # doubled base x jitter in [1, 2)

    def test_same_seed_same_windows(self):
        cluster = Cluster()
        c1 = cluster.client("c1", 1, rng=np.random.default_rng(7))
        c2 = cluster.client("c2", 2, rng=np.random.default_rng(7))
        assert [c1._backoff_window(0.1, a) for a in (1, 2, 3)] == \
            [c2._backoff_window(0.1, a) for a in (1, 2, 3)]

    def test_no_rng_means_exact_exponential(self):
        cluster = Cluster()
        client = cluster.client("c", 1)  # rng defaults to None
        assert client._backoff_window(0.1, 1) == pytest.approx(0.2)
        assert client._backoff_window(0.1, 2) == pytest.approx(0.4)


class TestClusterOverloadRun:
    """End-to-end: run_cluster with the overload knobs on."""

    def overload_config(self, seed=3):
        profile = replace(LOCAL_TESTBED, server_concurrency=1,
                          service_time=2e-3, num_servers=2)
        return ClusterConfig(
            protocol="mvtil-early", profile=profile,
            workload=WorkloadConfig(num_keys=5_000, tx_size=4,
                                    write_fraction=0.25,
                                    critical_fraction=0.2),
            num_clients=16, seed=seed, warmup=0.25, measure=1.0,
            queue_capacity=4, tx_budget=0.2, admission_control=True,
            breaker_threshold=4, breaker_cooldown=0.05,
            read_timeout=0.05, rpc_timeout=0.1)

    def test_same_seed_same_overload_counters(self):
        config = self.overload_config()
        a, b = run_cluster(config), run_cluster(config)
        assert (a.committed, a.aborted) == (b.committed, b.aborted)
        assert a.overload_report == b.overload_report

    def test_saturated_run_sheds_and_still_commits(self):
        res = run_cluster(self.overload_config())
        rep = res.overload_report
        assert res.committed > 0
        assert rep["shed"] > 0            # the bounded queue did its job
        cls = rep["class_summary"]
        assert cls["critical"]["committed"] > 0

        def rate(c):
            total = c["committed"] + c["aborted"]
            return c["committed"] / total if total else 1.0

        # Theorem 3 carried to the wire: the critical class commits at
        # least as reliably as the normal class under saturation.
        assert rate(cls["critical"]) >= rate(cls["normal"])

    def test_unbounded_baseline_never_sheds(self):
        config = replace(self.overload_config(), queue_capacity=None,
                         tx_budget=None, admission_control=False)
        res = run_cluster(config)
        rep = res.overload_report
        assert rep["shed"] == 0
        assert rep["expired"] == 0
        assert rep["admission_rejects"] == 0
