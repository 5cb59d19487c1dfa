"""End-to-end cluster integration: every protocol, checked for
serializability with the MVSG oracle on small but contended workloads."""

import gc

import pytest

from repro.dist import ChaosConfig, ClusterConfig, run_cluster
from repro.sim.simulator import Simulator
from repro.sim.testbed import CLOUD_TESTBED, LOCAL_TESTBED
from repro.verify import check_serializable
from repro.workload import WorkloadConfig

CONTENDED = WorkloadConfig(num_keys=60, tx_size=6, write_fraction=0.5)


def small_config(protocol, **kwargs):
    defaults = dict(
        protocol=protocol, profile=LOCAL_TESTBED, workload=CONTENDED,
        num_clients=10, warmup=0.2, measure=0.6, seed=11,
        record_history=True)
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


class TestSerializabilityAllProtocols:
    @pytest.mark.parametrize("protocol",
                             ["mvtil-early", "mvtil-late", "mvto", "2pl"])
    def test_contended_run_serializable(self, protocol):
        res = run_cluster(small_config(protocol))
        report = check_serializable(res.history)
        assert report.serializable, (protocol, report.error, report.cycle)
        assert res.committed > 0

    @pytest.mark.parametrize("protocol", ["mvtil-early", "mvto"])
    def test_serializable_with_purging(self, protocol):
        cfg = small_config(protocol, gc_period=0.2,
                           profile=LOCAL_TESTBED.with_servers(2),
                           warmup=0.2, measure=1.0)
        # Shrink the horizon so purging actually happens within the run.
        from dataclasses import replace
        cfg = replace(cfg, profile=replace(cfg.profile, gc_horizon=0.3))
        res = run_cluster(cfg)
        report = check_serializable(res.history)
        assert report.serializable, (protocol, report.error, report.cycle)

    def test_cloud_profile_serializable(self):
        res = run_cluster(small_config("mvtil-early", profile=CLOUD_TESTBED))
        assert check_serializable(res.history).serializable


class TestClusterBehaviour:
    def test_deterministic_given_seed(self):
        a = run_cluster(small_config("mvtil-early"))
        b = run_cluster(small_config("mvtil-early"))
        assert a.committed == b.committed
        assert a.aborted == b.aborted
        assert a.messages_sent == b.messages_sent

    def test_different_seeds_differ(self):
        a = run_cluster(small_config("mvtil-early"))
        b = run_cluster(small_config("mvtil-early", seed=99))
        assert (a.committed, a.messages_sent) != (b.committed,
                                                  b.messages_sent)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(protocol="3pl")

    def test_replication_beyond_the_server_count_rejected_at_config_time(self):
        with pytest.raises(ValueError, match=r"replication=5 .*\(have 4\)"):
            ClusterConfig(replication=5, num_servers=4)
        # num_servers=None resolves to the profile's server count.
        with pytest.raises(ValueError, match=r"replication=3 .*\(have 2\)"):
            ClusterConfig(replication=3,
                          profile=LOCAL_TESTBED.with_servers(2))
        assert ClusterConfig(replication=3, num_servers=3).replication == 3

    @pytest.mark.parametrize("chaos, replication, match", [
        (ChaosConfig(server_restarts=2, downtime=0.4), 1,
         r"downtime 0\.4 does not fit 2 restarts into a 0\.600s window"),
        (ChaosConfig(leader_crashes=2, leader_downtime=0.4), 3,
         r"leader_downtime 0\.4 does not fit 2 leader crashes"),
        (ChaosConfig(follower_restarts=3, follower_downtime=0.25), 3,
         r"follower_downtime 0\.25 does not fit 3 follower restarts"),
    ])
    def test_chaos_that_does_not_fit_the_window_rejected_at_config_time(
            self, chaos, replication, match):
        with pytest.raises(ValueError, match=match):
            small_config("mvtil-early", chaos=chaos, num_servers=3,
                         replication=replication)

    def test_chaos_without_a_measurement_window_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="need end > start"):
            small_config("mvtil-early", measure=0.0,
                         chaos=ChaosConfig(client_crashes=1))

    def test_throughput_counts_window_only(self):
        res = run_cluster(small_config("mvtil-early"))
        assert res.throughput == pytest.approx(
            res.committed / res.config.measure)

    def test_more_clients_more_messages(self):
        # Read-only keeps per-transaction message counts identical, so the
        # comparison isn't confounded by abort-shortened transactions.
        ro = WorkloadConfig(num_keys=60, tx_size=6, write_fraction=0.0)
        small = run_cluster(small_config("mvtil-early", num_clients=4,
                                         workload=ro))
        large = run_cluster(small_config("mvtil-early", num_clients=16,
                                         workload=ro))
        assert large.messages_sent > small.messages_sent

    def test_state_sampling(self):
        res = run_cluster(small_config("mvtil-early",
                                       state_sample_period=0.2))
        assert len(res.state_samples) >= 3
        assert all(s.versions >= 0 for s in res.state_samples)

    def test_completions_recording(self):
        res = run_cluster(small_config("mvtil-early",
                                       record_completions=True))
        assert res.completions
        times = [t for t, _ok in res.completions]
        assert times == sorted(times)


class TestReadOnlyWorkload:
    """Read-only transactions never abort under the multiversion schemes."""

    @pytest.mark.parametrize("protocol", ["mvtil-early", "mvto"])
    def test_read_only_commit_rate_is_one(self, protocol):
        cfg = small_config(
            protocol,
            workload=WorkloadConfig(num_keys=60, tx_size=6,
                                    write_fraction=0.0))
        res = run_cluster(cfg)
        assert res.commit_rate == 1.0


class TestBlindWriteWorkload:
    """§8.4.2: near-100% writes, multiversion protocols commit nearly all
    transactions (blind writes do not conflict)."""

    @pytest.mark.parametrize("protocol", ["mvtil-early", "mvto"])
    def test_blind_writes_commit(self, protocol):
        # Paper-like contention ratio (outstanding ops per key well below
        # 1); the claim is about write-write non-conflict, not about
        # extreme hotspots.
        cfg = small_config(
            protocol,
            workload=WorkloadConfig(num_keys=600, tx_size=6,
                                    write_fraction=1.0))
        res = run_cluster(cfg)
        assert res.commit_rate > 0.9
        assert check_serializable(res.history).serializable


class TestCollectorPause:
    """run_cluster pauses CPython's cycle collector for its own span and
    puts it back the way it found it, on every exit path."""

    QUICK = dict(num_clients=4, warmup=0.05, measure=0.15,
                 record_history=False)

    def test_restored_on_normal_return(self):
        assert gc.isenabled()
        run_cluster(small_config("mvtil-early", **self.QUICK))
        assert gc.isenabled()

    def test_restored_when_the_run_raises(self, monkeypatch):
        # Every invalid composition is rejected by ClusterConfig itself, so
        # the failure has to be injected: the simulation dies mid-run.
        def dying_run_until(sim, t_end):
            assert not gc.isenabled()
            raise RuntimeError("simulation died")

        monkeypatch.setattr(Simulator, "run_until", dying_run_until)
        with pytest.raises(RuntimeError, match="simulation died"):
            run_cluster(small_config("mvtil-early", **self.QUICK))
        assert gc.isenabled()

    def test_stays_disabled_for_a_caller_that_disabled_it(self):
        gc.disable()
        try:
            run_cluster(small_config("mvtil-early", **self.QUICK))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_is_off_while_the_simulation_runs(self, monkeypatch):
        seen = []
        real = Simulator.run_until

        def spying_run_until(sim, t_end):
            seen.append(gc.isenabled())
            real(sim, t_end)

        monkeypatch.setattr(Simulator, "run_until", spying_run_until)
        run_cluster(small_config("mvtil-early", **self.QUICK))
        assert seen and not any(seen)

    def test_finished_clusters_are_reclaimed_not_hoarded(self):
        # A finished cluster is one big cyclic blob.  Nothing collects it
        # inside the call, but once the collector is back on the next
        # allocation's young collection does — so dropped results do not
        # pile up across back-to-back runs in one process.
        cfg = small_config("mvtil-early", **self.QUICK)
        gc.collect()
        gc.disable()
        try:
            run_cluster(cfg)
            one_run = gc.collect()
        finally:
            gc.enable()
        assert one_run > 1000  # calibration saw the blob
        for _ in range(5):
            run_cluster(cfg)
        assert gc.collect() <= 1.5 * one_run
