"""Cluster-level workload-zoo tests: determinism, invariants, routing.

Mirrors the chaos/overload determinism suites: each scenario run twice
with the same seed must produce identical histories and identical
``repro.obs`` metric dumps, and the read-only routing fix must actually
put scenario scans on the follower-read path under ``replication > 1``.
"""

import pytest

from repro.dist.cluster import ClusterConfig, run_cluster
from repro.workload.scenarios import (SCENARIOS, check_scenario,
                                     scenario_config)


def history_fingerprint(history):
    return [(rec.tx_id, tuple(rec.reads), tuple(rec.writes), rec.commit_ts,
             rec.aborted, rec.abort_reason) for rec in history.records()]


def fast_config(name, **kwargs):
    kwargs.setdefault("warmup", 0.2)
    kwargs.setdefault("measure", 0.5)
    kwargs.setdefault("num_clients", 4)
    return scenario_config(name, seed=23, **kwargs)


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", ["bank-transfer", "secondary-index"])
    def test_same_seed_identical_history_and_metrics(self, name):
        config = fast_config(name, trace=True)
        a, b = run_cluster(config), run_cluster(config)
        assert (a.committed, a.aborted) == (b.committed, b.aborted)
        assert a.messages_sent == b.messages_sent
        assert a.scenario_report == b.scenario_report
        assert a.final_state == b.final_state
        assert a.overload_report == b.overload_report
        assert history_fingerprint(a.history) == history_fingerprint(b.history)
        assert a.metrics == b.metrics

    def test_scenario_metrics_include_generator_counters(self):
        res = run_cluster(fast_config("bank-transfer", trace=True))
        counters = res.metrics["counters"]["scenario.bank-transfer"]
        assert counters  # transfers (and usually audits) folded in
        assert sum(counters.values()) == sum(
            res.scenario_report["counters"].values())


class TestScenarioSemantics:
    def test_fast_run_quiesces_and_passes_invariants(self):
        res = run_cluster(fast_config("bank-transfer"))
        assert res.scenario_report["quiesced"]
        assert res.final_state  # leaders' stores were captured
        assert check_scenario("bank-transfer", res) == []

    def test_scenario_field_validated(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ClusterConfig(scenario="not-a-scenario")

    def test_plain_configs_unaffected(self):
        # A scenario-less config must keep the run-forever closed loop and
        # carry no scenario artifacts.
        res = run_cluster(ClusterConfig(num_clients=2, warmup=0.1,
                                        measure=0.3))
        assert res.scenario_report is None
        assert res.final_state is None


class TestFollowerReadRouting:
    def test_read_only_scenario_tx_reaches_follower_path(self):
        # Regression for the read-only hint audit: scan-vs-oltp flags its
        # scans read_only=True, so under replication > 1 with follower
        # reads enabled they must be served as snapshot transactions by
        # follower replicas, not run through the interval protocol.
        config = scenario_config("scan-vs-oltp", seed=23,
                                 num_clients=4, measure=0.6)
        res = run_cluster(config)
        rep = res.replication_report
        assert rep["follower_reads"] > 0
        assert rep["snapshot_commits"] > 0
        assert res.scenario_report["counters"]["scans"] > 0

    def test_write_free_spec_detected_without_explicit_flag(self):
        # secondary-index lookups carry no explicit read_only flag — the
        # runner must derive it from the ops (satellite: write-free specs
        # of *any* shape route to snapshot reads).
        config = scenario_config("secondary-index", seed=23,
                                 num_clients=4, warmup=1.2, measure=0.6,
                                 num_servers=3, replication=3,
                                 follower_reads=True, gc_period=0.2)
        from dataclasses import replace
        config = replace(config, profile=replace(config.profile,
                                                 gc_horizon=1.0))
        res = run_cluster(config)
        assert res.replication_report["follower_reads"] > 0
        assert res.replication_report["snapshot_commits"] > 0


def _accepts_2pl(name):
    try:
        scenario_config(name, protocol="2pl")
    except ValueError:
        return False
    return True


TWO_PL_SCENARIOS = [name for name in SCENARIOS if _accepts_2pl(name)]


class TestTwoPLScenarios:
    """The final state of a 2PL run is its servers' latest committed
    values, not an empty dict that passes every invariant vacuously."""

    def test_the_scenarios_without_replication_accept_2pl(self):
        assert TWO_PL_SCENARIOS == ["bank-transfer", "orders",
                                    "secondary-index", "flash-crowd"]

    @pytest.mark.parametrize("name", TWO_PL_SCENARIOS)
    def test_2pl_run_checks_a_real_final_state(self, name):
        res = run_cluster(scenario_config(name, seed=3, protocol="2pl",
                                          warmup=0.1, measure=0.3))
        assert res.committed > 0
        assert res.final_state
        assert check_scenario(name, res) == []

    def test_an_empty_final_state_with_committed_writes_fails(self):
        res = run_cluster(fast_config("bank-transfer"))
        assert check_scenario("bank-transfer", res) == []
        res.final_state = {}
        assert check_scenario("bank-transfer", res) == [
            "committed writes but the final state is empty"]
