"""Workload-zoo scenario generators, registry and bugfix regressions."""

import numpy as np
import pytest

from repro.workload.generator import (Op, TxSpec, WorkloadConfig,
                                      WorkloadGenerator, zipf_cdf,
                                      zipf_probabilities)
from repro.workload.scenarios import (SCENARIOS, BankTransferGenerator,
                                      FlashCrowdGenerator, decode_int,
                                      encode_int, make_scenario_generator,
                                      scenario_names)


def tx_fingerprint(spec: TxSpec) -> tuple:
    """Structural identity of a TxSpec (compute closures compare by
    presence: two same-seed generators build distinct closure objects)."""
    return (spec.critical, spec.read_only,
            tuple((op.is_write, op.key, op.value, op.compute is None)
                  for op in spec.ops))


class TestZipfValidation:
    def test_negative_zipf_s_rejected(self):
        # Regression: a negative exponent used to silently run uniform
        # (the zipf_s > 0.0 gate never saw it).
        with pytest.raises(ValueError, match="zipf_s"):
            WorkloadConfig(zipf_s=-0.5)

    def test_zero_and_positive_still_accepted(self):
        assert WorkloadConfig(zipf_s=0.0).zipf_s == 0.0
        assert WorkloadConfig(zipf_s=1.2).zipf_s == 1.2


class TestZipfMemoization:
    def test_same_knobs_share_one_table(self):
        a = zipf_probabilities(777, 1.1)
        b = zipf_probabilities(777, 1.1)
        assert a is b  # memoized, not recomputed per client

    def test_generators_share_the_cached_table(self):
        cfg = WorkloadConfig(num_keys=333, zipf_s=0.9)
        gen1 = WorkloadGenerator(cfg, np.random.default_rng(0))
        gen2 = WorkloadGenerator(cfg, np.random.default_rng(1))
        assert gen1._cdf is gen2._cdf is zipf_cdf(333, 0.9)

    def test_cached_table_is_read_only(self):
        probs = zipf_probabilities(55, 0.8)
        with pytest.raises(ValueError):
            probs[0] = 0.5

    def test_table_values_match_direct_formula(self):
        probs = zipf_probabilities(100, 1.3)
        ranks = np.arange(1, 101, dtype=float)
        weights = ranks ** -1.3
        np.testing.assert_array_equal(probs, weights / weights.sum())

    def test_same_seed_stream_identical_through_cache(self):
        # Byte-identical same-seed output: the memoized table must not
        # perturb the draw sequence in any way.
        cfg = WorkloadConfig(num_keys=200, tx_size=6, zipf_s=1.1)
        a = WorkloadGenerator(cfg, np.random.default_rng(42))
        b = WorkloadGenerator(cfg, np.random.default_rng(42))
        for _ in range(50):
            assert a.next_tx() == b.next_tx()


class TestReadOnlyHint:
    def test_derived_from_ops(self):
        assert TxSpec((Op(False, "k1"), Op(False, "k2"))).is_read_only
        assert not TxSpec((Op(False, "k1"), Op(True, "k2", "v"))).is_read_only

    def test_explicit_flag_wins(self):
        assert TxSpec((Op(False, "k1"),), read_only=True).is_read_only
        assert not TxSpec((Op(False, "k1"),), read_only=False).is_read_only


class TestValueEncoding:
    def test_roundtrip(self):
        for n in (0, 1, -1, 999_999, -42):
            assert decode_int(encode_int(n)) == n

    def test_foreign_values_decode_to_default(self):
        assert decode_int(None, 7) == 7
        assert decode_int("v0000001", 7) == 7
        assert decode_int(object(), 7) == 7


class TestRegistry:
    def test_five_scenarios_registered(self):
        assert set(scenario_names()) == {
            "bank-transfer", "orders", "scan-vs-oltp", "secondary-index",
            "flash-crowd"}

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario_generator("nope", WorkloadConfig(),
                                    np.random.default_rng(0))

    def test_factories_match_names(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            gen = make_scenario_generator(name, scenario.workload,
                                          np.random.default_rng(0))
            assert isinstance(gen.next_tx(), TxSpec)


class TestScenarioGenerators:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_streams_identical(self, name):
        scenario = SCENARIOS[name]
        gens = [make_scenario_generator(name, scenario.workload,
                                        np.random.default_rng(9),
                                        client_index=2, num_clients=8)
                for _ in range(2)]
        for _ in range(40):
            assert (tx_fingerprint(gens[0].next_tx())
                    == tx_fingerprint(gens[1].next_tx()))
        assert gens[0].counters == gens[1].counters

    def test_bank_transfer_shapes(self):
        scenario = SCENARIOS["bank-transfer"]
        gen = make_scenario_generator("bank-transfer", scenario.workload,
                                      np.random.default_rng(3))
        saw_transfer = saw_audit = False
        for _ in range(60):
            spec = gen.next_tx()
            if spec.is_read_only:
                saw_audit = True
                assert all(not op.is_write for op in spec.ops)
            else:
                saw_transfer = True
                reads = [op for op in spec.ops if not op.is_write]
                writes = [op for op in spec.ops if op.is_write]
                assert len(reads) == 2 and len(writes) == 2
                assert {op.key for op in reads} == {op.key for op in writes}
                assert all(op.compute is not None for op in writes)
        assert saw_transfer and saw_audit

    def test_bank_transfer_rmw_conserves_balance(self):
        gen = make_scenario_generator(
            "bank-transfer", SCENARIOS["bank-transfer"].workload,
            np.random.default_rng(5))
        init = BankTransferGenerator.INITIAL_BALANCE
        spec = next(s for s in iter(gen) if not s.is_read_only)
        src_w, dst_w = [op for op in spec.ops if op.is_write]
        reads = {src_w.key: encode_int(init), dst_w.key: encode_int(init)}
        moved = decode_int(src_w.compute(reads)) - init
        assert moved < 0  # source pays...
        assert decode_int(dst_w.compute(reads)) - init == -moved  # ...dst gets

    def test_secondary_index_update_writes_both_keys(self):
        gen = make_scenario_generator(
            "secondary-index", SCENARIOS["secondary-index"].workload,
            np.random.default_rng(1))
        spec = next(s for s in iter(gen)
                    if any(op.is_write for op in s.ops))
        writes = {op.key for op in spec.ops if op.is_write}
        users = {k for k in writes if k.startswith("user")}
        assert {("index" + k[len("user"):]) for k in users} == writes - users

    def test_flash_crowd_burst_phases_and_criticals(self):
        scenario = SCENARIOS["flash-crowd"]
        gen = make_scenario_generator("flash-crowd", scenario.workload,
                                      np.random.default_rng(2))
        specs = [gen.next_tx() for _ in range(3 * FlashCrowdGenerator.CYCLE)]
        assert gen.counters["burst_txs"] > 0
        assert gen.counters["calm_txs"] > 0
        assert any(s.critical for s in specs)
        hot = [op.key for s in specs for op in s.ops
               if op.key.startswith("hot")]
        assert len(set(hot)) <= FlashCrowdGenerator.HOT_KEYS

    def test_scan_vs_oltp_scanner_role(self):
        scenario = SCENARIOS["scan-vs-oltp"]
        scanner = make_scenario_generator(
            "scan-vs-oltp", scenario.workload, np.random.default_rng(0),
            client_index=3, num_clients=8)
        writer = make_scenario_generator(
            "scan-vs-oltp", scenario.workload, np.random.default_rng(0),
            client_index=0, num_clients=8)
        assert scanner.next_tx().is_read_only
        assert not writer.next_tx().is_read_only
