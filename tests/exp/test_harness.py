"""Tests for the parallel sweep harness: equivalence, isolation, merging."""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

import repro.exp.harness as harness_mod
from repro.dist.cluster import ClusterConfig
from repro.exp.grid import Cell, derive_seeds, figure_grid
from repro.exp.harness import (CellOutcome, HarnessCellError, merged_payload,
                               run_cells, run_figures)
from repro.sim.testbed import LOCAL_TESTBED
from repro.workload.generator import WorkloadConfig


def tiny_config(protocol: str = "2pl", seed: int = 1,
                num_clients: int = 4) -> ClusterConfig:
    return ClusterConfig(
        protocol=protocol, num_servers=2, num_clients=num_clients,
        seed=seed, warmup=0.1, measure=0.3, profile=LOCAL_TESTBED,
        workload=WorkloadConfig(num_keys=200, tx_size=4,
                                write_fraction=0.25))


def tiny_grid() -> list[Cell]:
    return [
        Cell(key=(proto, seed), config=tiny_config(proto, seed))
        for proto in ("2pl", "mvtil-early")
        for seed in (1, 2)
    ]


class TestSerialParallelEquivalence:
    def test_workers_1_vs_4_byte_identical(self):
        """The satellite acceptance check: --workers 1 == --workers 4."""
        cells = tiny_grid()
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=4)
        assert all(out.ok for out in serial), [o.error for o in serial]
        assert merged_payload(serial) == merged_payload(parallel)

    def test_inline_matches_subprocess(self):
        cells = tiny_grid()[:2]
        inline = run_cells(cells, workers=0)
        pooled = run_cells(cells, workers=2)
        assert all(out.ok for out in inline)
        assert merged_payload(inline) == merged_payload(pooled)

    def test_merge_is_grid_order_not_completion_order(self):
        # Cells with very different runtimes: the slow cell is first in the
        # grid, so completion order differs from grid order under workers>1.
        cells = [
            Cell(key=("slow",), config=tiny_config("mvtil-early", 3,
                                                   num_clients=8)),
            Cell(key=("fast",), config=tiny_config("2pl", 3)),
        ]
        outcomes = run_cells(cells, workers=2)
        assert [out.key for out in outcomes] == [("slow",), ("fast",)]


class TestCrashIsolation:
    def test_dead_worker_fails_only_its_cell(self, monkeypatch):
        """A worker killed mid-cell fails that cell, not the sweep."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("crash injection needs the fork start method")
        original = harness_mod.run_cluster

        def dying_run_cluster(config):
            if config.seed == 2:
                os._exit(3)  # simulate a segfault/OOM kill
            return original(config)

        monkeypatch.setattr("repro.exp.harness.run_cluster",
                            dying_run_cluster)
        cells = [Cell(key=("c", s), config=tiny_config("2pl", s))
                 for s in (1, 2, 3)]
        outcomes = run_cells(cells, workers=2)
        assert [out.ok for out in outcomes] == [True, False, True]
        assert "worker died" in outcomes[1].error
        assert "exitcode 3" in outcomes[1].error

    def test_worker_exception_carries_traceback(self, monkeypatch):
        def raising_run_cluster(config):
            raise RuntimeError("boom in cell")

        monkeypatch.setattr("repro.exp.harness.run_cluster",
                            raising_run_cluster)
        [out] = run_cells([Cell(key=("x",), config=tiny_config())],
                          workers=1)
        assert not out.ok
        assert out.result is None
        assert "boom in cell" in out.error

    def test_inline_exception_is_isolated_too(self, monkeypatch):
        def raising_run_cluster(config):
            raise ValueError("inline boom")

        monkeypatch.setattr("repro.exp.harness.run_cluster",
                            raising_run_cluster)
        [out] = run_cells([Cell(key=("x",), config=tiny_config())],
                          workers=0)
        assert not out.ok and "inline boom" in out.error


class TestProgressAndValidation:
    def test_progress_called_per_cell(self):
        seen = []
        cells = tiny_grid()[:2]
        run_cells(cells, workers=0,
                  progress=lambda done, total, out: seen.append(
                      (done, total, out.key)))
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        assert {s[2] for s in seen} == {c.key for c in cells}

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_cells([], workers=-1)

    def test_duplicate_grid_keys_rejected(self):
        from repro.exp.grid import _check_unique
        cells = [Cell(key=("a",), config=tiny_config()),
                 Cell(key=("a",), config=tiny_config())]
        with pytest.raises(ValueError, match="duplicate grid key"):
            _check_unique(cells)


class TestGrid:
    def test_derive_seeds_deterministic_and_distinct(self):
        a = derive_seeds(2026, 4)
        b = derive_seeds(2026, 4)
        assert a == b
        assert len(set(a)) == 4
        assert derive_seeds(2027, 4) != a

    def test_figure_grid_shape_and_order(self):
        cells = figure_grid(protocols=("2pl", "mvto"), clients=(10, 20),
                            seeds=(1, 2), measure=0.5)
        assert len(cells) == 8
        assert cells[0].key == ("2pl", 10, 1)
        assert cells[-1].key == ("mvto", 20, 2)
        assert len({c.key for c in cells}) == 8
        assert cells[0].config.measure == 0.5


class TestRunFigures:
    def test_matches_serial_figure_run(self):
        """Record/replay through the pool returns exactly the serial result."""
        from repro.bench.figures import sweep_protocols

        base = tiny_config()

        def tiny_figure(seeds, obs=None):
            return sweep_protocols(
                base, xs=[4], protocols=("2pl", "mvtil-early"), seeds=seeds,
                apply_x=lambda cfg, x: replace(cfg, num_clients=int(x)),
                obs=obs)

        serial = tiny_figure((1, 2))
        pooled, outcomes = run_figures(tiny_figure, (1, 2), workers=2)
        assert pooled == serial
        assert len(outcomes) == 4  # 2 protocols x 1 x-value x 2 seeds
        assert all(out.ok for out in outcomes)

    def test_failed_cell_raises_harness_error(self, monkeypatch):
        def raising_run_cluster(config):
            raise RuntimeError("figure cell boom")

        monkeypatch.setattr("repro.exp.harness.run_cluster",
                            raising_run_cluster)

        def tiny_figure(seeds, obs=None):
            from repro.bench.figures import _execute
            return [_execute(tiny_config(seed=s)) for s in seeds]

        with pytest.raises(HarnessCellError, match="failed in a worker"):
            run_figures(tiny_figure, (1,), workers=1)


class TestCellOutcome:
    def test_payload_excludes_wall_clock(self):
        out = CellOutcome(key=("a", 1), ok=False, result=None,
                          error="x", wall_s=1.23)
        assert "wall_s" not in out.payload()
        # Same outcome at a different wall time merges identically.
        other = CellOutcome(key=("a", 1), ok=False, result=None,
                            error="x", wall_s=9.87)
        assert merged_payload([out]) == merged_payload([other])
