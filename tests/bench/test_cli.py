"""Tests for the `python -m repro.bench` command-line interface.

The figure rows are replaced by stub rows: each keeps its real
``figures`` builder but sweeps a few tiny clusters (keys of the real row's
shape), so every path of the CLI runs in seconds.
"""

import json
from dataclasses import replace
from functools import partial

import pytest

import repro.bench.__main__ as cli
from repro.bench import figures as fig
from repro.bench.recipes import RECIPES, Recipe
from repro.dist.cluster import ClusterConfig, run_cluster
from repro.exp.grid import Cell
from repro.sim.testbed import LOCAL_TESTBED
from repro.workload.generator import WorkloadConfig

TINY = ClusterConfig(
    protocol="2pl", num_servers=2, num_clients=4, warmup=0.1, measure=0.3,
    profile=LOCAL_TESTBED,
    workload=WorkloadConfig(num_keys=200, tx_size=4, write_fraction=0.25))


def sweep_cells(seed):
    """Two protocols at one x, keyed like Figs. 1-4."""
    return [Cell((4, proto, seed), replace(TINY, protocol=proto, seed=seed))
            for proto in ("2pl", "mvtil-early")]


def panel_cells(seed):
    """One Fig. 5 panel point."""
    return [Cell((2, "2pl@w25", seed), replace(TINY, seed=seed))]


def state_cells(seed):
    """MVTIL without and with GC, keyed like Figs. 6-7."""
    return [Cell((label,), replace(TINY, protocol="mvtil-early", seed=seed,
                                   gc_enabled=gc, state_sample_period=0.1,
                                   record_completions=True))
            for label, gc in (("mvtil-early", False), ("mvtil-gc", True))]


def ablation_cells(seed):
    """One skew ablation point."""
    return [Cell(("skew", 0.0, "2pl"), replace(TINY, seed=seed))]


STUB_CELLS = {"fig1": sweep_cells, "fig2": sweep_cells, "fig3": sweep_cells,
              "fig4": sweep_cells, "fig5": panel_cells, "fig6": state_cells,
              "ablations": ablation_cells}


@pytest.fixture
def stub_figures(monkeypatch):
    """Every figure row, with its real figures and tiny cells."""
    for name, cells in STUB_CELLS.items():
        figures = RECIPES[name].figures
        monkeypatch.setitem(RECIPES, name, Recipe(
            name, f"stub {name} (seed {{seed}})", cells,
            partial(fig.figure_table, figures), lambda results: [], figures))


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestCLI:
    def test_single_figure(self, stub_figures, tmp_path, capsys):
        code, out = run(["fig1", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.startswith("== fig1: stub fig1 (seed 1) ==\n")
        assert "Effect of concurrency level" in out
        assert out.endswith(f"  -> {tmp_path / 'fig1.json'}\nfig1: ok\n")
        data = json.loads((tmp_path / "fig1.json").read_text())
        assert data["figure"] == "fig1"
        assert [p["protocol"] for p in data["points"]] == ["2pl",
                                                          "mvtil-early"]

    def test_seeds_forwarded(self, stub_figures, tmp_path, capsys):
        """``fig3 --seeds 4 5``: every point is the mean over both seeds."""
        code, out = run(["fig3", "--seeds", "4", "5", "--out",
                         str(tmp_path)], capsys)
        assert code == 0
        assert "(seed 4 5)" in out
        data = json.loads((tmp_path / "fig3.json").read_text())
        for point in data["points"]:
            runs = [run_cluster(replace(TINY, protocol=point["protocol"],
                                        seed=seed)) for seed in (4, 5)]
            assert point["throughput"] == sum(r.throughput
                                              for r in runs) / 2
            assert point["commit_rate"] == sum(r.commit_rate
                                               for r in runs) / 2
        assert len(data["points"]) == 2
        assert runs[0].throughput != runs[1].throughput  # seeds differ

    def test_fig67_pair(self, stub_figures, tmp_path, capsys):
        """One ``fig6`` run writes both figures from the same runs."""
        code, _ = run(["fig6", "--out", str(tmp_path)], capsys)
        assert code == 0
        fig6 = json.loads((tmp_path / "fig6.json").read_text())
        fig7 = json.loads((tmp_path / "fig7.json").read_text())
        assert {p["protocol"] for p in fig6["points"]} == {"mvtil-early",
                                                           "mvtil-gc"}
        assert {p["protocol"] for p in fig7["points"]} == {"mvtil-early",
                                                           "mvtil-gc"}

    def test_all(self, stub_figures, tmp_path, capsys):
        code, out = run(["all", "--out", str(tmp_path)], capsys)
        assert code == 0
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                     "fig7", "ablation-commitment", "ablation-early-late",
                     "ablation-delta", "ablation-restarts", "ablation-skew"):
            assert (tmp_path / f"{name}.json").exists(), name
        assert out.count(": ok\n") == len(STUB_CELLS)

    def test_trace_writes_sidecars(self, stub_figures, tmp_path, capsys):
        code, out = run(["fig6", "--trace", "--out", str(tmp_path)], capsys)
        assert code == 0
        trace = tmp_path / "fig6.trace.jsonl"
        metrics = tmp_path / "fig6.metrics.json"
        assert f"  -> {trace}\n  -> {metrics}\n" in out
        runs = {json.loads(line)["run"]
                for line in trace.read_text().splitlines()}
        assert runs == {"run0:mvtil-early/seed=1", "run1:mvtil-early/seed=1"}
        assert set(json.loads(metrics.read_text())["runs"]) == runs

    def test_workers_output_equals_serial(self, stub_figures, tmp_path,
                                          capsys):
        outputs = {}
        for workers in ("0", "2"):
            directory = tmp_path / workers
            code, out = run(["fig3", "--seeds", "4", "5", "--workers",
                             workers, "--out", str(directory)], capsys)
            assert code == 0
            outputs[workers] = (out.replace(str(directory), "DIR"),
                                (directory / "fig3.json").read_bytes())
        assert outputs["2"] == outputs["0"]

    @pytest.mark.parametrize("argv, message", [
        (["ablations", "--seeds", "1", "2"], "exactly one seed"),
        (["fig6", "--seeds", "1", "2"], "exactly one seed"),
        (["figures", "--seeds", "1", "2"], "exactly one seed"),
        (["fig3", "--seeds", "1", "1"], "repeats a seed"),
        (["engine", "--out", "x"], "--out only apply to figures"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_figure_row_refusals(self, stub_figures, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_figure_rejected(self, stub_figures):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])
