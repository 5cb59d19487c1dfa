"""Tests for the recipe registry and its one driver (repro.bench.recipes)."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

import repro.bench.__main__ as cli
from repro.bench.recipes import RECIPES, Recipe, run_recipe
from repro.core.timestamp import Timestamp
from repro.dist.cluster import ClusterResult
from repro.exp.grid import Cell
from repro.verify.history import TxRecord

REPO = Path(__file__).resolve().parents[2]


def result(committed: int = 5, history=None) -> ClusterResult:
    return ClusterResult(
        config=None, throughput=1.0, commit_rate=1.0, committed=committed,
        aborted=0, history=history, state_samples=[], completions=[],
        messages_sent=0, server_stats=[])


def clashing_history() -> list[TxRecord]:
    """Two committed writers of one key at one timestamp: not serializable."""
    records = []
    for tx_id in ("t1", "t2"):
        rec = TxRecord(tx_id)
        rec.writes = ("x",)
        rec.commit_ts = Timestamp(1, 0)
        records.append(rec)
    return records


def stub_recipe(monkeypatch, runs, check=lambda results: []) -> Recipe:
    """A one-cell recipe whose two same-seed runs return ``runs``."""
    canned = iter(runs)
    monkeypatch.setattr("repro.exp.harness.run_cluster",
                        lambda config: next(canned))
    return Recipe(
        "stub", "canned runs (seed {seed})",
        cells=lambda seed: [Cell(("cell",), None)],
        report=lambda results: [f"committed={results['cell',].committed}"],
        check=check)


class TestDriver:
    def test_clean_recipe_prints_ok_and_exits_zero(self, monkeypatch, capsys):
        recipe = stub_recipe(monkeypatch, [result(), result()])
        assert run_recipe(recipe, seed=3) == 0
        assert capsys.readouterr().out == (
            "== stub: canned runs (seed 3) ==\ncommitted=5\nstub: ok\n")

    @pytest.mark.parametrize("runs, check, expected", [
        ([result(5), result(6)], lambda results: [],
         "FAIL: cell: same-seed runs diverged"),
        ([result(history=clashing_history()), result()], lambda results: [],
         "FAIL: cell run 0: history not MVSG-serializable"),
        ([result(), result()], lambda results: ["too few commits"],
         "FAIL: too few commits"),
    ], ids=["diverged", "not-serializable", "check"])
    def test_each_failure_kind_fails_the_run(self, monkeypatch, capsys, runs,
                                             check, expected):
        recipe = stub_recipe(monkeypatch, runs, check)
        assert run_recipe(recipe, seed=3) == 1
        out = capsys.readouterr().out
        assert expected in out
        assert out.endswith("stub: FAILED\n")

    def test_raising_cell_fails_the_run(self, monkeypatch, capsys):
        recipe = stub_recipe(monkeypatch, [])  # next() raises StopIteration
        assert run_recipe(recipe, seed=3) == 1
        assert "FAIL: cell: cell raised" in capsys.readouterr().out


class TestTable:
    @pytest.mark.parametrize("name", RECIPES)
    def test_cells_build_with_unique_keys(self, name):
        """Every config passes ClusterConfig.__post_init__; nothing runs."""
        cells = RECIPES[name].cells(1)
        assert cells
        assert len({cell.key for cell in cells}) == len(cells)

    @pytest.mark.parametrize("name", RECIPES)
    def test_every_recipe_is_in_the_ci_matrix(self, name):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        [matrix] = re.findall(r"^\s+recipe: \[(.*)\]$", ci, re.MULTILINE)
        rows = {entry.split()[0] for entry in matrix.split(", ")}
        assert name in rows


#: sha256 of the success transcript (stdout incl. trailing newline) at seed
#: 1, recorded at the parent of the PR that introduced the registry.  Moves
#: only with a deliberate behaviour change — same re-pin rule as
#: GOLDEN_SHA256 (Python 3.11.7 / numpy 2.4.6).
PINNED_TRANSCRIPTS = {
    ("chaos",):
        "9c5c300ddc02660f7c127d202c6d0054b6fca2fcae3657de6b71d5c425f6d8c5",
    ("selfheal",):
        "e94dd92b3e0459fcc7a085434745637ee5b47ed53ad6b6b2308ff16ab99d2ed9",
    ("scenario", "flash-crowd"):
        "16955eac5e08d2c437a49b60bb234aeba83e0ac7535d82ae96d4dac4d03a295c",
}


class TestCLI:
    @pytest.mark.parametrize("argv", PINNED_TRANSCRIPTS, ids=" ".join)
    def test_success_transcript_is_pinned(self, argv, capsys):
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest()
                == PINNED_TRANSCRIPTS[argv]), out

    @pytest.mark.parametrize("argv, message", [
        (["chaos", "--seeds", "1", "2"], "exactly one seed"),
        (["chaos", "--workers", "2"], "--workers only apply to figures"),
        (["smoke", "--trace"], "--trace only apply to figures"),
        (["failover", "--out", "x"], "--out only apply to figures"),
        (["engine", "--seeds", "5"], "takes no seed"),
        (["policies", "bank-transfer"], "only valid with 'scenario'"),
        (["scenario", "no-such-scenario"], "unknown scenario"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_ignored_input_is_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
