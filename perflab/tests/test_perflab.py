"""The benchmark's own invariants: names, limits, layer map, result schema,
and compare.py's verdicts."""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import spec

PERFLAB = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFLAB)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_source_file_maps_to_a_named_layer():
    src = os.path.join(ROOT, "src", "repro")
    seen = 0
    for dirpath, _dirs, files in os.walk(src):
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), src)
            rel = rel.replace(os.sep, "/")
            layer = layers.layer_of_module(rel)
            assert layer in spec.LAYERS, (
                f"{rel} has no layer: add it to layers.FILE_LAYER or its "
                f"package to layers.PACKAGE_LAYER")
            assert layers.layer_of_code(f"/x/src/repro/{rel}") == layer
            seen += 1
    assert seen > 50
    assert layers.layer_of_code("~") == "builtins"
    assert layers.layer_of_code("/usr/lib/python3/heapq.py") == "other"


def test_names_units_and_counts_fit_the_contract():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    # The full protocol's table is the issue's eleven metrics.
    assert len(spec.END_TO_END) == 11
    assert set(spec.CLUSTER_WORKLOADS) < set(spec.WORKLOADS)


def test_benchmark_json_restates_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


@pytest.fixture(scope="module")
def full_result():
    """A committed full-protocol result (results/ holds the PR's two)."""
    with open(os.path.join(PERFLAB, "results", "run-A.json")) as fh:
        return json.load(fh)


def test_compare_same_result_is_all_within(full_result):
    rows = compare.compare(full_result, full_result)
    assert rows and {r["verdict"] for r in rows} <= {"within", "unresolved"}
    # Against itself nothing moved; only a metric whose own spread exceeds
    # its bound may be unresolved, and the committed runs have none.
    assert all(r["verdict"] == "within" for r in rows)
    assert all(words == {"sim_fingerprint": "identical",
                         "traced_calls": "identical"}
               for words in compare.identities(full_result,
                                               full_result).values())


def test_compare_flags_a_wall_slower_than_its_bound(full_result):
    slower = copy.deepcopy(full_result)
    wall = slower["workloads"]["mvtil-hotpath"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 1 + 1.5 * spec.E2E_BY_NAME["wall_s"].bound
    rows = compare.compare(full_result, slower)
    worse = [(r["workload"], r["metric"]) for r in rows
             if r["verdict"] == "worse"]
    assert worse == [("mvtil-hotpath", "wall_s")]
    faster = [r["verdict"] for r in compare.compare(slower, full_result)
              if (r["workload"], r["metric"]) == ("mvtil-hotpath", "wall_s")]
    assert faster == ["better"]


def test_quick_run_is_schema_valid_and_refused_by_compare(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFLAB, "run.py"), "--quick",
         "--no-check", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["schema"] == "perflab/1"
    assert result["quick"] is True and result["correct"] is True
    assert result["host"]["fastcore_backend"] == "pure"
    assert set(result["workloads"]) == set(spec.WORKLOADS)
    for workload, entry in result["workloads"].items():
        expected = {m.name for m in spec.END_TO_END
                    if workload in m.workloads}
        assert set(entry["end_to_end"]) == expected
        for summary in entry["end_to_end"].values():
            assert summary["n"] == 1 and summary["median"] > 0
        assert entry["ops_attempted"] >= 1
    with pytest.raises(ValueError, match="quick"):
        compare.load(str(out))


def test_driver_mode_refuses_a_directory_without_the_program(tmp_path):
    """The driver also runs the benchmark where only BENCHMARK.json and
    perflab/ exist; it must fail fast without printing a result."""
    bare = tmp_path / "bare"
    shutil.copytree(PERFLAB, bare / "perflab",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perflab/run.py", "--workload", "mvtil-hotpath",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
