#!/usr/bin/env python3
"""perflab — this repo's one benchmark.

Two ways in, one measurement underneath (``worker.py``, one fresh
subprocess per sample, one process at a time):

* ``python perflab/run.py [--seed N] [--quick] [--no-check] [--out F]``
  — the full protocol: the five workloads, FULL_REPEATS times each,
  interleaved round-robin so a noisy minute hits all of them; every
  metric printed by name with its unit; the correctness gate; one traced
  run per workload; the per-layer micro suite; medians, quartiles and
  sample counts written to ``perflab/out/result.json`` for ``compare.py``.

* ``python perflab/run.py --workload W --seed N --seconds S --trace 0|1``
  — what the benchmark driver calls (``BENCHMARK.json``): one workload,
  DRIVER_REPEATS samples, the gate, and as the last line of stdout one
  JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Children run with ``REPRO_FASTCORE=0`` (the pure kernels a fresh checkout
has) and ``PYTHONHASHSEED=0`` (wall time on ``mvtil-contended`` moved by
20 % between hash seeds).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env["REPRO_FASTCORE"] = "0"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, *, seed: int, workload: str | None = None,
          scale: float = 1.0) -> dict[str, Any]:
    """Run ``worker.py`` to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--seed", str(seed), "--scale", repr(scale)]
    if workload is not None:
        cmd += ["--workload", workload]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload or ''} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and count of one metric's samples."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def end_to_end(workload: str, samples: list[dict]) -> dict[str, dict]:
    """metric -> summary, for the end-to-end metrics defined on
    ``workload``."""
    out = {}
    for m in spec.END_TO_END:
        if workload in m.workloads:
            out[m.name] = {"unit": m.unit, **summarize(
                [s["metrics"][m.name] for s in samples])}
    return out


def deterministic(workload: str, samples: list[dict]) -> list[str]:
    """Same code, same seed: simulated outcomes must agree exactly."""
    if workload not in spec.CLUSTER_WORKLOADS:
        return []
    prints = {s["sim_fingerprint"] for s in samples}
    if len(prints) > 1:
        return [f"{len(prints)} different sim_fingerprints across "
                f"{len(samples)} same-seed runs"]
    return []


def gate(workload: str, seed: int) -> list[str]:
    return spawn("check", workload=workload, seed=seed,
                 scale=spec.CHECK_SCALE)["failures"]


def per_layer(traced: dict, untraced: dict,
              micro: dict | None) -> dict[str, float]:
    """Every per-layer metric of one workload, by name."""
    out: dict[str, float] = {}
    for layer in spec.LAYERS:
        out[f"{layer}.self_s"] = traced["layers"][layer]["self_s"]
        out[f"{layer}.calls"] = traced["layers"][layer]["calls"]
    out["trace.total_s"] = traced["metrics"]["wall_s"]
    out["trace.overhead_x"] = (traced["metrics"]["wall_s"]
                               / untraced["metrics"]["wall_s"])
    for name in spec.LAYER_COUNTS:
        out[name] = traced["counts"].get(name, 0)
    out["sim.simulator.events_per_s"] = (
        out["sim.simulator.events"] / untraced["metrics"]["wall_s"])
    if micro is not None:
        for name in spec.MICRO_RATES:
            out[name] = statistics.median(micro["rates"][name])
        out["obs.trace_overhead_x"] = micro["obs.trace_overhead_x"]
    for m in spec.DRIVER_SIM:
        out[m.name] = untraced["metrics"].get(m.name, 0.0)
    out["host.slowdown_x"] = untraced["host"]["slowdown_x"]
    out["host.wall_raw_s"] = untraced["host"]["wall_raw_s"]
    return out


def write_layers(workload: str, values: dict[str, float]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}.layers.json"), "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Driver mode
# ---------------------------------------------------------------------------


def driver_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    scale = seconds / spec.RUN_SECONDS
    # Each sample draws its own inputs from --seed: the reported median
    # then also averages over what differs between seeds (commit counts,
    # when the chaos fires), not only over the host's noise.
    seeds = [seed * spec.DRIVER_REPEATS + i
             for i in range(spec.DRIVER_REPEATS)]
    if trace:
        traced = spawn("traced", workload=workload, seed=seeds[0],
                       scale=scale)
        samples = [spawn("timed", workload=workload, seed=seeds[0],
                         scale=scale)]
        values = per_layer(traced, samples[0],
                           spawn("micro", seed=seeds[0]))
        write_layers(workload, values)
        units = {m["name"]: m["unit"] for m in spec.per_layer_metrics()}
    else:
        samples = [spawn("timed", workload=workload, seed=s, scale=scale)
                   for s in seeds]
        for s in samples:
            print(f"sample wall_s={s['metrics']['wall_s']:.4f} (raw "
                  f"{s['host']['wall_raw_s']:.4f}, host "
                  f"x{s['host']['slowdown_x']:.3f})", file=sys.stderr)
        values = {m.name: statistics.median(s["metrics"][m.name]
                                            for s in samples)
                  for m in spec.DRIVER_END_TO_END}
        units = {m.name: m.unit for m in spec.DRIVER_END_TO_END}
    failures = gate(workload, seeds[0])
    for failure in failures:
        print(f"FAIL {workload}: {failure}", file=sys.stderr)
    attempted = sum(s["committed"] + s["given_up"] for s in samples)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        # Given-up transactions are a specified outcome (commit_rate counts
        # them); an operation *fails* when its run is wrong or unverified.
        "failed": attempted if failures else 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Full protocol
# ---------------------------------------------------------------------------


def loadavg_1m() -> float:
    return os.getloadavg()[0]


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def print_metric(workload: str, name: str, summary: dict) -> None:
    print(f"  {workload:16s} {name:22s} {summary['median']:12.4f} "
          f"{summary['unit']:9s} [{summary['q1']:.4f} .. "
          f"{summary['q3']:.4f}] n={summary['n']}")


def full_run(seed: int, quick: bool, check: bool, out_path: str) -> int:
    repeats, scale = ((1, spec.QUICK_SCALE) if quick
                      else (spec.FULL_REPEATS, spec.FULL_SCALE))
    load_before = loadavg_1m()
    samples: dict[str, list[dict]] = {w: [] for w in spec.WORKLOADS}
    for rep in range(repeats):
        for workload in spec.WORKLOADS:  # round-robin, one at a time
            sample = spawn("timed", workload=workload, seed=seed,
                           scale=scale)
            samples[workload].append(sample)
            print(f"run {rep + 1}/{repeats} {workload:16s} "
                  f"wall_s={sample['metrics']['wall_s']:.3f} "
                  f"(raw {sample['host']['wall_raw_s']:.3f}, host "
                  f"x{sample['host']['slowdown_x']:.2f})", flush=True)

    result: dict[str, Any] = {
        "schema": "perflab/1", "quick": quick, "seed": seed,
        "repeats": repeats, "workloads": {}}
    failures: list[str] = []
    print("\n== end to end (median [q1 .. q3]) ==")
    for workload, runs in samples.items():
        entry: dict[str, Any] = {
            "end_to_end": end_to_end(workload, runs),
            "ops_attempted": runs[0]["committed"] + runs[0]["given_up"],
            "ops_failed": runs[0]["given_up"],
            "sim_fingerprint": runs[0].get("sim_fingerprint"),
            "host": {"slowdown_x": summarize(
                [r["host"]["slowdown_x"] for r in runs]),
                "wall_raw_s": summarize(
                    [r["host"]["wall_raw_s"] for r in runs])},
        }
        for name, summary in entry["end_to_end"].items():
            print_metric(workload, name, summary)
        print(f"  {workload:16s} ops_attempted={entry['ops_attempted']} "
              f"ops_failed={entry['ops_failed']}")
        failures += [f"{workload}: {f}"
                     for f in deterministic(workload, runs)]
        result["workloads"][workload] = entry

    if check:
        print("\n== correctness gate ==")
        for workload in (*spec.WORKLOADS, "bank-transfer"):
            found = gate(workload, seed)
            print(f"  {workload:16s} {'FAILED' if found else 'ok'}")
            failures += [f"{workload}: {f}" for f in found]

    if not quick:
        print("\n== per layer (traced run + boundary counts) ==")
        micro = spawn("micro", seed=seed)
        for workload, runs in samples.items():
            traced = spawn("traced", workload=workload, seed=seed,
                           scale=scale)
            median_run = sorted(
                runs, key=lambda r: r["metrics"]["wall_s"])[len(runs) // 2]
            values = per_layer(traced, median_run, None)
            write_layers(workload, values)
            result["workloads"][workload]["per_layer"] = values
            total = sum(values[f"{layer}.self_s"] for layer in spec.LAYERS)
            print(f"  {workload}: trace.total_s="
                  f"{values['trace.total_s']:.3f} overhead_x="
                  f"{values['trace.overhead_x']:.2f}")
            for layer in spec.LAYERS:
                self_s = values[f"{layer}.self_s"]
                if self_s > 0:
                    print(f"    {layer:18s} self_s={self_s:8.3f} "
                          f"({self_s / total:5.1%}) "
                          f"calls={values[f'{layer}.calls']}")
            for name in spec.LAYER_COUNTS:
                if values[name]:
                    print(f"    {name:34s} {values[name]:14.2f} "
                          f"{spec.LAYER_COUNTS[name][0]}")
        print("\n== micro suite (median ops/s) ==")
        result["micro"] = {}
        for name in spec.MICRO_RATES:
            result["micro"][name] = {"unit": "1/s",
                                     **summarize(micro["rates"][name])}
            print(f"  {name:40s} {result['micro'][name]['median']:14.0f} "
                  f"1/s")
        result["micro"]["obs.trace_overhead_x"] = {
            "unit": "x", "median": micro["obs.trace_overhead_x"], "n": 3}
        print(f"  {'obs.trace_overhead_x':40s} "
              f"{micro['obs.trace_overhead_x']:14.3f} x")

    load_after = loadavg_1m()
    # The benchmark itself keeps one core busy, so only the *start* load
    # and anything beyond one core at the end count as foreign load.
    noisy = (load_before > spec.NOISY_LOADAVG
             or load_after > spec.NOISY_LOADAVG + 1.0)
    if noisy:
        print(f"WARNING: noisy host (loadavg_1m {load_before:.2f} before, "
              f"{load_after:.2f} after)", file=sys.stderr)
    result.update({
        "noisy": noisy, "correct": not failures, "failures": failures,
        "host": {
            "fastcore_backend":
                samples["mvtil-hotpath"][0]["fastcore_backend"],
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_1m_before": load_before,
            "loadavg_1m_after": load_after,
        }})
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"\nresult: {'FAILED' if failures else 'ok'} -> {out_path}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workload", choices=tuple(spec.WORKLOADS),
                    help="driver mode: measure this workload only")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="driver mode: scales the work (default: the "
                         "reference size)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver mode: 1 = per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: 1 repeat, quarter length, no traced "
                         "run; compare.py refuses the result")
    ap.add_argument("--check", action=argparse.BooleanOptionalAction,
                    default=True, help="run the correctness gate "
                    "(full protocol; driver mode always does)")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perflab: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if args.workload is not None:
        return driver_run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    return full_run(args.seed, args.quick, args.check, args.out)


if __name__ == "__main__":
    sys.exit(main())
