#!/usr/bin/env python3
"""Compare two perflab results: ``python perflab/compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians with quartiles,
B's relative change against A, and a verdict from the metric's bound in
``spec.py``:

* ``worse`` / ``better`` — B's median moved past the bound, and by more
  than either side's own run-to-run spread (q3 - q1 over the median);
* ``unresolved`` — the spread is wider than the bound, so the runs cannot
  tell (never reported as unchanged);
* ``within`` — otherwise.

Then, per cluster workload, ``sim_fingerprint`` and the traced per-layer
call counts: ``identical`` or ``changed`` — a pure-speed change must leave
the fingerprint identical, and identical calls mean the same program ran.
Exits 1 on any ``worse``, 2 when a file is a ``--quick`` result or not a
perflab result.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import spec


def load(path: str) -> dict[str, Any]:
    with open(path) as fh:
        result = json.load(fh)
    if result.get("schema") != "perflab/1":
        raise ValueError(f"{path}: not a perflab result")
    if result.get("quick"):
        raise ValueError(f"{path}: --quick results are for smoke use only")
    return result


def spread(summary: dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(metric: spec.Metric, a: dict[str, Any],
            b: dict[str, Any]) -> tuple[float, str]:
    """(relative change of B against A, verdict)."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worsening = change if metric.better == "lower" else -change
    noise = max(spread(a), spread(b))
    if worsening > metric.bound and worsening > noise:
        return change, "worse"
    if -worsening > metric.bound and -worsening > noise:
        return change, "better"
    if noise > metric.bound:
        return change, "unresolved"
    return change, "within"


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            if workload not in metric.workloads:
                continue
            sa = a["workloads"][workload]["end_to_end"][metric.name]
            sb = b["workloads"][workload]["end_to_end"][metric.name]
            change, word = verdict(metric, sa, sb)
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit, "a": sa, "b": sb,
                         "change": change, "verdict": word})
    return rows


def _calls(entry: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in entry["per_layer"].items()
            if k.endswith(".calls")}


def identities(a: dict[str, Any], b: dict[str, Any]) -> dict[str, dict]:
    """workload -> {"sim_fingerprint", "traced_calls"} -> identical|changed."""
    def word(same: bool) -> str:
        return "identical" if same else "changed"
    return {w: {"sim_fingerprint": word(
                    a["workloads"][w]["sim_fingerprint"]
                    == b["workloads"][w]["sim_fingerprint"]),
                "traced_calls": word(_calls(a["workloads"][w])
                                     == _calls(b["workloads"][w]))}
            for w in spec.CLUSTER_WORKLOADS}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    try:
        a, b = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for side, result in (("A", a), ("B", b)):
        host = result["host"]
        print(f"{side}: {argv[1 if side == 'A' else 2]}  rev "
              f"{host['git_revision']}  backend {host['fastcore_backend']}"
              f"  python {host['python']}  seed {result['seed']}"
              f"{'  NOISY' if result['noisy'] else ''}")
    if a["seed"] != b["seed"]:
        print("note: different seeds — simulated metrics and fingerprints "
              "differ by construction")
    rows = compare(a, b)
    print(f"\n{'workload':16s} {'metric':20s} {'A median [q1..q3]':>30s} "
          f"{'B median [q1..q3]':>30s} {'change':>8s}  verdict")
    for r in rows:
        def cell(s: dict[str, Any]) -> str:
            return f"{s['median']:.4g} [{s['q1']:.4g}..{s['q3']:.4g}]"
        print(f"{r['workload']:16s} {r['metric']:20s} {cell(r['a']):>30s} "
              f"{cell(r['b']):>30s} {r['change']:+8.1%}  {r['verdict']}")
    print()
    for workload, words in identities(a, b).items():
        print(f"{workload:16s} sim_fingerprint {words['sim_fingerprint']:10s}"
              f" traced_calls {words['traced_calls']}")
    counts = {word: sum(r["verdict"] == word for r in rows)
              for word in ("within", "better", "worse", "unresolved")}
    print("\n" + "  ".join(f"{word}: {n}" for word, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
