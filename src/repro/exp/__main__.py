"""CLI: run the reference benchmark grid and emit a BENCH JSON record.

Usage::

    python -m repro.exp --workers 2            # writes bench-figure.json
    python -m repro.exp --workers 8 --compare-serial   # record speedup too
    python -m repro.exp --out BENCH_11.json --bench-name BENCH_11

Quick mode (the default) runs the reference Figure-1-style grid (protocol x
concurrency x seed) plus one fixed single-process hot-path cell; ``--full``
widens the grid.  The emitted document validates against
:func:`repro.exp.bench.validate_bench`.  Without ``--out`` the record goes
to ``bench-<mode>.json`` in the current directory — never onto a committed
``BENCH_<n>.json``; name one explicitly to add a record to the repo.
"""

from __future__ import annotations

import argparse
import sys
import time

from .bench import make_bench_doc, write_bench
from .grid import (derive_seeds, failover_grid, figure_grid, policy_grid,
                   reference_cell, scenario_grid, selfheal_grid)
from .harness import print_progress, run_cells

#: Flags that swap the figure grid for a mode-specific one.
MODES = ("failover", "selfheal", "scenarios", "policies")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line and fill the mode-derived defaults.

    An unset ``--bench-name`` / ``--out`` becomes ``bench-<mode>`` /
    ``bench-<mode>.json``, so an unnamed run never lands on a committed
    ``BENCH_<n>.json`` record.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Run the reference benchmark grid and emit BENCH JSON.")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = inline, default 2)")
    parser.add_argument("--out", default=None,
                        help="output path (default bench-<mode>.json)")
    parser.add_argument("--bench-name", default=None,
                        help="bench record name (default bench-<mode>: "
                             "bench-figure, bench-failover, ...)")
    parser.add_argument("--full", action="store_true",
                        help="widen the grid (more clients, more seeds)")
    parser.add_argument("--failover", action="store_true",
                        help="run the replication/failover grid instead of "
                             "the figure grid and record failover latency, "
                             "goodput dip and the lost-commits audit")
    parser.add_argument("--selfheal", action="store_true",
                        help="run the self-healing replication grid instead "
                             "of the figure grid and record anti-entropy "
                             "resync latencies, recruitment, the refusal-"
                             "reason breakdown and the lost-commits audit "
                             "under compound chaos")
    parser.add_argument("--scenarios", action="store_true",
                        help="run the workload-zoo scenario grid instead of "
                             "the figure grid and record per-scenario "
                             "outcomes, generated mixes and invariant "
                             "status")
    parser.add_argument("--policies", action="store_true",
                        help="run the policy-arena grid instead of the "
                             "figure grid: every scenario under the "
                             "adaptive selector, its fixed constituents "
                             "and the Bohm baseline, plus Bohm-under-"
                             "link-faults validation cells")
    parser.add_argument("--root-seed", type=int, default=2026,
                        help="root seed the per-cell seeds derive from")
    parser.add_argument("--compare-serial", action="store_true",
                        help="also run the grid serially and record the "
                             "parallel speedup")
    parser.add_argument("--skip-hot-path", action="store_true",
                        help="skip the single-process hot-path reference "
                             "cell")
    args = parser.parse_args(argv)
    chosen = [mode for mode in MODES if getattr(args, mode)]
    if len(chosen) > 1:
        parser.error("--failover, --selfheal, --scenarios and --policies "
                     "are mutually exclusive")
    mode = chosen[0] if chosen else "figure"
    if args.bench_name is None:
        args.bench_name = f"bench-{mode}"
    if args.out is None:
        args.out = f"bench-{mode}.json"
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.selfheal:
        [seed] = derive_seeds(args.root_seed, 1)
        cells = selfheal_grid(seed=seed,
                              measure=4.5 if args.full else 3.5)
    elif args.failover:
        [seed] = derive_seeds(args.root_seed, 1)
        cells = failover_grid(seed=seed,
                              measure=3.0 if args.full else 2.5)
    elif args.scenarios:
        [seed] = derive_seeds(args.root_seed, 1)
        cells = scenario_grid(seed=seed)
    elif args.policies:
        [seed] = derive_seeds(args.root_seed, 1)
        cells = policy_grid(seed=seed)
    elif args.full:
        clients = (30, 90, 150, 300)
        seeds = derive_seeds(args.root_seed, 3)
        cells = figure_grid(clients=clients, seeds=seeds, measure=3.0)
    else:
        seeds = derive_seeds(args.root_seed, 2)
        cells = figure_grid(clients=(30, 150), seeds=seeds, measure=1.5)

    if args.failover or args.selfheal:
        # Failover/selfheal cells ship the full ClusterResult (the
        # lost-commits audit reads replication_report + history), which
        # does not survive the worker-pipe pickle — run them in-process.
        # Scenario cells reduce to a picklable summary in the worker, so
        # they parallelize like the figure grid.
        args.workers = 0
    print(f"[repro.exp] grid: {len(cells)} cells, workers={args.workers}",
          file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    outcomes = run_cells(cells, workers=args.workers,
                         progress=print_progress)
    grid_wall = time.perf_counter() - t0

    parallel = None
    if args.compare_serial:
        print("[repro.exp] serial reference pass "
              "(same grid, workers=1)", file=sys.stderr, flush=True)
        t0 = time.perf_counter()
        serial_outcomes = run_cells(cells, workers=1,
                                    progress=print_progress)
        serial_wall = time.perf_counter() - t0
        from .harness import merged_payload
        identical = merged_payload(outcomes) == merged_payload(
            serial_outcomes)
        parallel = {
            "workers": args.workers,
            "grid_wall_s": round(grid_wall, 3),
            "serial_wall_s": round(serial_wall, 3),
            "speedup": (round(serial_wall / grid_wall, 3)
                        if grid_wall > 0 else 0.0),
            "results_identical": identical,
        }
        if not identical:
            print("[repro.exp] ERROR: parallel results differ from serial",
                  file=sys.stderr)
            return 1

    hot_path = None
    if (not args.skip_hot_path and not args.failover and not args.selfheal
            and not args.scenarios and not args.policies):
        cell = reference_cell()
        print(f"[repro.exp] hot-path reference cell {cell.label} "
              "(single process)", file=sys.stderr, flush=True)
        [hp] = run_cells([cell], workers=0)
        hot_path = {
            "key": list(hp.key),
            "ok": hp.ok,
            "wall_s": round(hp.wall_s, 3),
            "sim_events": hp.sim_events,
            "events_per_s": round(hp.events_per_s, 1),
            "commits_per_s": round(hp.commits_per_s, 1),
        }

    doc = make_bench_doc(args.bench_name, outcomes, args.workers,
                         hot_path=hot_path, parallel=parallel)
    if args.failover and all(out.ok for out in outcomes):
        # Cross-cell derived numbers (deterministic commit counts, not
        # wall-clock): how much goodput replication costs at steady state,
        # how much more the leader crash costs, and the recovery headline.
        by = {out.key[0]: out.result for out in outcomes}
        rep = by["repl-failover"].replication_report
        doc["failover"] = {
            "promotions": len(rep["promotions"]),
            "failover_latencies": [round(v, 4)
                                   for v in rep["failover_latencies"]],
            "lost_commits": rep["lost_commits"],
            "replica_missing": rep["replica_missing"],
            "commits_checked": rep["commits_checked"],
            "follower_reads": rep["follower_reads"],
            "staleness_mean": round(rep["read_staleness"]["mean"], 4),
            "wal_records": rep["wal_records"],
            "checkpoints": rep["checkpoints"],
            "replication_overhead": round(
                1.0 - by["repl-steady"].committed
                / max(1, by["baseline"].committed), 4),
            "goodput_dip": round(
                1.0 - by["repl-failover"].committed
                / max(1, by["repl-steady"].committed), 4),
        }
    if args.selfheal and all(out.ok for out in outcomes):
        # The BENCH_9 record: self-healing verdicts from the reference
        # cell's replication report, plus invariant status of the two
        # scenario cells that ran under the same compound chaos.  Any
        # unhealed server, lost commit or broken invariant fails the run.
        from ..workload.scenarios import check_scenario
        failures: list[str] = []
        by = {out.key[:2]: out.result for out in outcomes}
        main = by[("selfheal", 3)]
        rep = main.replication_report
        if rep["lost_commits"]:
            failures.append(f"selfheal: {rep['lost_commits']} lost commits")
        if not rep["commits_checked"]:
            failures.append("selfheal: lost-commit audit was vacuous")
        if rep["dirty_at_end"]:
            failures.append(f"selfheal: still dirty at end: "
                            f"{rep['dirty_at_end']}")
        if not rep["resyncs"]:
            failures.append("selfheal: no anti-entropy resync completed")
        if not rep["recruitments"]:
            failures.append("selfheal: no replacement replica recruited")
        doc["selfheal"] = {
            "promotions": len(rep["promotions"]),
            "recruitments": rep["recruitments"],
            "resyncs": rep["resyncs"],
            "resync_latencies": [round(v, 4)
                                 for v in rep["resync_latencies"]],
            "sync_rounds": rep["sync_rounds"],
            "sync_installs": rep["sync_installs"],
            "sync_aborted": rep["sync_aborted"],
            "wal_sync_records": rep["wal_sync_records"],
            "snapshot_refused_by_reason": rep["snapshot_refused_by_reason"],
            "served_resynced": rep["snapshot_served_resynced_by_server"],
            "dirty_at_end": rep["dirty_at_end"],
            "min_live_members": rep["min_live_members"],
            "lost_commits": rep["lost_commits"],
            "replica_missing": rep["replica_missing"],
            "commits_checked": rep["commits_checked"],
            "fanout_acked": rep["fanout_acked"],
            "fanout_unacked": rep["fanout_unacked"],
        }
        scenarios = {}
        for key, res in by.items():
            if key[0] != "scenario-chaos":
                continue
            name = key[1]
            srep = res.replication_report
            bad = check_scenario(name, res)
            scenarios[name] = {
                "committed": res.committed,
                "aborted": res.aborted,
                "commit_rate": round(res.commit_rate, 4),
                "invariant_failures": list(bad),
                "lost_commits": srep["lost_commits"],
                "commits_checked": srep["commits_checked"],
                "resyncs": srep["resyncs"],
                "dirty_at_end": srep["dirty_at_end"],
                "recruitments": srep["recruitments"],
            }
            if bad:
                failures.append(f"{name}: invariants failed under chaos: "
                                f"{list(bad)}")
            if srep["lost_commits"]:
                failures.append(f"{name}: {srep['lost_commits']} lost "
                                f"commits under chaos")
            if srep["dirty_at_end"]:
                failures.append(f"{name}: still dirty at end: "
                                f"{srep['dirty_at_end']}")
        doc["selfheal"]["scenarios"] = scenarios
        if failures:
            for msg in failures:
                print(f"[repro.exp] ERROR: {msg}", file=sys.stderr)
            return 1

    if args.scenarios and all(out.ok for out in outcomes):
        # Per-scenario derived record: generated mix, quiescence, duels
        # and invariant status (counts only — deterministic and compact).
        # Invariants and duels already ran inside the workers
        # (reduce_scenario_cell); this just assembles their summaries.
        section = {}
        for out in outcomes:
            res = out.result
            section[res.scenario] = {
                "committed": res.committed,
                "aborted": res.aborted,
                "commit_rate": round(res.commit_rate, 4),
                "quiesced": res.quiesced,
                "counters": dict(res.counters),
                "final_state_keys": res.final_state_keys,
                "invariant_failures": list(res.invariant_failures),
                "serial_aborts": dict(res.serial_aborts),
                "ghost_aborts": dict(res.ghost_aborts),
            }
            if res.invariant_failures:
                print(f"[repro.exp] ERROR: {res.scenario} invariants "
                      f"failed: {list(res.invariant_failures)}",
                      file=sys.stderr)
                return 1
        doc["scenarios"] = section

    if args.policies and all(out.ok for out in outcomes):
        # The BENCH_8 record: per scenario x policy arena numbers, the
        # Bohm link-fault validation verdicts, and the adaptive-policy
        # acceptance bounds (within 10% of the best *fixed* policy's
        # commit rate everywhere; strictly better than the worst fixed on
        # a majority of scenarios).  Violations fail the run.
        from ..workload.scenarios import ARENA_FIXED_POLICIES
        arena: dict = {}
        chaos: dict = {}
        failures: list[str] = []
        for out in outcomes:
            res = out.result
            if out.key[0] == "arena":
                arena.setdefault(res.scenario, {})[res.policy] = {
                    "committed": res.committed,
                    "aborted": res.aborted,
                    "decided": res.decided,
                    "commit_rate": round(res.commit_rate, 4),
                    "serializable": res.serializable,
                    "switches": res.switches,
                }
                if not res.serializable:
                    failures.append(f"{res.scenario}/{res.policy}: arena "
                                    "history is not MVSG-serializable")
            else:
                chaos[res.scenario] = {
                    "committed": res.committed,
                    "aborted": res.aborted,
                    "commit_rate": round(res.commit_rate, 4),
                    "quiesced": res.quiesced,
                    "serializable": res.serializable,
                    "invariant_failures": list(res.invariant_failures),
                }
                if not res.serializable:
                    failures.append(f"bohm-chaos/{res.scenario}: history "
                                    "is not MVSG-serializable")
                if res.invariant_failures:
                    failures.append(f"bohm-chaos/{res.scenario}: "
                                    f"{list(res.invariant_failures)}")
        beats_worst = 0
        acceptance: dict = {}
        for scenario, by_policy in arena.items():
            fixed = {p: by_policy[p]["commit_rate"]
                     for p in ARENA_FIXED_POLICIES}
            best, worst = max(fixed.values()), min(fixed.values())
            rate = by_policy["mvtl-adaptive"]["commit_rate"]
            within = rate >= 0.9 * best
            beats = rate > worst
            beats_worst += beats
            acceptance[scenario] = {
                "adaptive": rate, "best_fixed": best, "worst_fixed": worst,
                "within_10pct_of_best": within, "beats_worst": beats,
            }
            if not within:
                failures.append(
                    f"{scenario}: adaptive commit rate {rate} is more than "
                    f"10% below the best fixed policy ({best})")
        if beats_worst < 3:
            failures.append(f"adaptive beats the worst fixed policy on "
                            f"only {beats_worst}/5 scenarios (need >= 3)")
        doc["policies"] = {
            "arena": arena,
            "bohm_chaos": chaos,
            "acceptance": acceptance,
            "beats_worst_count": beats_worst,
        }
        if failures:
            for msg in failures:
                print(f"[repro.exp] ERROR: {msg}", file=sys.stderr)
            return 1

    path = write_bench(doc, args.out)
    failed = doc["totals"]["failed"]
    print(f"[repro.exp] wrote {path} "
          f"({doc['totals']['cells']} cells, {failed} failed, "
          f"{doc['totals']['events_per_s']:.0f} events/s aggregate)",
          file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
