"""Command-line figure regeneration and reference checks.

Usage::

    python -m repro.bench fig1            # one figure
    python -m repro.bench all             # everything
    python -m repro.bench figures --workers 8   # everything, in parallel
    REPRO_FULL=1 python -m repro.bench fig2   # the paper's full sweep
    python -m repro.bench fig1 --seeds 1 2 3 --out results/
    python -m repro.bench fig4 --workers 4    # one figure, 4 worker procs
    python -m repro.bench engine          # threaded striped-engine bench
    python -m repro.bench chaos           # a recipe (see --help for all ten)
    python -m repro.bench scenario bank-transfer   # one zoo scenario
    python -m repro.bench arena --seeds 479243620  # a recipe at another seed

Figures print an ASCII table and save the raw points as JSON.  Recipes
(:mod:`repro.bench.recipes`) and ``engine`` print their report and exit
non-zero on failure instead of writing files; a recipe takes one seed.

``--workers N`` fans each figure's (config x seed) grid over N crash-
isolated worker processes via :mod:`repro.exp`; the merged results are
byte-identical to a serial run (see DESIGN.md §5d), so it is purely a
wall-clock lever.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from ..exp.harness import print_progress, run_figures
from ..workload.scenarios import SCENARIOS
from .figures import (figure1_concurrency_local, figure2_concurrency_cloud,
                      figure3_write_fraction, figure4_small_transactions,
                      figure5_num_servers, figure6_7_state_and_gc)
from .recipes import RECIPES, run_recipe
from .reporting import (RunObservations, format_figure, save_figure,
                        save_observability)

FIGURES = {
    "fig1": figure1_concurrency_local,
    "fig2": figure2_concurrency_cloud,
    "fig3": figure3_write_fraction,
    "fig4": figure4_small_transactions,
    "fig5": figure5_num_servers,
}


def run_engine_bench(threads: int = 8, duration: float = 1.0,
                     keys_per_thread: int = 64) -> int:
    """Threaded MVTLEngine throughput, single-stripe vs striped.

    Two workloads: *disjoint* (each thread owns its keyset — the workload
    striping is built to parallelize) and *pairwise* (thread pairs contend
    on a shared key, exercising the blocking path where a single global
    condition wakes every waiter on every release).  Prints commits per
    second with ``stripes=1`` (the old single-condition behaviour) and the
    default stripe count, and the speedup.
    """
    from ..core.engine import DEFAULT_STRIPES, MVTLEngine
    from ..core.exceptions import TransactionAborted
    from ..policies import MVTIL, MVTLPessimistic

    def measure(stripes: int, policy, keyset_of) -> tuple[float, dict]:
        engine = MVTLEngine(policy(), default_timeout=2.0, stripes=stripes)
        commits = [0] * threads
        barrier = threading.Barrier(threads)
        deadline = [0.0]

        def worker(i: int) -> None:
            keyset = keyset_of(i)
            barrier.wait()
            n = 0
            while time.monotonic() < deadline[0]:
                tx = engine.begin(pid=i)
                try:
                    for key in {keyset[n % len(keyset)],
                                keyset[(n + 1) % len(keyset)]}:
                        engine.read(tx, key)
                        engine.write(tx, key, n)
                    if engine.commit(tx):
                        commits[i] += 1
                except TransactionAborted:
                    pass
                n += 1

        workers = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads)]
        # Set the deadline just before releasing the barrier so thread
        # start-up cost is not measured.
        deadline[0] = time.monotonic() + duration + 0.05
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return sum(commits) / duration, engine.stripe_contention()

    workloads = (
        ("disjoint", MVTIL,
         lambda i: [f"w{i}-{j}" for j in range(keys_per_thread)]),
        ("pairwise", MVTLPessimistic,
         lambda i: [f"pair{i // 2}"]),
    )
    print(f"== engine: {threads} threads, {duration:.1f}s per config ==")
    for label, policy, keyset_of in workloads:
        throughput = {}
        for stripes in (1, DEFAULT_STRIPES):
            thr, contention = measure(stripes, policy, keyset_of)
            throughput[stripes] = thr
            print(f"  {label:>9s} stripes={stripes:>2d}: {thr:>10.0f} "
                  f"commits/s  (waits={sum(contention['waits'])}, "
                  f"conflicts={sum(contention['conflicts'])})")
        speedup = throughput[DEFAULT_STRIPES] / max(1e-9, throughput[1])
        print(f"  {label:>9s} striped speedup: {speedup:.2f}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures (§8) or run "
                    "one of the reference checks.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="recipes:\n" + "\n".join(
            f"  {name:<19s} {recipe.doc.splitlines()[0]}"
            for name, recipe in RECIPES.items()))
    parser.add_argument("figure",
                        choices=sorted(FIGURES) + ["fig6", "fig7", "all",
                                                   "figures", "engine",
                                                   *RECIPES],
                        help="a figure ('figures' = all figures, intended "
                             "with --workers), 'engine' = threaded "
                             "striped-engine throughput, or a recipe")
    parser.add_argument("name", nargs="?", default=None,
                        help="scenario name for 'scenario' (omit or 'all' "
                             "= every registered scenario)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="seeds to average over (paper: 5 repetitions); "
                             "a recipe takes exactly one")
    parser.add_argument("--out", default="benchmarks/results",
                        help="directory for raw JSON output (figures only)")
    parser.add_argument("--workers", type=int, default=0,
                        help="fan each figure's runs over N worker "
                             "processes through repro.exp (0 = in-process "
                             "serial, the default; results are identical "
                             "either way; figures only)")
    parser.add_argument("--trace", action="store_true",
                        help="attach a repro.obs tracer to every run and "
                             "write <figure>.trace.jsonl + "
                             "<figure>.metrics.json sidecars "
                             "(inspect with `python -m repro.obs report`; "
                             "figures only)")
    args = parser.parse_args(argv)

    if args.name is not None and args.figure != "scenario":
        parser.error("a scenario name is only valid with 'scenario'")
    if args.figure == "engine" or args.figure in RECIPES:
        ignored = [f"--{flag}" for flag in ("out", "workers", "trace")
                   if getattr(args, flag) != parser.get_default(flag)]
        if ignored:
            parser.error(f"{', '.join(ignored)} only apply to figures, not "
                         f"to {args.figure!r}")
    if args.figure == "engine":
        if args.seeds != parser.get_default("seeds"):
            parser.error("'engine' takes no seed")
        return run_engine_bench()
    if args.figure in RECIPES:
        if len(args.seeds) != 1:
            parser.error(f"{args.figure!r} takes exactly one seed, got "
                         f"{args.seeds}")
        only = None if args.name in (None, "all") else args.name
        if only is not None and only not in SCENARIOS:
            parser.error(f"unknown scenario {only!r}; expected one of "
                         f"{sorted(SCENARIOS)} or 'all'")
        return run_recipe(RECIPES[args.figure], args.seeds[0], only=only)

    wanted = (sorted(FIGURES) + ["fig6"]
              if args.figure in ("all", "figures") else [args.figure])

    def run_fn(fn, obs):
        """One figure sweep: in-process, or fanned over the worker pool."""
        if args.workers > 0:
            return run_figures(fn, tuple(args.seeds), args.workers, obs=obs,
                               progress=print_progress)[0]
        kwargs = {"seeds": tuple(args.seeds)}
        if obs is not None:
            kwargs["obs"] = obs
        return fn(**kwargs)

    for name in wanted:
        start = time.time()
        obs = RunObservations() if args.trace else None
        if name in ("fig6", "fig7"):
            fig6, fig7 = run_fn(figure6_7_state_and_gc, obs)
            sidecar_anchor = None
            for result in (fig6, fig7):
                print(format_figure(result))
                path = save_figure(result, args.out)
                sidecar_anchor = sidecar_anchor or path
                print(f"  -> {path}  [{time.time() - start:.0f}s]\n")
            path = sidecar_anchor
        else:
            result = run_fn(FIGURES[name], obs)
            print(format_figure(result))
            path = save_figure(result, args.out)
            print(f"  -> {path}  [{time.time() - start:.0f}s]\n")
        if obs is not None and not obs.empty:
            trace_path, metrics_path = save_observability(obs, path)
            print(f"  -> {trace_path}")
            print(f"  -> {metrics_path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
