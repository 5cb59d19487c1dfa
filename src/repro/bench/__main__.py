"""Command-line figure regeneration and reference checks.

Usage::

    python -m repro.bench fig1            # one figure
    python -m repro.bench figures         # every figure and the ablations
    python -m repro.bench figures --workers 8   # ... over 8 worker procs
    REPRO_FULL=1 python -m repro.bench fig2   # the paper's full sweep
    python -m repro.bench fig1 --seeds 1 2 3 --out results/
    python -m repro.bench engine          # threaded striped-engine bench
    python -m repro.bench chaos           # a recipe (see --help for all)
    python -m repro.bench scenario bank-transfer   # one zoo scenario
    python -m repro.bench arena --seeds 479243620  # a recipe at another seed

Every name but ``engine`` is a row of :data:`repro.bench.recipes.RECIPES`
and runs through :func:`~repro.bench.recipes.run_recipe`: it prints a
byte-deterministic transcript and exits non-zero on a failed check.  A
figure row (``fig1`` ... ``fig6``, whose runs make Figs. 6 and 7, and
``ablations``) also saves its points as JSON under ``--out``, averages
over ``--seeds``, and with ``--trace`` writes the runs' trace and metrics
sidecars.  ``--workers N`` fans a figure row's cells over N crash-isolated
worker processes via :mod:`repro.exp`; results merge in grid order, so the
output is byte-identical to a serial run (DESIGN.md §5d).  Any other row
takes exactly one seed.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from ..workload.scenarios import SCENARIOS
from .recipes import RECIPES, run_recipe

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
                        choices=["all", "figures", "engine", *RECIPES],
                        help="a recipe (fig1 ... fig6 and ablations are "
                             "the figure rows), 'figures' (or 'all') = "
                             "every figure row, or 'engine' = threaded "
                             "striped-engine throughput")
    parser.add_argument("name", nargs="?", default=None,
                        help="scenario name for 'scenario' (omit or 'all' "
                             "= every registered scenario)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="seeds to average over (paper: 5 repetitions); "
                             "a row that is not a figure sweep takes "
                             "exactly one")
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
    figure_rows = [name for name, recipe in RECIPES.items()
                   if recipe.figures is not None]
    names = (figure_rows if args.figure in ("all", "figures")
             else [args.figure])
    ignored = [f"--{flag}" for flag in ("out", "workers", "trace")
               if getattr(args, flag) != parser.get_default(flag)]
    if ignored and not set(names) <= set(figure_rows):
        parser.error(f"{', '.join(ignored)} only apply to figures, not "
                     f"to {args.figure!r}")
    if args.figure == "engine":
        if args.seeds != parser.get_default("seeds"):
            parser.error("'engine' takes no seed")
        return run_engine_bench()
    if len(set(args.seeds)) < len(args.seeds):
        parser.error(f"--seeds repeats a seed: {args.seeds}")
    for name in names:
        keys = [cell.key for seed in args.seeds
                for cell in RECIPES[name].cells(seed)]
        if len(set(keys)) < len(keys):
            parser.error(f"{name!r} takes exactly one seed, got "
                         f"{args.seeds}")
    only = None if args.name in (None, "all") else args.name
    if only is not None and only not in SCENARIOS:
        parser.error(f"unknown scenario {only!r}; expected one of "
                     f"{sorted(SCENARIOS)} or 'all'")
    return max(run_recipe(RECIPES[name], args.seeds, only=only,
                          workers=args.workers, out_dir=args.out,
                          trace=args.trace)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
