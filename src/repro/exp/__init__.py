"""Process-parallel experiment harness (``repro.exp``).

The paper's evaluation is a grid of (protocol x contention x server-count x
seed) simulations; every cell is an independent, deterministic
:func:`~repro.dist.cluster.run_cluster` call, so the natural parallelism
axis — the one with *no shared state* — is across cells.  This package fans
a grid out over a pool of worker processes and merges the results back in
grid order, so a parallel sweep is byte-identical to a serial one:

* :mod:`repro.exp.grid` — cells, grids, and deterministic per-cell seeds;
* :mod:`repro.exp.harness` — the worker pool: crash-isolated process per
  cell, bounded concurrency, progress reporting, deterministic merge.

A library, not a command: ``python -m repro.bench figures --workers N``
drives the pool, and :mod:`repro.bench.recipes` runs its cells through
:func:`run_cells` in-process.

Determinism argument (DESIGN.md §5d): a cell's outcome is a pure function
of its :class:`~repro.dist.cluster.ClusterConfig` (all randomness flows
from ``config.seed`` through :class:`~repro.sim.rng.RngFactory`), workers
share no state, and the merge orders results by grid key — never by
completion order.  Wall-clock timing is the only nondeterministic output
and is kept out of the simulation payload.
"""

from .grid import Cell, derive_seeds, figure_grid  # noqa: F401
from .harness import (CellOutcome, merged_payload, run_cells,  # noqa: F401
                      run_figures)

__all__ = [
    "Cell", "derive_seeds", "figure_grid",
    "CellOutcome", "merged_payload", "run_cells", "run_figures",
]
