"""Experiment grids: ordered (config x seed) cells with stable keys.

A :class:`Cell` pairs one :class:`~repro.dist.cluster.ClusterConfig` with a
stable, sortable grid key.  The key — not completion order — defines the
merge order of a parallel sweep, which is what makes ``--workers N``
byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..dist.cluster import ClusterConfig
from ..sim.testbed import LOCAL_TESTBED
from ..workload.generator import WorkloadConfig

__all__ = ["Cell", "derive_seeds", "figure_grid"]


@dataclass(frozen=True)
class Cell:
    """One grid cell: a stable key plus the config to run.

    ``key`` must be unique within a grid and orderable (tuples of
    str/int/float); it names the cell in merged results.

    ``run`` (``None`` = :func:`~repro.dist.cluster.run_cluster`) executes
    the cell, and must be a top-level callable (or a ``partial`` of one)
    so the cell pickles under the spawn start method.  A result that does
    not survive the worker pipe (e.g. a recorded history, whose recorder
    holds a lock) fails its cell loudly under ``workers >= 1``; such cells
    run in-process (``workers=0``).
    """

    key: tuple
    #: Usually a ClusterConfig; cells with a custom ``run`` may carry any
    #: picklable config object their runner understands.
    config: Any
    run: Callable[[Any], Any] | None = None

    @property
    def label(self) -> str:
        return "/".join(str(part) for part in self.key)


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """``n`` deterministic per-cell seeds derived from ``root_seed``.

    Uses the same ``SeedSequence`` spawning discipline as
    :class:`~repro.sim.rng.RngFactory` (children are deterministic in spawn
    order), so grids built from one root seed are reproducible regardless
    of worker count or scheduling.
    """
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(child.generate_state(1, np.uint32)[0]) for child in children]


def _check_unique(cells: Sequence[Cell]) -> None:
    seen: set[tuple] = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate grid key {cell.key!r}")
        seen.add(cell.key)


def figure_grid(protocols: Sequence[str] = ("mvto", "2pl", "mvtil-early",
                                            "mvtil-late"),
                clients: Sequence[int] = (30, 150),
                seeds: Sequence[int] = (1, 2),
                measure: float = 1.5) -> list[Cell]:
    """The reference benchmark grid: a quick Figure-1-style sweep.

    Protocol x concurrency x seed on the local testbed — the same axes as
    the paper's Figure 1, sized so the quick grid finishes in minutes.
    Cells are emitted in key order.
    """
    base = ClusterConfig(
        profile=LOCAL_TESTBED,
        workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                write_fraction=0.25),
        warmup=0.5, measure=measure)
    cells = [
        Cell(key=(proto, int(nc), int(seed)),
             config=replace(base, protocol=proto, num_clients=int(nc),
                            seed=int(seed)))
        for proto in protocols
        for nc in clients
        for seed in seeds
    ]
    _check_unique(cells)
    return cells
