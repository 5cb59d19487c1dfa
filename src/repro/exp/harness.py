"""The worker pool: crash-isolated parallel execution of grid cells.

Each cell runs in its own worker process (at most ``workers`` alive at
once), so a dying worker — a segfault, an OOM kill, an uncaught exception —
fails *that cell* and nothing else.  Results are merged **by grid position,
never by completion order**: the output list of :func:`run_cells` lines up
index-for-index with the input cells, which is what makes a parallel sweep
byte-identical to a serial one (see :func:`merged_payload`).

Seeding: workers inherit nothing random from the parent.  Every cell's
randomness flows from ``cell.config.seed`` through the existing
:class:`~repro.sim.rng.RngFactory` stream discipline inside
:func:`~repro.dist.cluster.run_cluster`, and grids derive per-cell seeds
deterministically (:func:`repro.exp.grid.derive_seeds`) — so the worker
count can never change a cell's outcome.

:func:`run_figures` runs the unmodified figure functions of
:mod:`repro.bench.figures` through the pool with a record/replay pass: the
figure code is executed once with a recording runner to enumerate the
(config x seed) grid it would run, the grid goes through the pool, and the
figure code is executed again with the pooled results replayed in order.
The sweep logic stays in one place; the harness never re-implements it.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Sequence

from ..dist.cluster import ClusterConfig, ClusterResult, run_cluster
from .grid import Cell

__all__ = ["CellOutcome", "run_cells", "run_figures", "merged_payload",
           "HarnessCellError", "print_progress"]


@dataclass
class CellOutcome:
    """Result of one grid cell, successful or not.

    ``result`` is what the cell's runner returned on success (a
    :class:`~repro.dist.cluster.ClusterResult` unless the cell has a
    custom ``run``) and ``None`` on failure;
    ``error`` carries the worker's traceback (or exit diagnosis) on
    failure.  ``wall_s`` is host wall-clock and therefore nondeterministic
    — it is excluded from :meth:`payload`, the deterministic merge view.
    """

    key: tuple
    ok: bool
    result: Any
    error: str | None
    wall_s: float

    @property
    def label(self) -> str:
        return "/".join(str(part) for part in self.key)

    def payload(self) -> dict:
        """The deterministic simulation outputs of this cell.

        Everything here is a pure function of the cell's config (wall-clock
        derived numbers are deliberately absent), so serial and parallel
        sweeps produce byte-identical merged payloads.
        """
        base: dict[str, Any] = {"key": list(self.key), "ok": self.ok,
                                "error": self.error}
        if self.result is not None:
            res = self.result
            base.update(
                committed=res.committed,
                aborted=res.aborted,
                throughput=res.throughput,
                commit_rate=res.commit_rate,
                messages_sent=res.messages_sent,
                messages_per_commit=res.messages_per_commit,
                sim_events=res.sim_events,
            )
        return base


class HarnessCellError(RuntimeError):
    """A figure sweep needed a cell whose worker failed."""


def merged_payload(outcomes: Sequence[CellOutcome]) -> bytes:
    """Canonical JSON bytes of the merged deterministic results.

    Ordered by grid position with sorted keys and fixed separators: two
    sweeps over the same grid are equivalent iff these bytes are equal.
    """
    doc = [out.payload() for out in outcomes]
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def _cell_worker(conn: Any, cell: Cell) -> None:
    """Run one cell and ship the outcome back over ``conn``.

    Top-level so it pickles under the spawn start method.  Any exception is
    converted to an ("err", traceback) message; a hard crash is detected by
    the parent as EOF-without-message.  A result that does not survive the
    pipe pickle is a loud per-cell failure, never a silent fallback to
    serial execution.
    """
    try:
        run = cell.run if cell.run is not None else run_cluster
        result = run(cell.config)
        try:
            conn.send(("ok", result))
        except Exception as exc:  # pickling the result failed
            conn.send(("err",
                       f"cell result is not picklable: {exc!r}; run it "
                       f"in-process (workers=0)"))
    except BaseException:  # noqa: BLE001 - the whole point is isolation
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _mp_context() -> mp.context.BaseContext:
    # fork is markedly cheaper per cell and available everywhere we run CI;
    # fall back to the platform default (spawn) elsewhere.
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _run_cell_inline(cell: Cell) -> CellOutcome:
    t0 = time.perf_counter()
    try:
        run = cell.run if cell.run is not None else run_cluster
        result = run(cell.config)
        return CellOutcome(cell.key, True, result, None,
                           time.perf_counter() - t0)
    except Exception:
        return CellOutcome(cell.key, False, None, traceback.format_exc(),
                           time.perf_counter() - t0)


def run_cells(cells: Sequence[Cell], workers: int = 1,
              progress: Callable[[int, int, CellOutcome], None] | None = None,
              ) -> list[CellOutcome]:
    """Run every cell; return outcomes aligned with the input order.

    ``workers >= 1`` runs each cell in its own crash-isolated process with
    at most ``workers`` alive at once.  ``workers == 0`` runs inline in
    this process (no isolation — for tests and debugging).  ``progress``,
    if given, is called after each completion with
    ``(done_count, total, outcome)``; completions arrive in completion
    order but the returned list is always in grid order.
    """
    total = len(cells)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers == 0:
        outcomes = []
        for i, cell in enumerate(cells):
            out = _run_cell_inline(cell)
            outcomes.append(out)
            if progress is not None:
                progress(i + 1, total, out)
        return outcomes

    ctx = _mp_context()
    results: dict[int, CellOutcome] = {}
    pending = list(enumerate(cells))  # grid order; popped front-first
    pending.reverse()
    active: dict[Any, tuple[int, Cell, Any, float]] = {}  # conn -> state
    done = 0

    def _launch() -> None:
        idx, cell = pending.pop()
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_cell_worker, args=(writer, cell),
                           name=f"exp-cell-{cell.label}")
        proc.start()
        writer.close()  # parent keeps only the read end
        active[reader] = (idx, cell, proc, time.perf_counter())

    try:
        while pending or active:
            while pending and len(active) < workers:
                _launch()
            # Readable means either a message or EOF (worker died): waiting
            # on the connection, not the process sentinel, so a worker
            # blocked sending a large result is drained rather than
            # deadlocked against its own pipe buffer.
            for reader in conn_wait(list(active)):
                idx, cell, proc, t0 = active.pop(reader)
                wall = time.perf_counter() - t0
                msg = None
                try:
                    if reader.poll():
                        msg = reader.recv()
                except EOFError:
                    msg = None
                finally:
                    reader.close()
                proc.join()
                if msg is None:
                    out = CellOutcome(
                        cell.key, False, None,
                        f"worker died without a result "
                        f"(exitcode {proc.exitcode})", wall)
                elif msg[0] == "ok":
                    out = CellOutcome(cell.key, True, msg[1], None, wall)
                else:
                    out = CellOutcome(cell.key, False, None, msg[1], wall)
                results[idx] = out
                done += 1
                if progress is not None:
                    progress(done, total, out)
    finally:
        for idx, cell, proc, _t0 in active.values():
            if proc.is_alive():
                proc.terminate()
            proc.join()
    # Deterministic merge: grid order, not completion order.
    return [results[i] for i in range(total)]


def print_progress(done: int, total: int, outcome: CellOutcome) -> None:
    """Default progress reporter: one stderr line per completed cell."""
    status = "ok" if outcome.ok else "FAILED"
    print(f"[repro.exp] {done}/{total} {outcome.label}: {status} "
          f"({outcome.wall_s:.1f}s)", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Figure sweeps through the pool (record / replay)
# ---------------------------------------------------------------------------

def _placeholder(config: ClusterConfig) -> ClusterResult:
    """Inert result handed to figure code during the recording pass."""
    return ClusterResult(
        config=config, throughput=0.0, commit_rate=0.0, committed=0,
        aborted=0, history=None, state_samples=[], completions=[],
        messages_sent=0, server_stats=[])


def run_figures(figure_fn: Callable[..., Any], seeds: Sequence[int],
                workers: int,
                obs: Any = None,
                progress: Callable[[int, int, CellOutcome], None] | None
                = None,
                ) -> tuple[Any, list[CellOutcome]]:
    """Run one figure function's whole sweep through the worker pool.

    Returns ``(figure_result, outcomes)`` where ``figure_result`` is
    exactly what ``figure_fn(seeds, obs=obs)`` returns when run serially —
    the record/replay passes feed it the same results in the same order —
    and ``outcomes`` carries per-cell timings.

    Raises :class:`HarnessCellError` if a cell the figure needs failed;
    the error message carries the worker's traceback.
    """
    from ..bench.figures import use_runner
    from ..bench.reporting import RunObservations

    recorded: list[ClusterConfig] = []

    def record(config: ClusterConfig) -> ClusterResult:
        recorded.append(config)
        return _placeholder(config)

    # Pass 1: enumerate the grid.  A throwaway RunObservations mirrors the
    # real one so the figure requests the same (traced) configs.
    with use_runner(record):
        figure_fn(seeds, obs=RunObservations() if obs is not None else None)

    cells = [Cell(key=("figure", i), config=cfg)
             for i, cfg in enumerate(recorded)]
    outcomes = run_cells(cells, workers=workers, progress=progress)

    # Pass 2: replay pooled results into the figure code, in request order.
    replay_idx = iter(range(len(recorded)))

    def replay(config: ClusterConfig) -> ClusterResult:
        i = next(replay_idx)
        if recorded[i] != config:
            raise HarnessCellError(
                f"record/replay mismatch at cell {i}: figure function is "
                f"not deterministic in its config sequence")
        out = outcomes[i]
        if out.result is None:
            raise HarnessCellError(
                f"cell {out.key} failed in a worker:\n{out.error}")
        return out.result

    with use_runner(replay):
        figure_result = figure_fn(seeds, obs=obs)
    return figure_result, outcomes
