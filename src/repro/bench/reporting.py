"""Rendering and persisting figure results.

Each figure row of :mod:`repro.bench.figures` makes
:class:`FigureResult`\\ s; this module renders one as the ASCII analogue of
the paper's plot (one row per x value, one column pair per protocol) and
can persist the raw numbers as JSON for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from ..obs.export import (event_to_dict, metrics_sidecar_path,
                          trace_sidecar_path, write_metrics_json)

__all__ = ["FigurePoint", "FigureResult", "format_figure", "save_figure",
           "RunObservations", "save_observability"]


@dataclass(frozen=True)
class FigurePoint:
    """One (x, protocol) measurement."""

    x: float
    protocol: str
    throughput: float
    commit_rate: float
    extra: dict = field(default_factory=dict)


@dataclass
class FigureResult:
    """All measurements for one paper figure."""

    figure: str
    title: str
    x_label: str
    points: list[FigurePoint]
    notes: str = ""

    def protocols(self) -> list[str]:
        seen: dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.protocol, None)
        return list(seen)

    def xs(self) -> list[float]:
        seen: dict[float, None] = {}
        for p in self.points:
            seen.setdefault(p.x, None)
        return sorted(seen)

    def series(self, protocol: str) -> list[FigurePoint]:
        return sorted((p for p in self.points if p.protocol == protocol),
                      key=lambda p: p.x)

    def at(self, x: float, protocol: str) -> FigurePoint | None:
        for p in self.points:
            if p.x == x and p.protocol == protocol:
                return p
        return None


def format_figure(result: FigureResult,
                  metric: str = "both") -> str:
    """Render the figure as an ASCII table (rows = x, columns = protocols)."""
    protocols = result.protocols()
    lines = [f"== {result.figure}: {result.title} =="]
    if result.notes:
        lines.append(f"   ({result.notes})")
    header = [f"{result.x_label:>14s}"]
    for proto in protocols:
        if metric in ("both", "throughput"):
            header.append(f"{proto + ' thr':>16s}")
        if metric in ("both", "commit_rate"):
            header.append(f"{proto + ' cr':>14s}")
    lines.append(" ".join(header))
    for x in result.xs():
        row = [f"{x:>14g}"]
        for proto in protocols:
            point = result.at(x, proto)
            if metric in ("both", "throughput"):
                row.append(f"{point.throughput:>16.1f}" if point
                           else f"{'-':>16s}")
            if metric in ("both", "commit_rate"):
                row.append(f"{point.commit_rate:>14.3f}" if point
                           else f"{'-':>14s}")
        lines.append(" ".join(row))
    mpc_parts = []
    for proto in protocols:
        vals = [p.extra["messages_per_commit"] for p in result.series(proto)
                if "messages_per_commit" in p.extra]
        if vals:
            mpc_parts.append(f"{proto}={sum(vals) / len(vals):.1f}")
    if mpc_parts:
        lines.append("   msgs/commit (mean): " + "  ".join(mpc_parts))
    return "\n".join(lines)


def save_figure(result: FigureResult, directory: str | Path) -> Path:
    """Persist raw figure data as JSON; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.figure}.json"
    payload: dict[str, Any] = {
        "figure": result.figure,
        "title": result.title,
        "x_label": result.x_label,
        "notes": result.notes,
        "points": [asdict(p) for p in result.points],
    }
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


class RunObservations:
    """Traces and metrics collected across one figure row's cluster runs.

    The recipe driver appends each traced :class:`~repro.dist.cluster.
    ClusterResult`; :func:`save_observability` then writes one combined
    JSONL trace and one metrics sidecar next to the figure's results JSON.
    """

    def __init__(self) -> None:
        self.runs: list[tuple[str, Any]] = []

    def add(self, result: Any) -> str:
        """Record one traced run; returns its label within the sidecars."""
        label = (f"run{len(self.runs)}:{result.config.protocol}"
                 f"/seed={result.config.seed}")
        self.runs.append((label, result))
        return label

    @property
    def empty(self) -> bool:
        return not self.runs


def save_observability(obs: RunObservations,
                       results_json: str | Path) -> tuple[Path, Path]:
    """Write ``<figure>.trace.jsonl`` and ``<figure>.metrics.json``.

    Transaction ids are namespaced by run label (different runs reuse the
    same client ids), so the combined trace still satisfies the one-
    terminal-event-per-transaction invariant and the contention report can
    fold it directly.
    """
    results_json = Path(results_json)
    trace_path = trace_sidecar_path(results_json)
    with trace_path.open("w") as fh:
        for label, res in obs.runs:
            for ev in (res.trace or ()):
                tx = ((label,) + ev.tx if isinstance(ev.tx, tuple)
                      else (label, ev.tx))
                fh.write(json.dumps(event_to_dict(replace(ev, tx=tx),
                                                  run=label),
                                    separators=(",", ":")))
                fh.write("\n")
    metrics_path = write_metrics_json(
        {"runs": {label: res.metrics for label, res in obs.runs}},
        metrics_sidecar_path(results_json))
    return trace_path, metrics_path
