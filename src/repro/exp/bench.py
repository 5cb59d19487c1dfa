"""Machine-readable perf records: ``BENCH_<n>.json``.

Every harness run can be persisted as a BENCH document — schema-versioned
JSON with host metadata and per-cell timings — committed to the repo as a
perf trajectory across PRs.  The schema is validated by hand
(:func:`validate_bench`) so CI needs no extra dependencies.

Schema (version 1)::

    {
      "schema_version": 1,
      "bench": "BENCH_5",
      "created_unix": 1754500000.0,
      "host": {"platform": ..., "python": ..., "machine": ...,
               "cpu_count": ...},
      "workers": 2,
      "cells": [
        {"key": [...], "ok": true, "error": null,
         "wall_s": ..., "sim_events": ..., "events_per_s": ...,
         "committed": ..., "commits_per_s": ...,
         "throughput": ..., "commit_rate": ...},
        ...
      ],
      "totals": {"cells": n, "failed": m, "wall_s": ...,
                 "sim_events": ..., "events_per_s": ...},
      "hot_path": {...} | null,       # single-process reference cell
      "parallel": {...} | null        # serial-vs-parallel wall comparison
    }
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from .harness import CellOutcome

__all__ = ["SCHEMA_VERSION", "make_bench_doc", "validate_bench",
           "write_bench"]

SCHEMA_VERSION = 1


def _host_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _cell_entry(out: CellOutcome) -> dict:
    entry: dict[str, Any] = {
        "key": list(out.key),
        "ok": out.ok,
        "error": out.error,
        "wall_s": round(out.wall_s, 4),
        "sim_events": out.sim_events,
        "events_per_s": round(out.events_per_s, 1),
    }
    if out.result is not None:
        entry.update(
            committed=out.result.committed,
            commits_per_s=round(out.commits_per_s, 1),
            throughput=out.result.throughput,
            commit_rate=out.result.commit_rate,
        )
    return entry


def make_bench_doc(name: str, outcomes: Sequence[CellOutcome],
                   workers: int,
                   hot_path: dict | None = None,
                   parallel: dict | None = None) -> dict:
    """Assemble a schema-version-1 BENCH document from harness outcomes."""
    total_wall = sum(out.wall_s for out in outcomes)
    total_events = sum(out.sim_events for out in outcomes)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "created_unix": round(time.time(), 3),
        "host": _host_metadata(),
        "workers": workers,
        "cells": [_cell_entry(out) for out in outcomes],
        "totals": {
            "cells": len(outcomes),
            "failed": sum(1 for out in outcomes if not out.ok),
            "wall_s": round(total_wall, 3),
            "sim_events": total_events,
            "events_per_s": (round(total_events / total_wall, 1)
                             if total_wall > 0 else 0.0),
        },
        "hot_path": hot_path,
        "parallel": parallel,
    }
    validate_bench(doc)
    return doc


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(f"invalid BENCH document: {msg}")


def validate_bench(doc: Any) -> None:
    """Validate a BENCH document against schema version 1.

    Raises ``ValueError`` with a pinpointed message on the first violation.
    """
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}")
    _expect(isinstance(doc.get("bench"), str) and doc["bench"],
            "bench must be a non-empty string")
    _expect(isinstance(doc.get("created_unix"), (int, float)),
            "created_unix must be a number")
    host = doc.get("host")
    _expect(isinstance(host, dict), "host must be an object")
    for field in ("platform", "python", "machine"):
        _expect(isinstance(host.get(field), str),
                f"host.{field} must be a string")
    _expect(isinstance(doc.get("workers"), int) and doc["workers"] >= 0,
            "workers must be a non-negative integer")
    cells = doc.get("cells")
    _expect(isinstance(cells, list) and cells, "cells must be a non-empty list")
    for i, cell in enumerate(cells):
        _expect(isinstance(cell, dict), f"cells[{i}] must be an object")
        _expect(isinstance(cell.get("key"), list) and cell["key"],
                f"cells[{i}].key must be a non-empty list")
        _expect(isinstance(cell.get("ok"), bool),
                f"cells[{i}].ok must be a boolean")
        for field in ("wall_s", "events_per_s"):
            _expect(isinstance(cell.get(field), (int, float)),
                    f"cells[{i}].{field} must be a number")
        _expect(isinstance(cell.get("sim_events"), int),
                f"cells[{i}].sim_events must be an integer")
        if cell["ok"]:
            _expect(cell.get("error") is None,
                    f"cells[{i}] ok but error is set")
            for field in ("committed", "commits_per_s", "throughput",
                          "commit_rate"):
                _expect(isinstance(cell.get(field), (int, float)),
                        f"cells[{i}].{field} must be a number")
        else:
            _expect(isinstance(cell.get("error"), str),
                    f"cells[{i}] failed but carries no error")
    totals = doc.get("totals")
    _expect(isinstance(totals, dict), "totals must be an object")
    _expect(totals.get("cells") == len(cells),
            "totals.cells must match len(cells)")
    _expect(totals.get("failed")
            == sum(1 for c in cells if not c["ok"]),
            "totals.failed must match the failed cell count")
    for field in ("wall_s", "sim_events", "events_per_s"):
        _expect(isinstance(totals.get(field), (int, float)),
                f"totals.{field} must be a number")
    for section in ("hot_path", "parallel"):
        val = doc.get(section)
        _expect(val is None or isinstance(val, dict),
                f"{section} must be an object or null")


def write_bench(doc: dict, path: str | Path) -> Path:
    """Validate and persist a BENCH document."""
    validate_bench(doc)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
