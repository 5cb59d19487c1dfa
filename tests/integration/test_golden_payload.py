"""Golden simulated output: one small figure grid, pinned to a digest.

Every other determinism check compares two runs of the *same* code, so a
change that alters simulated behaviour deterministically passes them all.
This one compares against a value recorded at a known-good commit: 4 cells
(mvto, 2pl, mvtil-early, mvtil-late at 30 clients), 852 payload bytes,
independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

from repro.exp.grid import derive_seeds, figure_grid
from repro.exp.harness import merged_payload, run_cells

GOLDEN_SHA256 = (
    "91ea7d06d24dd6534c51a55f0cc9dad155e1359551c7f5c2fc9a38e62ce258d1")


def test_merged_payload_matches_the_pinned_digest():
    cells = figure_grid(clients=(30,), seeds=derive_seeds(2026, 1),
                        measure=0.5)
    payload = merged_payload(run_cells(cells, workers=0))
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_SHA256, (
        "the simulated outcome of the golden grid changed.  A refactor or "
        "optimisation must not move it: find what altered protocol "
        "behaviour.  Re-pin GOLDEN_SHA256 only for a deliberate protocol "
        "change, and say so in CHANGES.md.")
