"""Golden simulated output: one small figure grid, pinned to a digest.

Every other determinism check compares two runs of the *same* code, so a
change that alters simulated behaviour deterministically passes them all.
This one compares against values recorded at a known-good commit: 4 cells
(mvto, 2pl, mvtil-early, mvtil-late at 30 clients), independent of
``PYTHONHASHSEED``.

The digest covers every payload field but ``sim_events``, which is pinned
per cell beside it: it counts heap pops, so an event-heap change may move
it while every simulated outcome stays put.
"""

from __future__ import annotations

import hashlib
import json

from repro.exp.grid import derive_seeds, figure_grid
from repro.exp.harness import merged_payload, run_cells

GOLDEN_SHA256 = (
    "d7688b32c7163cbccb3bb6d941e371a69b595dd8c4691180e5fcb6e4da6d31a1")

#: ``sim_events`` per cell, in grid order (protocol, clients, seed).
SIM_EVENTS = {
    ("mvto", 30, 479243620): 240930,
    ("2pl", 30, 479243620): 226417,
    ("mvtil-early", 30, 479243620): 243330,
    ("mvtil-late", 30, 479243620): 244015,
}


def test_merged_payload_matches_the_pinned_digest():
    cells = figure_grid(clients=(30,), seeds=derive_seeds(2026, 1),
                        measure=0.5)
    doc = json.loads(merged_payload(run_cells(cells, workers=0)))
    sim_events = {tuple(cell["key"]): cell.pop("sim_events") for cell in doc}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_SHA256, (
        "the simulated outcome of the golden grid changed.  A refactor or "
        "optimisation must not move it: find what altered protocol "
        "behaviour.  Re-pin GOLDEN_SHA256 only for a deliberate protocol "
        "change, and say so in CHANGES.md.")
    assert sim_events == SIM_EVENTS
