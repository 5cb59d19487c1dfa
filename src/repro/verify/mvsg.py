"""Multiversion serialization graph (MVSG) checking — Appendix A as code.

Given the committed projection of a recorded history, build the MVSG of
Bernstein/Hadzilacos/Goodman: vertices are committed transactions (plus a
virtual initial transaction ``T0`` that wrote every key's BOTTOM version at
``TS_ZERO``); for the version order ``<<`` induced by commit timestamps,

1. ``Ti -> Tj``   if ``Tj`` reads a version written by ``Ti``;
2. for every read ``rk[xj]`` and write ``wi[xi]`` of the same key
   (``i != j``, ``i != k``):
   if ``xi << xj`` add ``Ti -> Tj``, else add ``Tk -> Ti``.

The history is one-copy (multiversion view) serializable iff the MVSG is
acyclic [5].  This module turns that theorem into the library's test oracle:
:func:`check_serializable` returns a report that either certifies the run or
exhibits a concrete cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from ..core.timestamp import TS_ZERO, Timestamp
from .history import HistoryRecorder, TxRecord

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["SerializabilityReport", "build_mvsg", "check_serializable"]

#: Name of the virtual transaction that wrote every initial BOTTOM version.
T_INIT = "__init__tx__"


@dataclass(frozen=True)
class SerializabilityReport:
    """Outcome of an MVSG check."""

    serializable: bool
    num_committed: int
    num_edges: int
    cycle: tuple[Hashable, ...] | None = None
    error: str | None = None

    def __bool__(self) -> bool:
        return self.serializable


def build_mvsg(records: list[TxRecord]) -> nx.DiGraph:
    """Construct the MVSG of the committed transactions in ``records``.

    Raises ValueError on malformed histories (a read of a version nobody
    wrote, or duplicate commit timestamps for writers of the same key) —
    these indicate an engine bug more fundamental than a serializability
    violation.
    """
    # networkx loads on the first MVSG build, not with ``repro``: this is
    # the offline oracle, and the simulated run path never calls it.
    import networkx as nx

    committed = [r for r in records if r.committed]
    graph = nx.DiGraph()
    graph.add_node(T_INIT)
    for rec in committed:
        graph.add_node(rec.tx_id)

    # Writer index: (key, version_ts) -> tx_id, and per-key version lists.
    writer: dict[tuple[Hashable, Timestamp], Hashable] = {}
    versions_of: dict[Hashable, list[tuple[Timestamp, Hashable]]] = {}
    for rec in committed:
        assert rec.commit_ts is not None
        for key in rec.writes:
            slot = (key, rec.commit_ts)
            if slot in writer:
                raise ValueError(
                    f"two committed writers of {key!r} share commit "
                    f"timestamp {rec.commit_ts!r}")
            writer[slot] = rec.tx_id
            versions_of.setdefault(key, []).append((rec.commit_ts, rec.tx_id))
    # The virtual initial version of every key ever touched.
    all_keys: set[Hashable] = set(versions_of)
    for rec in committed:
        for key, _ts in rec.reads:
            all_keys.add(key)
    for key in all_keys:
        versions_of.setdefault(key, []).insert(0, (TS_ZERO, T_INIT))
        versions_of[key].sort(key=lambda vt: vt[0])
        writer[(key, TS_ZERO)] = T_INIT

    # Reads-from edges (type 1) and read-write precedence edges (type 2).
    for rec in committed:
        for key, version_ts in rec.reads:
            src = writer.get((key, version_ts))
            if src is None:
                raise ValueError(
                    f"{rec.tx_id!r} read {key!r}@{version_ts!r}, "
                    f"which no committed transaction wrote")
            if src != rec.tx_id:
                graph.add_edge(src, rec.tx_id, kind="reads-from", key=key)
            # Type 2: relate this read to every other committed write of key.
            for other_ts, other_tx in versions_of[key]:
                if other_tx in (src, rec.tx_id):
                    continue
                if other_ts < version_ts:
                    graph.add_edge(other_tx, src, kind="ww-order", key=key)
                else:
                    graph.add_edge(rec.tx_id, other_tx, kind="rw-order",
                                   key=key)
    return graph


def check_serializable(
        history: HistoryRecorder | list[TxRecord]) -> SerializabilityReport:
    """Check a recorded execution for one-copy serializability.

    Accepts a recorder or a raw record list.  Returns a report; when the
    history is not serializable the report carries one offending cycle.
    """
    import networkx as nx

    records = (history.records() if isinstance(history, HistoryRecorder)
               else list(history))
    try:
        graph = build_mvsg(records)
    except ValueError as exc:
        return SerializabilityReport(False, 0, 0, error=str(exc))
    committed = sum(1 for r in records if r.committed)
    try:
        cycle_edges = nx.find_cycle(graph, orientation="original")
    except nx.NetworkXNoCycle:
        return SerializabilityReport(True, committed,
                                     graph.number_of_edges())
    cycle_nodes = tuple(edge[0] for edge in cycle_edges)
    return SerializabilityReport(False, committed, graph.number_of_edges(),
                                 cycle=cycle_nodes)
