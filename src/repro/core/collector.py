"""Background garbage collection for the centralized engine.

Algorithm 1 makes commit-time GC optional: "If the algorithm skips garbage
collection on commit, garbage collection can be invoked any time later in
the background."  :class:`BackgroundCollector` is that later-in-the-
background path for policies that skip eager collection (MVTL-TO keeps its
locks; MVTL-Pref too): it tracks transactions as they finish and collects
them after a grace period, plus purges old versions — the centralized
analogue of the distributed timestamp service (§6, §8.1).

Note the semantic consequence the paper studies: collecting *aborted*
transactions' locks promptly is exactly what distinguishes MVTL-Ghostbuster
from MVTL-TO, so a collector with ``collect_aborted=True`` turns TO's ghost
aborts off — the knob is exposed for experiments.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .timestamp import Timestamp
from .transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from .engine import MVTLEngine

__all__ = ["BackgroundCollector"]


class BackgroundCollector:
    """Deferred lock GC + version purging for an :class:`MVTLEngine`.

    Use either programmatically (:meth:`collect_now`) or as a daemon thread
    (:meth:`start` / :meth:`stop`).  A transaction the engine already
    collected — at commit (``commit-gc``) or at an abort the policy
    collects — is skipped: Algorithm 1 runs ``gc`` once per transaction.

    Parameters
    ----------
    engine:
        The engine to collect.
    grace:
        Seconds a finished transaction's locks are left in place before
        collection (so late readers of its effects are undisturbed).
    collect_aborted:
        Whether aborted transactions are collected too.  True removes
        ghost aborts (§5.5); False preserves MVTO+-faithful behaviour.
    purge_horizon:
        If set, versions older than ``now - purge_horizon`` (by commit
        timestamp value) are purged on every sweep (§6).
    """

    def __init__(self, engine: "MVTLEngine", *, grace: float = 0.0,
                 collect_aborted: bool = True,
                 purge_horizon: float | None = None) -> None:
        self.engine = engine
        self.grace = grace
        self.collect_aborted = collect_aborted
        self.purge_horizon = purge_horizon
        self._lock = threading.Lock()
        self._finished: list[tuple[float, Transaction]] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.stats = {"collected": 0, "purged_versions": 0}

    # -- registration -----------------------------------------------------------

    def note_finished(self, tx: Transaction) -> None:
        """Tell the collector that ``tx`` ended (commit or abort); a
        transaction the engine already collected is not queued."""
        if tx.is_active:
            raise ValueError("transaction is still active")
        if tx.collected:
            return
        with self._lock:
            self._finished.append((time.monotonic(), tx))

    # -- collection ---------------------------------------------------------------

    def collect_now(self, now: float | None = None) -> int:
        """Collect every finished transaction past the grace period.

        Returns the number of transactions collected.
        """
        now = time.monotonic() if now is None else now
        ready: list[Transaction] = []
        with self._lock:
            keep: list[tuple[float, Transaction]] = []
            for when, tx in self._finished:
                if now - when < self.grace:
                    keep.append((when, tx))
                elif tx.aborted and not self.collect_aborted:
                    pass  # drop from tracking, never collect
                else:
                    ready.append(tx)
            self._finished = keep
        for tx in ready:
            self.engine.gc(tx)
        self.stats["collected"] += len(ready)
        if self.purge_horizon is not None:
            bound_value = self.engine.clock.now() - self.purge_horizon
            # Route through the engine: whole-store purging must hold every
            # stripe so it cannot race concurrent commit-time installs.
            purged = self.engine.purge_versions_before(
                Timestamp(bound_value, -(2**31)))
            self.stats["purged_versions"] += purged
        return len(ready)

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._finished)

    # -- daemon mode ---------------------------------------------------------------

    def start(self, period: float = 1.0) -> None:
        """Run :meth:`collect_now` every ``period`` seconds in a daemon
        thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("collector already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(period):
                self.collect_now()

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="mvtl-collector")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
