"""Counters, gauges and histograms for the observability layer.

Zero-dependency metric primitives plus :func:`fold_trace`, which turns a
recorded event stream into the metrics the paper's evaluation reasons
about: the abort-reason taxonomy, lock-wait time, MVTIL interval-shrink
magnitude, per-key conflict hotness, and (when the cluster samples them)
server queue depths.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping, Sequence

from .trace import EventKind, TraceEvent

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "fold_trace",
           "merge_conflict_counts", "merge_overload_counters",
           "merge_scenario_counters", "merge_stripe_counts"]


class Counter:
    """A labelled monotonic counter (label ``None`` = the default series)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[Hashable, float] = {}

    def inc(self, label: Hashable = None, n: float = 1) -> None:
        self._counts[label] = self._counts.get(label, 0) + n

    def get(self, label: Hashable = None) -> float:
        return self._counts.get(label, 0)

    @property
    def total(self) -> float:
        return sum(self._counts.values())

    def as_dict(self) -> dict:
        return {str(k): v for k, v in sorted(
            self._counts.items(), key=lambda kv: (-kv[1], str(kv[0])))}

    def top(self, n: int) -> list[tuple[Hashable, float]]:
        """The ``n`` largest labels, descending (ties broken by label)."""
        return sorted(self._counts.items(),
                      key=lambda kv: (-kv[1], str(kv[0])))[:n]

    def __len__(self) -> int:
        return len(self._counts)


class Gauge:
    """A last-value metric with min/max tracking."""

    __slots__ = ("value", "min", "max", "samples")

    def __init__(self) -> None:
        self.value: float | None = None
        self.min: float | None = None
        self.max: float | None = None
        self.samples = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def as_dict(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max,
                "samples": self.samples}


class Histogram:
    """An exact-sample histogram with percentile queries.

    Keeps raw observations (runs here are bounded, exactness beats bucket
    tuning); summaries report count/sum/mean/min/max and any percentiles.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.sum / len(self._values) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) by nearest-rank on the raw samples."""
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        idx = min(len(self._values) - 1,
                  int(round(q / 100.0 * (len(self._values) - 1))))
        return self._values[idx]

    def as_dict(self, percentiles: Iterable[float] = (50, 95, 99)) -> dict:
        if not self._values:
            return {"count": 0}
        out: dict[str, Any] = {
            "count": self.count, "sum": self.sum, "mean": self.mean,
            "min": min(self._values), "max": max(self._values),
        }
        for q in percentiles:
            out[f"p{q:g}"] = self.percentile(q)
        return out


class MetricsRegistry:
    """A named collection of metrics, created on first use.

    One registry per run; ``as_dict()`` is the JSON sidecar payload.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def as_dict(self) -> dict:
        return {
            "counters": {k: v.as_dict()
                         for k, v in sorted(self._counters.items())},
            "gauges": {k: v.as_dict()
                       for k, v in sorted(self._gauges.items())},
            "histograms": {k: v.as_dict()
                           for k, v in sorted(self._histograms.items())},
        }


def fold_trace(events: Iterable[TraceEvent],
               registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Fold a trace into the standard metric set.

    Populates (creating ``registry`` if needed):

    * ``tx.commits`` / ``tx.aborts`` counters, aborts labelled by reason;
    * ``abort.reasons`` — the taxonomy breakdown;
    * ``lock.wait_time`` histogram — seconds spent waiting for locks;
    * ``interval.shrink`` histogram — per-acquisition interval loss
      (MVTIL's requested-minus-granted width, §8's shrink-don't-wait);
    * ``key.conflicts`` counter — per-key count of contended accesses
      (acquisitions that lost width, waits, and conflicts reported by the
      lock table);
    * ``key.wait_time`` counter — per-key seconds of lock waiting.
    """
    reg = registry if registry is not None else MetricsRegistry()
    commits = reg.counter("tx.commits")
    aborts = reg.counter("tx.aborts")
    reasons = reg.counter("abort.reasons")
    wait_hist = reg.histogram("lock.wait_time")
    shrink_hist = reg.histogram("interval.shrink")
    key_conflicts = reg.counter("key.conflicts")
    key_wait = reg.counter("key.wait_time")
    for event in events:
        kind = event.kind
        if kind == EventKind.COMMIT:
            commits.inc()
        elif kind == EventKind.ABORT:
            aborts.inc()
            reasons.inc(event.reason if event.reason is not None
                        else "unknown")
        elif kind == EventKind.WAIT:
            if event.dur is not None:
                wait_hist.observe(event.dur)
                if event.key is not None:
                    key_wait.inc(event.key, event.dur)
            if event.key is not None:
                key_conflicts.inc(event.key)
        elif kind == EventKind.LOCK_ACQUIRE:
            shrink = event.data.get("shrink")
            if shrink is not None:
                shrink_hist.observe(shrink)
            contended = ((shrink is not None and shrink > 0)
                         or event.data.get("conflicts"))
            if contended and event.key is not None:
                key_conflicts.inc(event.key)
    return reg


def merge_conflict_counts(registry: MetricsRegistry,
                          counts: Mapping[Hashable, int]) -> None:
    """Merge a lock table's per-key conflict counters into the registry."""
    key_conflicts = registry.counter("key.conflicts")
    for key, n in counts.items():
        key_conflicts.inc(key, n)


def merge_overload_counters(registry: MetricsRegistry,
                            servers: Iterable[Any]) -> None:
    """Merge the servers' overload counters into the registry.

    Folds each server's shed (bounded-queue rejections) and expired
    (deadline-passed drops) counts into ``server.shed`` / ``server.expired``
    counters labelled by server id — per-server attribution shows whether
    overload is cluster-wide or a hot partition.  Zero counts are skipped
    (absent labels read back as 0).
    """
    shed = registry.counter("server.shed")
    expired = registry.counter("server.expired")
    for server in servers:
        n = server.stats.get("shed", 0)
        if n:
            shed.inc(server.server_id, n)
        n = server.stats.get("expired", 0)
        if n:
            expired.inc(server.server_id, n)


def merge_stripe_counts(registry: MetricsRegistry,
                        contention: Mapping[str, Sequence[int]]) -> None:
    """Merge an engine's per-stripe contention counters into the registry.

    ``contention`` is :meth:`repro.core.engine.MVTLEngine.stripe_contention`'s
    payload: ``{"waits": (...), "conflicts": (...)}``, one entry per stripe.
    Folds into ``stripe.waits`` / ``stripe.conflicts`` counters labelled by
    stripe index (zero stripes are skipped — an absent label reads back as
    0, and hot-stripe reports stay uncluttered).
    """
    waits = registry.counter("stripe.waits")
    conflicts = registry.counter("stripe.conflicts")
    for idx, n in enumerate(contention.get("waits", ())):
        if n:
            waits.inc(idx, n)
    for idx, n in enumerate(contention.get("conflicts", ())):
        if n:
            conflicts.inc(idx, n)


def merge_scenario_counters(registry: MetricsRegistry,
                            scenario_report: Mapping[str, Any]) -> None:
    """Merge a scenario run's generator counters into the registry.

    One counter per scenario, named ``scenario.<name>`` and labelled by
    event kind (transfers / audits / scans / burst_txs / ...), so a
    metrics dump pins the generated mix alongside the protocol metrics.
    Zero counts are skipped (absent labels read back as 0).
    """
    name = scenario_report.get("scenario", "unknown")
    counter = registry.counter(f"scenario.{name}")
    for kind, n in scenario_report.get("counters", {}).items():
        if n:
            counter.inc(kind, n)
