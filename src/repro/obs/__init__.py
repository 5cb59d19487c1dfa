"""repro.obs — structured tracing, metrics and contention profiling.

A zero-dependency observability layer shared by the threaded engine and
the discrete-event distributed substrate:

* :mod:`repro.obs.trace` — :class:`Tracer` / :data:`NULL_TRACER`
  structured per-transaction span events;
* :mod:`repro.obs.metrics` — counters / gauges / histograms and
  :func:`fold_trace`;
* :mod:`repro.obs.profile` — :class:`ContentionProfile`, per-key and
  per-phase attribution with a human-readable report;
* :mod:`repro.obs.export` — JSONL traces and JSON metric sidecars;
* ``python -m repro.obs report <trace.jsonl>`` — the contention report
  CLI.

Attach a tracer with ``ClusterConfig(trace=True)`` (DES) or
``MVTLEngine(policy, tracer=Tracer())`` (threaded); with no tracer
attached every hook is a single attribute check on :data:`NULL_TRACER`.
"""

from .. import _lazy_exports

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "TraceEvent", "EventKind",
    "span_width",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "fold_trace",
    "merge_conflict_counts", "merge_overload_counters",
    "merge_stripe_counts",
    "ContentionProfile", "KeyStats", "StripeSignals", "profile_report",
    "write_trace_jsonl", "read_trace_jsonl", "write_metrics_json",
    "read_metrics_json", "metrics_sidecar_path", "trace_sidecar_path",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".export": ("metrics_sidecar_path", "read_metrics_json",
                "read_trace_jsonl", "trace_sidecar_path", "write_metrics_json",
                "write_trace_jsonl"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "fold_trace", "merge_conflict_counts",
                 "merge_overload_counters", "merge_stripe_counts"),
    ".profile": ("ContentionProfile", "KeyStats", "StripeSignals",
                 "profile_report"),
    ".trace": ("NULL_TRACER", "EventKind", "NullTracer", "TraceEvent",
               "Tracer", "span_width"),
})
