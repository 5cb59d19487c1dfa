"""The benchmark's vocabulary: workloads, metrics, units, bounds, layers.

Everything here is a literal table.  ``run.py`` measures what these tables
name, ``compare.py`` judges with their bounds, ``BENCHMARK.json`` restates
them for the driver (``tests/test_perflab.py`` keeps the two in step), and
``README.md`` explains them.  Nothing in this file imports ``repro``.
"""

from __future__ import annotations

from typing import NamedTuple

#: Samples behind one driver-mode result (``--workload``): each is a fresh
#: subprocess with its own seed derived from ``--seed``, the reported value
#: is their median.  Five short samples beat three long ones here: what the
#: speed correction leaves is independent from sample to sample.
DRIVER_REPEATS = 5
#: ``BENCHMARK.json`` ``run_seconds``: at scale 1.0 the workloads are sized
#: so that the DRIVER_REPEATS timed regions together take about this long on
#: the reference 2-vCPU host.  ``--seconds`` scales the *work* (simulated
#: seconds, transactions) linearly against it, never the clock, so the same
#: ``--seconds`` is the same work on every commit.
RUN_SECONDS = 8
#: The full protocol (no ``--workload``): this many same-seed repetitions
#: per workload, each at FULL_SCALE times the driver's work so every run
#: commits >= 1.2k transactions and p99 has > 10 samples beyond it.
FULL_REPEATS = 5
FULL_SCALE = 2.0
#: ``--quick``: one repetition at a quarter of the full length, smoke only.
QUICK_SCALE = FULL_SCALE / 4
#: The correctness gate's recorded runs use this fraction of the work.
CHECK_SCALE = 0.3
#: 1-minute load average above which a result is stamped ``noisy``.
NOISY_LOADAVG = 1.0

#: name -> why it is here (one line; README.md has the paragraph).
WORKLOADS: dict[str, str] = {
    "mvtil-hotpath":
        "uncontended read-mostly MVTIL: wall time is protocol plumbing "
        "(dist+sim), kernels ~5%; where hot-path work must show",
    "mvtil-contended":
        "same code on 200 hot keys, 70% writes: lock table and interval "
        "kernels dominate; exposes gains bought with extra aborts",
    "mvto-grid":
        "the paper's MVTO+ comparator on the shared server: MVTIL-client "
        "changes predict no change, server changes must not slow it",
    "selfheal-chaos":
        "replication 3 + WAL + lossy links + leader crash + follower "
        "restart: the only workload where repl, retries and failover run",
    "engine-threads":
        "threaded centralized engine, no simulator or network: every "
        "sim/dist optimisation predicts no change; lock-table work shows",
}

CLUSTER_WORKLOADS = ("mvtil-hotpath", "mvtil-contended", "mvto-grid",
                     "selfheal-chaos")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str       # "lower" | "higher"
    bound: float      # relative worsening that counts as a regression
    clock: str        # "host" | "simulated"
    workloads: tuple  # where it is defined
    what: str


_ALL = tuple(WORKLOADS)

#: The end-to-end table (medians of untraced runs).  Metrics defined on
#: every workload are also the driver's ``end_to_end`` list; the simulated
#: ones are undefined on ``engine-threads`` (and ``sim_failover_s`` off
#: ``selfheal-chaos``), so the driver sees them under ``per_layer`` while
#: ``compare.py`` gates all of them with the bounds below.
END_TO_END: tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.25, "host", _ALL,
           "host wall time of the timed region (run_cluster, or barrier "
           "release -> last join)"),
    Metric("cpu_s", "s", "lower", 0.25, "host", _ALL,
           "process user+sys CPU over the same region"),
    Metric("wall_us_per_commit", "us", "lower", 0.25, "host", _ALL,
           "wall_s / in-window committed transactions"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "host", _ALL,
           "ru_maxrss of the run's subprocess"),
    Metric("setup_s", "s", "lower", 0.25, "host", _ALL,
           "subprocess start -> timed region entered"),
    Metric("commit_rate", "ratio", "higher", 0.06, "simulated", _ALL,
           "in-window committed / (committed + given-up)"),
    Metric("sim_commits_per_s", "tx/sim-s", "higher", 0.05, "simulated",
           CLUSTER_WORKLOADS, "simulated committed throughput"),
    Metric("sim_p50_ms", "sim-ms", "lower", 0.05, "simulated",
           CLUSTER_WORKLOADS, "median committed-transaction latency"),
    Metric("sim_p99_ms", "sim-ms", "lower", 0.05, "simulated",
           CLUSTER_WORKLOADS, "p99 committed-transaction latency"),
    Metric("sim_msgs_per_commit", "msgs", "lower", 0.05, "simulated",
           CLUSTER_WORKLOADS, "network messages per committed transaction"),
    Metric("sim_failover_s", "sim-s", "lower", 0.05, "simulated",
           ("selfheal-chaos",), "max leader-crash -> promotion latency"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
#: What the driver sees as ``end_to_end``: defined, and never 0, everywhere.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.workloads == _ALL)
#: Simulated outcomes the driver sees under ``per_layer`` (0 = undefined).
DRIVER_SIM = tuple(m for m in END_TO_END if m.workloads != _ALL)

#: Layers = this repo's modules.  ``layers.py`` maps every file to one.
LAYERS = (
    "sim.simulator", "sim.network", "sim.server_queue",
    "dist.client", "dist.server", "dist.other",
    "core.locks", "core.intervals", "fastcore", "core.versions",
    "core.engine", "core.other",
    "policies", "workload", "repl", "obs", "verify",
    "builtins", "other",
)

#: name -> (unit, better).  Counts read at the layer boundaries after the
#: traced run; 0 where the layer does not run on the workload.
LAYER_COUNTS: dict[str, tuple[str, str]] = {
    "sim.simulator.events": ("count", "lower"),
    "sim.simulator.events_per_s": ("1/s", "higher"),
    "sim.simulator.events_per_commit": ("count", "lower"),
    "sim.network.msgs_sent": ("count", "lower"),
    "dist.server.requests": ("count", "lower"),
    "dist.server.dup_requests": ("count", "lower"),
    "dist.client.abort_attempts": ("count", "lower"),
    "dist.client.attempts_per_commit": ("ratio", "lower"),
    "core.locks.records_peak": ("count", "lower"),
    "core.versions.count_peak": ("count", "lower"),
    "repl.wal_records": ("count", "lower"),
    "repl.checkpoints": ("count", "lower"),
    "repl.holds_mirrored": ("count", "lower"),
    "repl.follower_reads": ("count", "higher"),
    "repl.resyncs": ("count", "higher"),
    "repl.promotions": ("count", "lower"),
    "dist.other.msgs_lost": ("count", "lower"),
    "dist.other.rpc_retries": ("count", "lower"),
    "core.engine.stripe_waits": ("count", "lower"),
    "core.engine.stripe_conflicts": ("count", "lower"),
}

#: Micro suite: each layer alone through its public API, median ops/s.
MICRO_RATES = (
    "sim.simulator.noop_events_per_s", "sim.simulator.sleep_yields_per_s",
    "sim.network.sends_per_s", "sim.server_queue.dispatch_per_s",
    "core.locks.read_cycle_per_s", "core.locks.write_cycle_per_s",
    "core.locks.contended_acquire_per_s",
    "core.intervals.intersect_per_s", "core.intervals.union_per_s",
    "core.intervals.subtract_per_s", "core.intervals.contains_per_s",
    "core.versions.install_per_s", "core.versions.floor_per_s",
    "core.versions.purge_per_s",
    "core.engine.tx_per_s",
    "dist.server.read_req_per_s", "dist.server.batch_lock_req_per_s",
    "workload.uniform_tx_per_s", "workload.zipf_tx_per_s",
    "workload.scenario_tx_per_s",
    "repl.wal_append_per_s", "repl.wal_replay_per_s", "repl.recover_per_s",
    "obs.emit_per_s", "obs.fold_events_per_s",
    "verify.mvsg_tx_per_s",
)


def per_layer_metrics() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in a fixed order."""
    out = []
    for layer in LAYERS:
        out.append({"name": f"{layer}.self_s", "unit": "s",
                    "better": "lower"})
        out.append({"name": f"{layer}.calls", "unit": "count",
                    "better": "lower"})
    out.append({"name": "trace.total_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_x", "unit": "x", "better": "lower"})
    for name, (unit, better) in LAYER_COUNTS.items():
        out.append({"name": name, "unit": unit, "better": better})
    for name in MICRO_RATES:
        out.append({"name": name, "unit": "1/s", "better": "higher"})
    out.append({"name": "obs.trace_overhead_x", "unit": "x",
                "better": "lower"})
    for m in DRIVER_SIM:
        out.append({"name": m.name, "unit": m.unit, "better": m.better})
    # What the speed correction did to the untraced companion run.
    out.append({"name": "host.slowdown_x", "unit": "x", "better": "lower"})
    out.append({"name": "host.wall_raw_s", "unit": "s", "better": "lower"})
    return out


def benchmark_json() -> dict:
    """BENCHMARK.json's content, derived from the tables above."""
    return {
        "command": ["python3", "perflab/run.py"],
        "paths": ["perflab"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in DRIVER_END_TO_END],
        "per_layer": per_layer_metrics(),
    }
