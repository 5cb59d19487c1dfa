"""Per-layer micro suite: each layer driven alone through its public API.

Every benchmark builds its state untimed from a seeded corpus, times one
pass, and repeats ``REPS`` times from fresh state; the reported value is
the median ops/s.  A layer's micro number says what an optimisation of
that layer is worth in isolation — ``README.md`` says which end-to-end
metric on which workload it should then move.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.core import (IntervalSet, KeyLockState, LockMode, Timestamp,
                        TsInterval, VersionStore)
from repro.dist import CommitmentRegistry, MVTLServer, run_cluster
from repro.dist.messages import MVTLBatchLockReq, MVTLReadReq
from repro.obs import MetricsRegistry, Tracer, fold_trace
from repro.repl import DurableStore, WriteAheadLog
from repro.sim import (LOCAL_TESTBED, LatencyModel, Network, ServiceQueue,
                       Simulator, Sleep)
from repro.verify import HistoryRecorder, check_serializable
from repro.workload import (WorkloadConfig, WorkloadGenerator,
                            make_scenario_generator)

import workloads as wl
from hostspeed import HostSpeed

REPS = 5
READ, WRITE = LockMode.READ, LockMode.WRITE

#: A prepared benchmark: ``setup()`` builds fresh state and returns the
#: callable to time; ``ops`` is how many operations that callable does.
Bench = tuple[int, Callable[[], Callable[[], Any]]]


def _noop() -> None:
    pass


def _ts(v: float, pid: int = 1) -> Timestamp:
    return Timestamp(float(v), pid)


# -- sim ---------------------------------------------------------------------

def sim_noop_events(n: int = 60_000) -> Bench:
    def setup():
        sim = Simulator()

        def run():
            for i in range(n):
                sim.schedule(i * 1e-6, _noop)
            sim.run()
        return run
    return n, setup


def sim_sleep_yields(procs: int = 100, yields: int = 600) -> Bench:
    def sleeper():
        for _ in range(yields):
            yield Sleep(1e-3)

    def setup():
        sim = Simulator()

        def run():
            for _ in range(procs):
                sim.spawn(sleeper())
            sim.run()
        return run
    return procs * yields, setup


def net_sends(seed: int, n: int = 40_000) -> Bench:
    def setup():
        sim = Simulator()
        net = Network(sim, LOCAL_TESTBED.latency,
                      np.random.default_rng(seed))
        net.register("dst", lambda msg: None)

        def run():
            for i in range(n):
                net.send("dst", i, src="src")
            sim.run()
        return run
    return n, setup


def queue_dispatch(seed: int, n: int = 60_000) -> Bench:
    def setup():
        sim = Simulator()
        queue = ServiceQueue(sim, LOCAL_TESTBED.service_time,
                             LOCAL_TESTBED.server_concurrency,
                             np.random.default_rng(seed), lambda req: None)

        def run():
            for i in range(n):
                queue.submit(i)
            sim.run()
        return run
    return n, setup


# -- core.locks --------------------------------------------------------------

def locks_read_cycle(n: int = 8_000, keys: int = 1_024) -> Bench:
    # Consecutive spans touch, so the sealed read aggregate stays one piece:
    # the per-key state the cycle searches stays short.
    spans = [TsInterval.closed(_ts(i), _ts(i + 1)) for i in range(n)]

    def setup():
        states = [KeyLockState() for _ in range(keys)]

        def run():
            for i, span in enumerate(spans):
                state = states[i % keys]
                state.grant(i, READ, span)
                state.freeze(i, READ, span)
                state.seal(i)
        return run
    return n, setup


def locks_write_cycle(n: int = 5_000, keys: int = 1_024) -> Bench:
    spans = [TsInterval.closed(_ts(i), _ts(i + 0.5)) for i in range(n)]
    points = [TsInterval.point(_ts(i)) for i in range(n)]

    def setup():
        states = [KeyLockState() for _ in range(keys)]

        def run():
            for i in range(n):
                state = states[i % keys]
                state.try_acquire(i, WRITE, spans[i])
                state.freeze(i, WRITE, points[i])
                state.release_unfrozen(i)
                state.seal(i)
        return run
    return n, setup


def locks_contended_acquire(n: int = 300, owners: int = 32) -> Bench:
    want = TsInterval.closed(_ts(0), _ts(owners))

    def setup():
        state = KeyLockState()
        for k in range(owners):
            state.try_acquire(("live", k), WRITE,
                              TsInterval.closed(_ts(k), _ts(k + 0.9)))

        def run():
            for i in range(n):
                state.try_acquire(i, WRITE, want)
                state.release_unfrozen(i)
        return run
    return n, setup


# -- core.intervals / core.versions (the repro.bench micro corpus) ------------

SETS = 400
PASSES = 100
CONTAINS_PASSES = 400
VC_KEYS = 150
VC_VERSIONS = 400
PURGE_SWEEPS = 50


def _random_set(rng: np.random.Generator, max_pieces: int = 6) -> IntervalSet:
    pieces = []
    for _ in range(int(rng.integers(1, max_pieces + 1))):
        lo = float(rng.integers(0, 10_000)) / 16.0
        width = float(rng.integers(0, 500)) / 16.0
        a = Timestamp(lo, int(rng.integers(0, 4)))
        b = Timestamp(lo + width, int(rng.integers(0, 4)))
        pieces.append(TsInterval.closed(min(a, b), max(a, b)))
    return IntervalSet(pieces)


def interval_benches(seed: int) -> dict[str, Bench]:
    rng = np.random.default_rng(seed)
    sets = [_random_set(rng) for _ in range(SETS)]
    pairs = [(sets[i], sets[(i + 1) % SETS]) for i in range(SETS)]
    probes = [Timestamp(float(rng.integers(0, 10_500)) / 16.0,
                        int(rng.integers(0, 4))) for _ in range(SETS)]

    def pairwise(op: Callable[[IntervalSet, IntervalSet], Any]) -> Bench:
        def run():
            for _ in range(PASSES):
                for a, b in pairs:
                    op(a, b)
        return SETS * PASSES, lambda: run

    def contains():
        for _ in range(CONTAINS_PASSES):
            for s, probe in zip(sets, probes):
                s.contains(probe)

    return {
        "core.intervals.intersect_per_s": pairwise(IntervalSet.intersect),
        "core.intervals.union_per_s": pairwise(IntervalSet.union),
        "core.intervals.subtract_per_s": pairwise(IntervalSet.subtract),
        "core.intervals.contains_per_s":
            (SETS * CONTAINS_PASSES, lambda: contains),
    }


def version_benches(seed: int) -> dict[str, Bench]:
    rng = np.random.default_rng(seed)
    timelines = []
    for k in range(VC_KEYS):
        ts = [Timestamp(float(t) / 8.0, k % 4)
              for t in range(1, VC_VERSIONS + 1)]
        timelines.append((f"k{k:04d}", ts, rng.permutation(VC_VERSIONS)))

    def install(store: VersionStore) -> None:
        for key, ts, order in timelines:
            for i in order:
                store.install(key, ts[i], "v")

    def filled() -> VersionStore:
        store = VersionStore()
        install(store)
        return store

    def floor_setup():
        store = filled()

        def run():
            for key, ts, _order in timelines:
                for t in ts:
                    store.latest_before(key, t)
        return run

    def purge_setup():
        # Rising bounds, as the GC service issues them: each sweep visits
        # every key and drops the next slice of its chain.
        store = filled()
        step = VC_VERSIONS / 8.0 / PURGE_SWEEPS
        bounds = [Timestamp(step * k, 0) for k in range(1, PURGE_SWEEPS + 1)]

        def run():
            for bound in bounds:
                store.purge_before(bound)
        return run

    n = VC_KEYS * VC_VERSIONS
    return {
        "core.versions.install_per_s":
            (n, lambda: (lambda store=VersionStore(): install(store))),
        "core.versions.floor_per_s": (n, floor_setup),
        "core.versions.purge_per_s": (n, purge_setup),
    }


# -- core.engine -------------------------------------------------------------

def engine_tx(seed: int, n: int = 500) -> Bench:
    gen = WorkloadGenerator(wl.ENGINE_WORKLOAD, np.random.default_rng(seed))
    specs = [[gen.next_tx() for _ in range(n)]]
    return n, lambda: (lambda: wl.run_engine(specs))


# -- dist.server: one MVTLServer, requests injected, no clients ---------------

def _lone_server(seed: int) -> tuple[Simulator, Network, MVTLServer]:
    sim = Simulator()
    net = Network(sim, LatencyModel(mu=-40.0, sigma=0.0),  # ~0 latency
                  np.random.default_rng(seed))
    server = MVTLServer(sim, net, "server-0", LOCAL_TESTBED,
                        np.random.default_rng(seed + 1),
                        CommitmentRegistry(sim))
    net.register("client-0", lambda reply: None)
    return sim, net, server


def server_read_reqs(seed: int, n: int = 3_000, keys: int = 4_096) -> Bench:
    reqs = [MVTLReadReq(("client-0", i), "client-0", i,
                        key=f"k{i % keys:07d}", upper=_ts(1.0 + i * 1e-3),
                        wait=False) for i in range(n)]

    def setup():
        sim, net, _server = _lone_server(seed)

        def run():
            for req in reqs:
                net.send("server-0", req, src="client-0")
            sim.run_until(1.0)  # before any timer the server arms
        return run
    return n, setup


def server_batch_lock_reqs(seed: int, n: int = 4_000, keys: int = 4_096,
                           items: int = 4) -> Bench:
    reqs = []
    for i in range(n):
        want = IntervalSet.from_interval(
            TsInterval.closed(_ts(1.0 + i), _ts(1.5 + i)))
        reqs.append(MVTLBatchLockReq(
            ("client-0", i), "client-0", i,
            items=tuple((f"k{(i * items + j) % keys:07d}", "v", want)
                        for j in range(items))))

    def setup():
        sim, net, _server = _lone_server(seed)

        def run():
            for req in reqs:
                net.send("server-0", req, src="client-0")
            sim.run_until(1.0)  # write-lock timeouts arm at +2 s
        return run
    return n, setup


# -- workload ----------------------------------------------------------------

def workload_txs(seed: int, config: WorkloadConfig, n: int,
                 scenario: str | None = None) -> Bench:
    def setup():
        rng = np.random.default_rng(seed)
        gen = (WorkloadGenerator(config, rng) if scenario is None
               else make_scenario_generator(scenario, config, rng,
                                            client_index=0, num_clients=8))

        def run():
            for _ in range(n):
                gen.next_tx()
        return run
    return n, setup


# -- repl --------------------------------------------------------------------

def _commit_record(i: int) -> tuple:
    return (("client-0", i), _ts(1.0 + i),
            ((f"k{i % 512:07d}", f"v{i:07d}"),
             (f"k{(i + 7) % 512:07d}", f"v{i:07d}")), "client-0", i)


def repl_benches(n: int = 4_000) -> dict[str, Bench]:
    records = [_commit_record(i) for i in range(n)]

    def append_setup():
        wal = WriteAheadLog()

        def run():
            for record in records:
                wal.append(("commit",) + record)
        return run

    def logged() -> DurableStore:
        durable = DurableStore(checkpoint_every=0)
        for record in records:
            durable.log_commit(*record)
        return durable

    return {
        "repl.wal_append_per_s": (n, append_setup),
        "repl.wal_replay_per_s":
            (n, lambda: (lambda d=logged(): d.wal.replay())),
        "repl.recover_per_s": (n, lambda: (lambda d=logged(): d.recover())),
    }


# -- obs ---------------------------------------------------------------------

def _trace_events(txs: int) -> Tracer:
    """A synthetic trace with the shape the DES emits per transaction."""
    tracer = Tracer(now_fn=lambda: 0.0)
    span = TsInterval.closed(_ts(1.0), _ts(1.005))
    half = TsInterval.closed(_ts(1.0), _ts(1.002))
    for tx in range(txs):
        tracer.begin(tx, pid=1)
        for k in range(3):
            key = f"k{(tx + k) % 97:07d}"
            tracer.lock_acquire(tx, key, "read", requested=span,
                                granted=half if (tx + k) % 5 == 0 else span)
            tracer.read(tx, key, ts=_ts(0.5))
        tracer.write(tx, f"k{tx % 97:07d}")
        if tx % 10 == 0:
            tracer.wait(tx, f"k{tx % 97:07d}", dur=1e-3)
            tracer.abort(tx, reason="interval-empty")
        else:
            tracer.freeze(tx, f"k{tx % 97:07d}", "write", span=half)
            tracer.commit(tx, ts=_ts(1.001))
    return tracer


def obs_benches(txs: int = 2_000) -> dict[str, Bench]:
    events = _trace_events(txs).events
    return {
        "obs.emit_per_s":
            (len(events), lambda: (lambda: _trace_events(txs))),
        "obs.fold_events_per_s":
            (len(events) * 10,
             lambda: (lambda: fold_trace(events * 10, MetricsRegistry()))),
    }


def obs_trace_overhead(seed: int, pairs: int = 3) -> float:
    """``mvtil-hotpath`` wall with ``trace=True`` / without (short runs,
    alternating, ratio of medians)."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(pairs):
        for trace in (False, True):
            walls[trace].append(_corrected_seconds(
                lambda: run_cluster(wl.mvtil_hotpath(seed, 0.08,
                                                     trace=trace))))
    return statistics.median(walls[True]) / statistics.median(walls[False])


# -- verify ------------------------------------------------------------------

def verify_mvsg(seed: int, n: int = 1_000) -> Bench:
    gen = WorkloadGenerator(wl.ENGINE_WORKLOAD, np.random.default_rng(seed))
    history = HistoryRecorder()
    wl.run_engine([[gen.next_tx() for _ in range(n)]], history=history)
    return n, lambda: (lambda: check_serializable(history))


# -- driver ------------------------------------------------------------------

def _corrected_seconds(run: Callable[[], Any]) -> float:
    """Speed-corrected wall time of ``run()`` (see ``hostspeed.py``).

    Most passes last tens of milliseconds — a handful of timer ticks — so
    the host is also sampled three times on either side of the pass.
    """
    speed = HostSpeed(period=0.01)
    for _ in range(3):
        speed.sample()
    outside = speed.stolen_s
    with speed:
        t0 = time.perf_counter()
        run()
        raw = time.perf_counter() - t0
    inside = speed.stolen_s - outside
    for _ in range(3):
        speed.sample()
    return (raw - inside) / speed.slowdown


def _rates(bench: Bench) -> list[float]:
    ops, setup = bench
    rates = []
    for _ in range(REPS):
        run = setup()
        # Every pass starts from the same collector state: a full
        # collection landing in every other pass halved its rate.
        gc.collect()
        rates.append(ops / _corrected_seconds(run))
    return rates


def run_micro(seed: int) -> dict[str, Any]:
    """All micro metrics: name -> list of REPS rates (ops/s), plus the
    tracing-overhead ratio."""
    uniform = WorkloadConfig(num_keys=10_000, tx_size=20,
                             write_fraction=0.25)
    benches: dict[str, Bench] = {
        "sim.simulator.noop_events_per_s": sim_noop_events(),
        "sim.simulator.sleep_yields_per_s": sim_sleep_yields(),
        "sim.network.sends_per_s": net_sends(seed),
        "sim.server_queue.dispatch_per_s": queue_dispatch(seed),
        "core.locks.read_cycle_per_s": locks_read_cycle(),
        "core.locks.write_cycle_per_s": locks_write_cycle(),
        "core.locks.contended_acquire_per_s": locks_contended_acquire(),
        **interval_benches(seed),
        **version_benches(seed),
        "core.engine.tx_per_s": engine_tx(seed),
        "dist.server.read_req_per_s": server_read_reqs(seed),
        "dist.server.batch_lock_req_per_s": server_batch_lock_reqs(seed),
        "workload.uniform_tx_per_s": workload_txs(seed, uniform, 1_200),
        "workload.zipf_tx_per_s": workload_txs(
            seed, WorkloadConfig(num_keys=10_000, tx_size=20,
                                 write_fraction=0.25, zipf_s=0.8), 1_200),
        "workload.scenario_tx_per_s": workload_txs(
            seed, WorkloadConfig(num_keys=32, tx_size=4, write_fraction=0.5,
                                 zipf_s=0.6), 2_500, scenario="bank-transfer"),
        **repl_benches(),
        **obs_benches(),
        "verify.mvsg_tx_per_s": verify_mvsg(seed),
    }
    # The corpora above are not garbage: keep them out of every collection.
    gc.collect()
    gc.freeze()
    return {
        "rates": {name: _rates(bench) for name, bench in benches.items()},
        "obs.trace_overhead_x": obs_trace_overhead(seed),
    }
