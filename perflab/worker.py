"""One measured run, in a process of its own.

``run.py`` spawns this file once per sample so every run starts from a
cold interpreter (``setup_s`` and ``peak_rss_mb`` mean something) and one
run's garbage cannot slow the next.  The last line of stdout is one JSON
object.

Modes: ``timed`` (the end-to-end sample), ``traced`` (the same region
under cProfile, bucketed by layer, plus boundary counts), ``check`` (the
correctness gate's recorded run), ``micro`` (the per-layer micro suite).

Host times are speed-corrected (see ``hostspeed.py``); the raw seconds
and the measured slowdown travel with them under ``host``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from typing import Any

from hostspeed import HostSpeed, profiler_factors


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(name: str, seed: int, scale: float, spawned_at: float,
         traced: bool) -> dict[str, Any]:
    # Set-up is a third of a second: sample it four times as often.
    with HostSpeed(period=0.01) as setup_speed:
        import workloads as wl
        from layers import bucket

        if name == "engine-threads":
            specs = wl.engine_specs(seed, scale)
        else:
            config = wl.CLUSTER_CONFIGS[name](seed, scale)
            if traced:
                config = wl.state_sampling(config)
    setup_raw = time.monotonic() - spawned_at
    setup_s = setup_speed.correct(setup_raw)

    profiles: list[cProfile.Profile] = []

    def profiled_thread():
        prof = cProfile.Profile()
        profiles.append(prof)
        prof.enable()
        return prof.disable

    # Only the cluster's traced region runs the sampler under a profiler:
    # engine-threads profiles its worker threads, not the main thread.
    factors = (profiler_factors()
               if traced and name != "engine-threads" else None)
    with HostSpeed(factors=factors) as speed:
        if name == "engine-threads":
            out = wl.run_engine(
                specs, sample_state=traced,
                thread_hook=profiled_thread if traced else None)
            wall_raw, cpu_raw = out.pop("wall_s"), out.pop("cpu_s")
        else:
            stop_profile = profiled_thread() if traced else None
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            res = wl.run_cluster(config)
            wall_raw = time.perf_counter() - wall0
            cpu_raw = time.process_time() - cpu0
            if stop_profile is not None:
                stop_profile()
            out = wl.cluster_outcome(res)
    wall = speed.correct(wall_raw)
    out["metrics"].update({
        "wall_s": wall,
        "cpu_s": speed.correct(cpu_raw),
        "wall_us_per_commit": wall * 1e6 / max(1, out["committed"]),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    })
    out["host"] = {"wall_raw_s": wall_raw, "cpu_raw_s": cpu_raw,
                   "setup_raw_s": setup_raw, "slowdown_x": speed.slowdown,
                   "speed_samples": len(speed.samples[0])}
    if traced:
        layers = bucket(profiles)
        for slot in layers.values():
            slot["self_s"] /= speed.slowdown
        out["layers"] = layers
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("timed", "traced", "check", "micro"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="parent's time.monotonic() just before the spawn")
    args = ap.parse_args()
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())

    if args.mode == "micro":
        from micro import run_micro
        out: dict[str, Any] = run_micro(args.seed)
    elif args.mode == "check":
        import workloads as wl
        if args.workload == "bank-transfer":
            failures = wl.check_bank_transfer(args.seed)
        else:
            failures = wl.check_workload(args.workload, args.seed,
                                         args.scale)
        out = {"failures": failures}
    else:
        out = _run(args.workload, args.seed, args.scale, spawned_at,
                   traced=args.mode == "traced")
    from repro._fastcore import BACKEND
    out["fastcore_backend"] = BACKEND
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
