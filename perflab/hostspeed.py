"""Measure how fast this host is *while* a timed region runs.

The benchmark host is a shared 2-vCPU VM whose speed wanders by up to 2x
over seconds to minutes (one deterministic 1.5-s run was timed between
1.0 s and 2.5 s within fifteen minutes, CPU time inflating with wall
time), so raw seconds cannot resolve a 25 % change.  :class:`HostSpeed`
fires two fixed reference loops from ``ITIMER_REAL`` every ``period``
seconds *inside* the region — the handler runs between bytecodes of
whatever the main thread is doing, so a monolithic ``run_cluster`` call is
sampled end to end without touching it.  The region's time is reported as

    (raw - time spent in the loops) / slowdown,
    slowdown = geometric mean over the loops of
               median loop time / nominal loop time

i.e. in seconds of a host that runs the loops at their nominal speed.  One
loop is integer arithmetic, the other the interpreter work a simulator
does (dict lookups, method calls, a heap, tuple allocation over a table
that does not fit the L1 cache); neighbours slow the two differently and
the workloads sit between them (README.md, "Noise").  No change to
``repro`` can speed either loop up.  Raw seconds and the slowdown are kept
beside every corrected number.
"""

from __future__ import annotations

import cProfile
import signal
import statistics
import time
from heapq import heappop, heappush


class _Cell:
    __slots__ = ("hits",)

    def __init__(self) -> None:
        self.hits = 0

    def bump(self) -> int:
        self.hits += 1
        return self.hits


_KEYS = [f"k{i:07d}" for i in range(4096)]
_TABLE = {key: _Cell() for key in _KEYS}


def _arith_loop() -> None:
    x = 0
    for i in range(20_000):
        x += i * i % 7


def _event_loop() -> None:
    heap: list[tuple[float, int, str]] = []
    for i in range(1_500):
        key = _KEYS[(i * 2654435761) & 4095]
        heappush(heap, (_TABLE[key].bump() * 0.001 + i, i, key))
        if i & 3 == 3:
            heappop(heap)


#: (loop, seconds it takes on the quiet reference host: CPython 3.11,
#: 2.1 GHz vCPU).  The constants only fix the unit of corrected seconds.
REFERENCE_LOOPS = ((_arith_loop, 0.00078), (_event_loop, 0.00078))


def _timed(loop) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def profiler_factors(pairs: int = 15) -> tuple[float, ...]:
    """How much an installed cProfile alone slows each reference loop.

    CPython 3.11 sends every bytecode through the tracing check while a
    profiler is installed, and every call through the profiler.  A traced
    region must not mistake that for a slow host, so its sampler expects
    loops this much longer (alternating plain/profiled, ratio of medians).
    """
    prof = cProfile.Profile()
    factors = []
    for loop, _nominal in REFERENCE_LOOPS:
        plain, profiled = [], []
        for _ in range(pairs):
            plain.append(_timed(loop))
            prof.enable()
            profiled.append(_timed(loop))
            prof.disable()
        factors.append(statistics.median(profiled)
                       / statistics.median(plain))
    return tuple(factors)


class HostSpeed:
    """Context manager sampling host speed on the main thread.

    ``factors`` is how much longer each loop is expected to take for
    reasons other than the host (see :func:`profiler_factors`).
    """

    def __init__(self, period: float = 0.04,
                 factors: tuple[float, ...] | None = None) -> None:
        self.period = period
        self.factors = factors or (1.0,) * len(REFERENCE_LOOPS)
        self.samples: tuple[list[float], ...] = tuple(
            [] for _ in REFERENCE_LOOPS)
        self._previous = None

    def sample(self, _signum=None, _frame=None) -> None:
        """Time each reference loop once (the timer's handler; also called
        directly around regions too short for the timer)."""
        for times, (loop, _nominal) in zip(self.samples, REFERENCE_LOOPS):
            times.append(_timed(loop))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def stolen_s(self) -> float:
        """Seconds the region lost to the reference loops themselves."""
        return sum(map(sum, self.samples))

    @property
    def slowdown(self) -> float:
        """Measured over nominal loop time; 1.0 when nothing was sampled."""
        if not self.samples[0]:
            return 1.0
        ratios = [statistics.median(times) / (nominal * factor)
                  for times, (_loop, nominal), factor
                  in zip(self.samples, REFERENCE_LOOPS, self.factors)]
        return statistics.geometric_mean(ratios)

    def correct(self, raw_s: float) -> float:
        """``raw_s`` of this region in reference-host seconds."""
        return (raw_s - self.stolen_s) / self.slowdown
