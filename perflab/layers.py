"""Attribute a cProfile run to this repo's layers, from outside the program.

The benchmark records no span inside ``repro``: it profiles the timed call
from the harness and buckets each function's self time (``tottime``) and
call count by the module that defines it.  Every file under ``src/repro``
must resolve through ``FILE_LAYER`` or ``PACKAGE_LAYER`` — the perflab
tests fail when a new module would silently land in ``other``.
"""

from __future__ import annotations

import cProfile
import pstats

from spec import LAYERS

#: Files that are a layer of their own (path relative to ``src/repro``).
FILE_LAYER = {
    "sim/simulator.py": "sim.simulator",
    "sim/network.py": "sim.network",
    "sim/server_queue.py": "sim.server_queue",
    "dist/client.py": "dist.client",
    "dist/server.py": "dist.server",
    "core/locks.py": "core.locks",
    "core/intervals.py": "core.intervals",
    "core/versions.py": "core.versions",
    "core/engine.py": "core.engine",
    # Seed plumbing and testbed constants: set-up, not the event loop.
    "sim/rng.py": "other",
    "sim/testbed.py": "other",
    "sim/__init__.py": "other",
    "__init__.py": "other",
}

#: Everything else in a package (first path component under ``src/repro``).
PACKAGE_LAYER = {
    "dist": "dist.other",     # messages, partition, commitment, paxos, ...
    "core": "core.other",     # timestamp, transaction, policy, collector, ...
    "_fastcore": "fastcore",  # a metric name starts with a letter or digit
    "policies": "policies",
    "workload": "workload",
    "repl": "repl",
    "obs": "obs",
    "verify": "verify",
    # Not on any measured path; named so a newcomer is a deliberate entry.
    "clocks": "other",
    "baselines": "other",
    "bench": "other",
    "exp": "other",
}


def layer_of_module(relpath: str) -> str | None:
    """Layer of ``relpath`` (posix, relative to ``src/repro``), or None."""
    if relpath in FILE_LAYER:
        return FILE_LAYER[relpath]
    return PACKAGE_LAYER.get(relpath.split("/", 1)[0])


def layer_of_code(filename: str) -> str:
    """Layer of a profiled function, from its ``co_filename``."""
    if filename.startswith("~") or filename.startswith("<"):
        return "builtins"  # C callables and exec'd frames
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind("/src" + marker)
    if at < 0:
        return "other"  # stdlib, numpy, perflab's own frames
    layer = layer_of_module(filename[at + len("/src" + marker):])
    return layer if layer is not None else "other"


def bucket(profiles: list[cProfile.Profile]) -> dict[str, dict[str, float]]:
    """layer -> {"self_s", "calls"} summed over ``profiles`` (one per
    profiled thread)."""
    stats = pstats.Stats(profiles[0])
    for extra in profiles[1:]:
        stats.add(extra)
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        if _is_sampler(filename):
            continue
        # The host-speed sampler fires a timer-dependent number of times;
        # leave out what it called so ``.calls`` repeats exactly.
        for (caller_file, _l, _n), (nc, _c, tt, _t) in callers.items():
            if _is_sampler(caller_file):
                ncalls -= nc
                tottime -= tt
        slot = out[layer_of_code(filename)]
        slot["self_s"] += tottime
        slot["calls"] += ncalls
    return out


def _is_sampler(filename: str) -> bool:
    return filename.endswith("hostspeed.py")
