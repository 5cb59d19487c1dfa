"""Workload generation (§8.3).

An experiment fixes: transaction size (operations per transaction), fraction
of writes, key-space size, and key distribution.  Keys and values are small
8-character strings like the prototype's.  Each client owns an independent
random stream, so runs are reproducible and clients are uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["Op", "TxSpec", "WorkloadConfig", "WorkloadGenerator",
           "zipf_cdf", "zipf_index", "zipf_probabilities"]


@dataclass(frozen=True, slots=True)
class Op:
    """One operation of a transaction.

    ``compute`` turns a write into a read-modify-write: instead of the
    static ``value``, the runner calls ``compute(reads)`` — ``reads`` maps
    each key read so far in this attempt to the value observed — at
    execution time.  A restarted attempt re-reads and re-computes, so RMW
    scenarios (bank transfers, order counters) stay correct across aborts.
    """

    is_write: bool
    key: str
    value: str | None = None
    compute: Callable[[dict[str, Any]], str] | None = None


@dataclass(frozen=True, slots=True)
class TxSpec:
    """A transaction to execute: its operations in order.

    ``critical`` marks MVTL-Prio-class transactions (§5.2): run with
    ``begin(priority=True)``, served ahead of normals by the distributed
    substrate's overload machinery and never shed.

    ``read_only`` overrides the runner's write-free detection: ``None``
    (default) derives the hint from the ops, an explicit bool forces it.
    Scenario generators flag analytic scans ``read_only=True`` so
    replicated MVTIL routes them to snapshot/follower reads.
    """

    ops: tuple[Op, ...]
    critical: bool = False
    read_only: bool | None = None

    @property
    def is_read_only(self) -> bool:
        """Whether the runner should request a read-only (snapshot) tx."""
        if self.read_only is not None:
            return self.read_only
        return not any(op.is_write for op in self.ops)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of §8.3: size, write mix, key space, skew."""

    num_keys: int = 10_000
    tx_size: int = 20
    write_fraction: float = 0.25
    #: Zipf exponent for key popularity; 0 = uniform (the paper's setting).
    zipf_s: float = 0.0
    #: Fraction of transactions marked critical (MVTL-Prio class, §5.2).
    #: 0 (the default) draws nothing from the random stream, so existing
    #: seeded runs are bit-for-bit unchanged.
    critical_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.critical_fraction <= 1.0:
            raise ValueError("critical_fraction must be in [0, 1]")
        if self.tx_size < 1 or self.num_keys < 1:
            raise ValueError("tx_size and num_keys must be positive")
        if self.zipf_s < 0:
            # A negative exponent used to silently fall through the
            # ``zipf_s > 0.0`` gate in WorkloadGenerator and run uniform.
            raise ValueError("zipf_s must be >= 0 (0 = uniform)")


#: Memoized Zipf probability tables, keyed by (num_keys, zipf_s).  The
#: table is a pure function of those two knobs, so per-client recomputation
#: was O(clients x keys) of pure waste on large key spaces.  Cached arrays
#: are marked read-only; ``rng.choice`` only reads them.
_ZIPF_CACHE: dict[tuple[int, float], np.ndarray] = {}

#: Memoized normalized Zipf CDFs (same keying).  ``rng.choice(n, p=probs)``
#: recomputes ``p.cumsum()`` on *every* draw; sampling via a cached CDF +
#: ``searchsorted(rng.random(), side="right")`` replicates numpy's choice
#: computation (cumsum, normalize by the last entry, right-bisect one
#: uniform draw) and therefore consumes the identical stream and returns
#: the identical index — verified bit-for-bit against ``choice``.
_ZIPF_CDF_CACHE: dict[tuple[int, float], np.ndarray] = {}

#: Memoized key-string tables (``k0000000`` ...), keyed by num_keys: the
#: generators format the same few thousand key names millions of times.
_KEY_CACHE: dict[int, list[str]] = {}

#: Key spaces above this size fall back to per-draw formatting rather than
#: materializing a giant string table.
_KEY_CACHE_MAX = 200_000


def zipf_cdf(num_keys: int, zipf_s: float) -> np.ndarray:
    """The (memoized, read-only) normalized Zipf CDF that
    :func:`zipf_index` draws from."""
    cache_key = (num_keys, zipf_s)
    cdf = _ZIPF_CDF_CACHE.get(cache_key)
    if cdf is None:
        cdf = zipf_probabilities(num_keys, zipf_s).cumsum()
        cdf /= cdf[-1]  # exactly numpy choice's normalization
        cdf.setflags(write=False)
        _ZIPF_CDF_CACHE[cache_key] = cdf
    return cdf


def zipf_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One key index drawn from ``cdf`` (a :func:`zipf_cdf`): the index
    ``rng.choice(n, p=zipf_probabilities(n, s))`` returns, leaving ``rng``
    where it leaves it, without rebuilding the CDF per draw."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _key_table(num_keys: int) -> list[str] | None:
    if num_keys > _KEY_CACHE_MAX:
        return None
    table = _KEY_CACHE.get(num_keys)
    if table is None:
        table = _KEY_CACHE[num_keys] = [f"k{i:07d}" for i in range(num_keys)]
    return table


def zipf_probabilities(num_keys: int, zipf_s: float) -> np.ndarray:
    """The (memoized, read-only) Zipf probability table ``ranks ** -s``."""
    cache_key = (num_keys, zipf_s)
    probs = _ZIPF_CACHE.get(cache_key)
    if probs is None:
        ranks = np.arange(1, num_keys + 1, dtype=float)
        weights = ranks ** (-zipf_s)
        probs = weights / weights.sum()
        probs.setflags(write=False)
        _ZIPF_CACHE[cache_key] = probs
    return probs


class WorkloadGenerator:
    """Yields :class:`TxSpec`s for one client."""

    def __init__(self, config: WorkloadConfig,
                 rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self._value_counter = 0
        if config.zipf_s > 0.0:
            self._probs = zipf_probabilities(config.num_keys, config.zipf_s)
            self._cdf = zipf_cdf(config.num_keys, config.zipf_s)
        else:
            self._probs = None
            self._cdf = None
        self._keys = _key_table(config.num_keys)

    def _pick_key(self) -> str:
        if self._cdf is None:
            idx = int(self._rng.integers(self.config.num_keys))
        else:
            idx = zipf_index(self._rng, self._cdf)
        keys = self._keys
        if keys is not None:
            return keys[idx]
        return f"k{idx:07d}"  # 8-character keys, like the prototype

    def _pick_value(self) -> str:
        self._value_counter += 1
        return f"v{self._value_counter % 10**7:07d}"  # 8-character values

    def next_tx(self) -> TxSpec:
        cfg = self.config
        # Short-circuit keeps the stream draw count identical to older
        # seeds when the feature is off (determinism across versions).
        critical = (cfg.critical_fraction > 0.0
                    and float(self._rng.random()) < cfg.critical_fraction)
        ops = []
        for _ in range(cfg.tx_size):
            key = self._pick_key()
            if self._rng.random() < cfg.write_fraction:
                ops.append(Op(True, key, self._pick_value()))
            else:
                ops.append(Op(False, key))
        return TxSpec(tuple(ops), critical=critical)

    def __iter__(self) -> Iterator[TxSpec]:
        while True:
            yield self.next_tx()
