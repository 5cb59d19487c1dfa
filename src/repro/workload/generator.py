"""Workload generation (§8.3).

An experiment fixes: transaction size (operations per transaction), fraction
of writes, key-space size, and key distribution.  Keys and values are small
8-character strings like the prototype's.  Each client owns an independent
random stream, so runs are reproducible and clients are uncorrelated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
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
    where it leaves it, without rebuilding the CDF per draw.

    The scenario generators are the only callers.  They keep scalar draws
    because they share their stream with ``rng.choice(replace=False)``;
    :class:`WorkloadGenerator` owns its stream and makes the same
    bisection on uniforms computed from pooled words."""
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


#: One transaction's draws, in stream order: (critical, key indices,
#: write flags).
_Draws = Iterator[tuple[bool, list[int], list[bool]]]

#: Raw words a uniform generator takes from its PCG64 per refill.  Every
#: client holds a pool of up to this many words (~48 bytes each as Python
#: ints), so it stays small.
_POOL_WORDS = 32

#: Draws computed per block by a Zipf generator.
_BLOCK_DRAWS = 512

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1

#: numpy's ``random()`` on PCG64 is ``(word >> 11) * 2**-53``.
_DOUBLE = 2.0 ** -53


def _below(fraction: float) -> int:
    """The bound ``b`` such that ``random() < fraction`` exactly when its
    word is below ``b``: ``(w >> 11) * 2**-53 < f`` iff the integer
    ``w >> 11`` is below ``f * 2**53`` (scaling by a power of two is
    exact), iff it is below ``ceil(f * 2**53)``."""
    return math.ceil(fraction * 2.0**53) << 11


def _uniform_draws(config: WorkloadConfig, bitgen: np.random.PCG64,
                   half: int | None) -> _Draws:
    """Per transaction: a ``random()`` for ``critical`` if
    ``critical_fraction > 0``, then per op ``integers(num_keys)`` and a
    ``random()`` for the write flag.  ``half`` is the 32-bit output the bit
    generator holds buffered, if any."""
    n = config.num_keys
    word = chain.from_iterable(
        iter(lambda: bitgen.random_raw(_POOL_WORDS).tolist(), None)).__next__
    if n == 1:
        key = repeat(0).__next__  # numpy's integers(1) draws nothing
    elif n <= 1 << 32:
        key = _lemire32(word, n, half).__next__
    else:
        key = _lemire64(word, n).__next__
    critical_below = _below(config.critical_fraction)
    write_below = _below(config.write_fraction)
    ops = range(config.tx_size)
    while True:
        # Short-circuit keeps the stream draw count identical to older
        # seeds when the feature is off (determinism across versions).
        critical = config.critical_fraction > 0.0 and word() < critical_below
        indices = []
        writes = []
        for _ in ops:
            indices.append(key())
            writes.append(word() < write_below)
        yield critical, indices, writes


def _lemire32(word: Callable[[], int], n: int,
              half: int | None) -> Iterator[int]:
    """numpy's ``integers(n)`` for ``1 < n <= 2**32``: Lemire's method on
    32-bit outputs, rejection loop included.  PCG64 serves a 32-bit output
    from the low half of a fresh word and buffers the high half (``half``)
    for the next one; a ``random()`` in between leaves the buffer alone."""
    threshold = (2**32 - n) % n
    while True:
        if half is None:
            w = word()
            m = (w & _M32) * n
            half = w >> 32
        else:
            m = half * n
            half = None
        if (m & _M32) >= threshold:
            yield m >> 32


def _lemire64(word: Callable[[], int], n: int) -> Iterator[int]:
    """numpy's ``integers(n)`` for ``n > 2**32``: Lemire's method on whole
    words."""
    threshold = (2**64 - n) % n
    while True:
        m = word() * n
        if (m & _M64) >= threshold:
            yield m >> 64


def _zipf_draws(config: WorkloadConfig, bitgen: np.random.PCG64,
                cdf: np.ndarray) -> _Draws:
    """As :func:`_uniform_draws`, with a :func:`zipf_index` into ``cdf``
    per key.  Each draw is a ``random()`` of one word, so every transaction
    takes the same number of words, and a block of transactions is
    computed at once."""
    first = 1 if config.critical_fraction > 0.0 else 0
    width = first + 2 * config.tx_size
    count = max(1, _BLOCK_DRAWS // width)
    while True:
        u = (bitgen.random_raw((count, width)) >> 11) * _DOUBLE
        indices = cdf.searchsorted(u[:, first::2], side="right").tolist()
        writes = (u[:, first + 1::2] < config.write_fraction).tolist()
        if first:
            critical = (u[:, 0] < config.critical_fraction).tolist()
        else:
            critical = repeat(False, count)
        yield from zip(critical, indices, writes)


class _KeyNames:
    """The names of a key space too large for :func:`_key_table`,
    formatted per draw."""

    def __getitem__(self, idx: int) -> str:
        return f"k{idx:07d}"  # 8-character keys, like the prototype


class WorkloadGenerator:
    """Yields :class:`TxSpec`s for one client.

    The generator owns ``rng`` and reads it ahead, as the service queue's
    draw pool does.  It takes raw 64-bit words from ``rng``'s PCG64 in
    blocks and computes from them, bit for bit, what scalar
    ``rng.random()``, ``rng.integers(num_keys)`` and :func:`zipf_index`
    calls would return in the same order
    (``tests/workload/generator_model.py`` keeps those calls).  The specs
    are the scalar draws' specs, but ``rng`` is left ahead of them, so
    nothing else may draw from it.  Only PCG64 is modelled: its 32-bit
    draws share a buffered half-word, which is read from the bit
    generator's state once, here.
    """

    def __init__(self, config: WorkloadConfig,
                 rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError("WorkloadGenerator computes PCG64 draws from its "
                            f"raw words; got {type(bitgen).__name__}")
        self.config = config
        self._value_counter = 0
        if config.zipf_s > 0.0:
            self._cdf = zipf_cdf(config.num_keys, config.zipf_s)
            self._draws = _zipf_draws(config, bitgen, self._cdf)
        else:
            self._cdf = None
            state = bitgen.state
            half = state["uinteger"] if state["has_uint32"] else None
            self._draws = _uniform_draws(config, bitgen, half)
        self._keys = _key_table(config.num_keys) or _KeyNames()

    def next_tx(self) -> TxSpec:
        critical, indices, writes = next(self._draws)
        keys = self._keys
        count = self._value_counter
        ops = []
        for idx, write in zip(indices, writes):
            if write:
                count += 1
                # 8-character values
                ops.append(Op(True, keys[idx], f"v{count % 10**7:07d}"))
            else:
                ops.append(Op(False, keys[idx]))
        self._value_counter = count
        return TxSpec(tuple(ops), critical)

    def __iter__(self) -> Iterator[TxSpec]:
        while True:
            yield self.next_tx()
