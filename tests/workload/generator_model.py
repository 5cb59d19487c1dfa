"""Reference model: the scalar-draw ``WorkloadGenerator``.

This is the generator as it was before draws were computed from pooled
PCG64 words: one ``rng.integers(num_keys)`` or :func:`zipf_index` and one
``rng.random()`` per op, plus one ``rng.random()`` per transaction when
``critical_fraction > 0``.  ``tests/workload/test_generator_draws.py``
checks that :class:`~repro.workload.generator.WorkloadGenerator` yields
the same specs from the same seed.
"""

from __future__ import annotations

import numpy as np

from repro.workload.generator import (Op, TxSpec, WorkloadConfig, _key_table,
                                      zipf_cdf, zipf_index)


class ScalarWorkloadGenerator:
    """Yields :class:`TxSpec`s for one client, one scalar draw at a time."""

    def __init__(self, config: WorkloadConfig,
                 rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self._value_counter = 0
        if config.zipf_s > 0.0:
            self._cdf = zipf_cdf(config.num_keys, config.zipf_s)
        else:
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
