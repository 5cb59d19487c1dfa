"""Zipf key draws through the cached CDF are ``rng.choice`` bit for bit.

The scenario generators, the only callers of
:func:`~repro.workload.generator.zipf_index`, draw a Zipf key with it —
one uniform, right-bisected into the cached normalized CDF — instead of
``rng.choice(n, p=probs)``, which rebuilds the CDF on every draw.  They
keep scalar draws because they share their stream with
``rng.choice(replace=False)``.  Seeded runs must not move, so the two must
return the same index and leave the stream in the same place — including
when other draws (``integers``, as the scenarios make) are interleaved.
:class:`~repro.workload.generator.WorkloadGenerator` makes the same
bisection on uniforms computed from pooled PCG64 words;
``tests/workload/test_generator_draws.py`` checks it against the scalar
draws.
"""

import numpy as np
import pytest

from repro.workload.generator import (zipf_cdf, zipf_index,
                                      zipf_probabilities)
from repro.workload.scenarios import BankTransferGenerator
from repro.workload import WorkloadConfig

DRAWS = 3_000
SEEDS = range(20)


@pytest.mark.parametrize("n, s", [(32, 0.6), (200, 0.8), (1024, 0.8),
                                  (5, 2.0)])
def test_cdf_draw_matches_choice(n, s):
    probs = zipf_probabilities(n, s)
    cdf = zipf_cdf(n, s)
    for seed in SEEDS:
        ref = np.random.default_rng(seed)
        new = np.random.default_rng(seed)
        for i in range(DRAWS):
            want = int(ref.choice(n, p=probs))
            got = zipf_index(new, cdf)
            assert got == want, (n, s, seed, i)
            if i % 3 == 0:
                assert ref.integers(n) == new.integers(n)
        assert ref.random() == new.random()


def test_scenario_pick_matches_choice():
    cfg = WorkloadConfig(num_keys=200, tx_size=4, zipf_s=0.8)
    gen = BankTransferGenerator(cfg, np.random.default_rng(3))
    ref = np.random.default_rng(3)
    probs = zipf_probabilities(200, 0.8)
    for _ in range(DRAWS):
        assert gen._pick_idx() == int(ref.choice(200, p=probs))
