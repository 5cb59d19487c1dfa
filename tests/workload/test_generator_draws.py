"""``WorkloadGenerator`` yields the scalar-draw generator's specs, spec for
spec.

:class:`~repro.workload.generator.WorkloadGenerator` computes its draws
from raw PCG64 words (numpy's ``random()``, its 32-bit Lemire
``integers(n)`` on buffered half-words, its 64-bit Lemire for
``n > 2**32``, and a right bisection into the Zipf CDF).  The reference
is :class:`~tests.workload.generator_model.ScalarWorkloadGenerator`, which
makes the scalar numpy calls.  Same seed, same specs: ``is_write``,
``key``, ``value`` and ``critical`` of every op of every transaction.

The grid covers the draw paths: one key (no draw), powers of two (no
rejections), small and large spaces, 200 001 keys (keys formatted per
draw), 2**31 + 5 (about half of all draws rejected), 2**32 (the raw
32-bit output), 2**32 + 3 (64-bit Lemire) and 2**62 + 5 (a quarter of the
64-bit draws rejected); odd transaction sizes carry a buffered half-word
from one transaction into the next.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.generator import (WorkloadConfig, WorkloadGenerator,
                                      _below)
from tests.workload.generator_model import ScalarWorkloadGenerator

TXS = 3_000
SEEDS = range(20)
UNIFORM_KEYS = (1, 2, 3, 200, 1_024, 10_000, 200_001, 2**31 + 5, 2**32,
                2**32 + 3, 2**62 + 5)
ZIPF_S = (0.6, 0.8, 2.0)
TX_SIZES = (1, 4, 7, 20)
WRITE_FRACTIONS = (0.0, 0.25, 1.0)
CRITICAL_FRACTIONS = (0.0, 0.3)


def shape(seed: int) -> tuple[int, float, float]:
    """Each seed runs one (tx_size, write_fraction, critical_fraction)
    cell; twenty seeds visit every value of every knob."""
    size = TX_SIZES[seed % len(TX_SIZES)]
    write = WRITE_FRACTIONS[seed % len(WRITE_FRACTIONS)]
    critical = CRITICAL_FRACTIONS[(seed // 2) % len(CRITICAL_FRACTIONS)]
    return size, write, critical


def assert_same_specs(config: WorkloadConfig, rng_seed, txs: int,
                      predraw: int = 0) -> None:
    ref_rng = np.random.default_rng(rng_seed)
    new_rng = np.random.default_rng(rng_seed)
    for _ in range(predraw):  # an odd count leaves a buffered half-word
        assert ref_rng.integers(5) == new_rng.integers(5)
    ref = ScalarWorkloadGenerator(config, ref_rng)
    new = WorkloadGenerator(config, new_rng)
    for i in range(txs):
        # TxSpec equality: critical, and every op's is_write, key, value.
        assert new.next_tx() == ref.next_tx(), (config, rng_seed, i)


@pytest.mark.parametrize("num_keys", UNIFORM_KEYS)
def test_uniform_specs_match_scalar_draws(num_keys):
    for seed in SEEDS:
        size, write, critical = shape(seed)
        config = WorkloadConfig(num_keys=num_keys, tx_size=size,
                                write_fraction=write,
                                critical_fraction=critical)
        assert_same_specs(config, seed, TXS)


@pytest.mark.parametrize("zipf_s", ZIPF_S)
def test_zipf_specs_match_scalar_draws(zipf_s):
    for seed in SEEDS:
        size, write, critical = shape(seed)
        config = WorkloadConfig(num_keys=1_024, tx_size=size,
                                write_fraction=write,
                                critical_fraction=critical, zipf_s=zipf_s)
        assert_same_specs(config, seed, TXS)


@pytest.mark.parametrize("num_keys", (3, 10_000, 2**31 + 5))
def test_buffered_half_word_at_construction(num_keys):
    # An odd number of 32-bit draws leaves PCG64 holding the high half of
    # its last word; the generator's first key must be that half.
    config = WorkloadConfig(num_keys=num_keys, tx_size=3)
    for seed in range(5):
        assert_same_specs(config, seed, 500, predraw=1)


@settings(max_examples=150, deadline=None)
@given(num_keys=st.one_of(st.integers(1, 300), st.integers(1, 2**63),
                          st.sampled_from(UNIFORM_KEYS)),
       zipf_s=st.sampled_from((0.0, 0.0, 0.5, 1.3)),
       tx_size=st.integers(1, 9),
       write_fraction=st.floats(0.0, 1.0),
       critical_fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1), predraw=st.integers(0, 3))
def test_random_configs_match_scalar_draws(num_keys, zipf_s, tx_size,
                                           write_fraction,
                                           critical_fraction, seed,
                                           predraw):
    if zipf_s > 0.0:
        num_keys = min(num_keys, 5_000)  # the CDF is a table of num_keys
    config = WorkloadConfig(num_keys=num_keys, tx_size=tx_size,
                            write_fraction=write_fraction,
                            critical_fraction=critical_fraction,
                            zipf_s=zipf_s)
    assert_same_specs(config, seed, 60, predraw=predraw)


@settings(max_examples=300, deadline=None)
@given(fraction=st.floats(0.0, 1.0), word=st.integers(0, 2**64 - 1),
       offset=st.integers(-2**12, 2**12))
def test_below_is_the_float_comparison(fraction, word, offset):
    bound = _below(fraction)
    # A random word, and words near the bound, where rounding would show.
    for w in (word, min(max(bound + offset, 0), 2**64 - 1)):
        assert ((w >> 11) * 2.0**-53 < fraction) == (w < bound)


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                    np.random.SFC64, np.random.PCG64DXSM])
def test_other_bit_generators_are_refused(bitgen):
    rng = np.random.Generator(bitgen(1))
    with pytest.raises(TypeError, match=bitgen.__name__):
        WorkloadGenerator(WorkloadConfig(), rng)
