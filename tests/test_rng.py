"""The batch stream forms equal the per-key reference bit for bit."""

import numpy as np
import pytest

from nnshapley import _rng
from nnshapley._rng import stream, streams, substream_seed, substream_seeds
from nnshapley.dataset import add_feature_noise, flip_labels, generate_gaussian_synthetic
from nnshapley.errors import ParameterError
from nnshapley.evaluation import bench_runtime

# The random seeds stay numpy integers, which SeedSequence also takes.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5]
SEEDS += list(np.random.default_rng(17).integers(0, 2**63, 4))
PREFIXES = [(3,), (4, 7), (2**32, 1), (5, 2**40 + 3)]
RANGES = [(0, 6), (9, 21), (2**32 - 3, 2**32)]


@pytest.mark.parametrize("lo, hi", RANGES)
@pytest.mark.parametrize("key", PREFIXES)
@pytest.mark.parametrize("seed", SEEDS)
def test_streams_equal_the_per_key_streams(seed, key, lo, hi):
    batch = list(streams(seed, key, lo, hi))
    assert len(batch) == hi - lo
    for v, gen in zip(range(lo, hi), batch):
        ref = stream(seed, *key, v)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random() == ref.random()
        assert gen.normal(0.0, 2.0, 3).tobytes() == ref.normal(0.0, 2.0, 3).tobytes()
        picks = [g.choice(50, size=9, replace=False) for g in (gen, ref)]
        assert np.array_equal(*picks)


@pytest.mark.parametrize("lo, hi", RANGES)
@pytest.mark.parametrize("key", PREFIXES)
@pytest.mark.parametrize("seed", SEEDS)
def test_substream_seeds_equal_the_per_key_seeds(seed, key, lo, hi):
    expected = [substream_seed(seed, *key, v) for v in range(lo, hi)]
    assert substream_seeds(seed, key, lo, hi) == expected


def test_empty_ranges_give_nothing():
    for lo, hi in ((0, 0), (5, 5), (7, 3)):
        assert list(streams(11, (4,), lo, hi)) == []
        assert substream_seeds(11, (4,), lo, hi) == []


@pytest.mark.parametrize("seed, key, lo", [(-1, (3,), 0), (1, (3,), -1), (1, (-3,), 0)])
def test_negative_words_raise_as_the_per_key_form(seed, key, lo):
    with pytest.raises(ValueError) as ref:
        stream(seed, *key, lo)
    with pytest.raises(type(ref.value)):
        list(streams(seed, key, lo, lo + 2))
    with pytest.raises(type(ref.value)):
        substream_seeds(seed, key, lo, lo + 2)


def test_indices_past_one_word_are_rejected():
    # The batch mixes one last key word into a shared prefix; an index of
    # 2**32 or more would be two words.
    with pytest.raises(ParameterError):
        streams(0, (3,), 2**32 - 1, 2**32 + 1)
    with pytest.raises(ParameterError):
        substream_seeds(0, (3,), 0, 2**32 + 1)


_DATA = generate_gaussian_synthetic(10, 2, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: generate_gaussian_synthetic(10, 2, seed=-1), id="synthetic"),
        pytest.param(lambda: flip_labels(_DATA, 0.2, -1), id="flip-labels"),
        pytest.param(lambda: add_feature_noise(_DATA, 0.2, -1), id="feature-noise"),
        pytest.param(lambda: bench_runtime([20], n_val=3, seed=-1), id="bench-runtime"),
        pytest.param(lambda: _rng.streams(-1, (3,), 0, 2), id="streams"),
        pytest.param(lambda: _rng.substream_seeds(-1, (3,), 0, 2), id="substream-seeds"),
        pytest.param(lambda: _rng.substream_seed(-1, 3), id="substream-seed"),
    ],
)
def test_negative_seed_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="seed must be nonnegative"):
        call()
