import numpy as np
import pytest

from carleman_lab.sampling import (
    MAX_SEED,
    STREAM_TERMINAL,
    sample_fields,
    sine_coefficients,
    stream_rng,
)
from oracles import sine_series


@pytest.mark.parametrize("n, count", [(512, 50), (128, 20), (512, 20), (96, 1)])
def test_sample_fields_equal_one_series_per_draw(n, count):
    x = np.linspace(0.0, 1.0, n + 1) ** 2
    rng = stream_rng(4, STREAM_TERMINAL)
    expected = np.array([sine_series(sine_coefficients(rng), x) for _ in range(count)])
    assert np.array_equal(sample_fields(4, STREAM_TERMINAL, count, x), expected)


def test_seed_range():
    # a seed reduced to 64 bits would draw another seed's samples
    x = np.linspace(0.0, 1.0, 9)
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="seed must lie in"):
            sample_fields(seed, STREAM_TERMINAL, 2, x)
    top = sample_fields(MAX_SEED, STREAM_TERMINAL, 2, x)
    assert not np.array_equal(top, sample_fields(0, STREAM_TERMINAL, 2, x))
