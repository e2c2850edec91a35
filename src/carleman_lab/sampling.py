"""Reproducible sample fields driven by one counter-based generator.

All randomness in the package flows from a single seed through named Philox
streams, so identical (config, seed) pairs reproduce bit-identical sample
sets regardless of evaluation order.  Sample fields are truncated sine series
sum_n c_n sin(n pi x) with c_n drawn standard normal and damped by 1/n^2,
which keeps them inside the weighted first-order space for every admissible
coefficient.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64"

# named stream offsets
STREAM_TERMINAL = 1
STREAM_SOURCE = 2
STREAM_INITIAL = 3
STREAM_CONTROL = 4

DEFAULT_MODES = 16

# Philox is keyed by a 64-bit seed word
MAX_SEED = 2**64 - 1


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream) backed by counter-based Philox.

    Seeds outside [0, MAX_SEED] raise: reduced to 64 bits, each would draw
    the samples of a seed inside the range."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED}], got {seed}")
    key = np.array([np.uint64(seed), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


def sine_coefficients(rng: np.random.Generator) -> np.ndarray:
    n = np.arange(1, DEFAULT_MODES + 1, dtype=float)
    return rng.standard_normal(DEFAULT_MODES) / (n * n)


def sample_fields(seed: int, stream: int, count: int, x: np.ndarray) -> np.ndarray:
    """(count, len(x)) array of independent sine-series draws."""
    rng = stream_rng(seed, stream)
    x = np.asarray(x, dtype=float)
    basis = np.sin(np.pi * np.outer(x, np.arange(1, DEFAULT_MODES + 1, dtype=float)))
    out = np.empty((count, x.size))
    # one matvec per draw: a single matmul would sum in another order and
    # move every sampled value
    for i in range(count):
        out[i] = basis @ sine_coefficients(rng)
    return out
