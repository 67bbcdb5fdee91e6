import functools
import math

import numpy as np
import pytest

from treeskew.parallel import (
    BLOCK_SIZE,
    block_bounds,
    block_moments,
    mean_stderr,
    merge_moments,
)


def merged(parts):
    """The moments of ``parts`` merged in order, as a Monte Carlo loop merges its blocks."""
    return functools.reduce(merge_moments, parts, (0, 0.0, 0.0))


def two_pass(x: np.ndarray) -> tuple[float, float]:
    mean = math.fsum(x) / len(x)
    var = math.fsum((v - mean) ** 2 for v in x) / (len(x) - 1)
    return mean, math.sqrt(var / len(x))


def test_blocks_cover_range_in_order():
    n = 3 * BLOCK_SIZE + 5
    bounds = list(block_bounds(n))
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert all(hi - lo == BLOCK_SIZE for lo, hi in bounds[:-1])
    assert list(block_bounds(0)) == []


@pytest.mark.parametrize("split", [[1000], [1, 999], [400, 1, 599], [250] * 4])
def test_merged_moments_match_two_pass(split):
    rng = np.random.default_rng(3)
    x = 1e6 + rng.standard_normal(sum(split))  # a large offset punishes naive sums
    edges = np.cumsum([0] + split)
    parts = [block_moments(x[a:b]) for a, b in zip(edges, edges[1:])]
    mean, stderr = mean_stderr(merged(parts))
    ref_mean, ref_stderr = two_pass(x)
    # offsets from a block's first value are exact here, so only the float64
    # summation of 1000 terms separates the two: n * eps is about 2e-13
    assert mean == pytest.approx(ref_mean, rel=1e-15)
    assert stderr == pytest.approx(ref_stderr, rel=1e-12)


def test_constant_blocks_are_exact():
    c = math.exp(-0.5)
    parts = [block_moments(np.full(k, c)) for k in (20_000, 3, 4096)]
    assert parts[0] == (20_000, c, 0.0)
    assert mean_stderr(merged(parts)) == (c, 0.0)


def test_single_sample():
    assert mean_stderr(merged([block_moments(np.array([2.5]))])) == (2.5, 0.0)
