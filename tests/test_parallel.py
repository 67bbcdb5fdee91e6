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


@pytest.mark.parametrize("block", [(5, 0.3, 1.2), (4, -0.0, 0.0), (7, -2.5e10, 3.0)])
def test_first_merge_is_the_pairwise_update(block):
    # the pairwise update from no samples, written out, in the bits it gives
    nb, mb, m2b = block
    delta = mb - 0.0
    update = (nb, 0.0 + delta * (nb / nb), 0.0 + (m2b + delta * delta * 0 * (nb / nb)))
    assert repr(merge_moments((0, 0.0, 0.0), block)) == repr(update)


def test_means_past_the_square_root_of_float_max_stay_finite():
    # squaring such a mean overflows; a merge from no samples then scaled
    # inf by a zero count, and every stderr read nan
    constant = [block_moments(np.full(k, 1.7e308)) for k in (BLOCK_SIZE, BLOCK_SIZE, 5)]
    assert mean_stderr(merged(constant)) == (1.7e308, 0.0)
    # offsets from the first value and between block means still square, so
    # the spread must stay below about 1e154, as it does here
    x = 1e156 + np.arange(3 * BLOCK_SIZE, dtype=np.float64) * 1e145
    parts = [block_moments(x[lo:hi]) for lo, hi in block_bounds(len(x))]
    mean, stderr = mean_stderr(merged(parts))
    assert mean == pytest.approx(math.fsum(x / len(x)), rel=1e-12)
    # the offsets x - x[0] are exact, and small enough for np.std
    ref = 1e145 * float(np.std((x - x[0]) / 1e145, ddof=1)) / math.sqrt(len(x))
    assert stderr == pytest.approx(ref, rel=1e-6)
