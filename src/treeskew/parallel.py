"""Fixed-size sample blocks and their ordered reduction.

A Monte Carlo sweep reads its ``n`` samples in consecutive blocks of
:data:`BLOCK_SIZE`, one after another on the calling thread, and every
point of the sweep takes its draws from a block before the next block is
drawn.  Each point's block is reduced to ``(count, mean, M2)`` and merged
into that point's running moments in block order with the pairwise update
of Chan, Golub and LeVeque (1979).  So a reduction holds one block of
samples at a time whatever ``n`` is, and a point's result is bit-identical
for a fixed seed whatever other points share the sweep.
"""

from __future__ import annotations

import math
from typing import Iterator

from ._np import np

BLOCK_SIZE = 1 << 12  # small enough that one block's PRF words stay in cache


def block_bounds(n: int) -> Iterator[tuple[int, int]]:
    """The ``(lo, hi)`` bounds of the blocks covering ``range(n)``, in block order."""
    return ((lo, min(lo + BLOCK_SIZE, n)) for lo in range(0, n, BLOCK_SIZE))


def block_moments(x: np.ndarray) -> tuple[int, float, float]:
    """``(count, mean, M2)`` of a nonempty block, with ``M2 = sum (x - mean)^2``.

    Sums run over offsets from the first value, so a constant block gets
    that value as its mean and ``M2 = 0`` exactly.
    """
    d = x - x[0]
    s = float(np.sum(d))
    return len(x), float(x[0]) + s / len(x), max(0.0, float(np.sum(d * d)) - s * s / len(x))


def merge_moments(acc: tuple, block: tuple) -> tuple[int, float, float]:
    """The moments of ``acc``'s samples followed by ``block``'s, by the pairwise update.

    A running merge starts from the moments of no samples, ``(0, 0.0, 0.0)``.
    Merged into those, a block keeps its own moments (``0.0 + mb`` is the
    update's mean, bit for bit): the update would square the block's mean
    and scale it by the empty count, which is ``inf * 0``, so ``nan``, once
    the mean passes about 1.3e154.
    """
    (n, mean, m2), (nb, mb, m2b) = acc, block
    if not n:
        return nb, 0.0 + mb, m2b
    delta, n = mb - mean, n + nb
    return n, mean + delta * (nb / n), m2 + (m2b + delta * delta * (n - nb) * (nb / n))


def mean_stderr(moments: tuple[int, float, float]) -> tuple[float, float]:
    """Mean and standard error of merged ``(count, mean, M2)`` moments."""
    n, mean, m2 = moments
    return mean, (math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0)
