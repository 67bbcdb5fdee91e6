"""Fixed-size sample blocks and their ordered reduction.

``n`` samples are cut into consecutive blocks of :data:`BLOCK_SIZE`, which
run one after another on the calling thread; each block is reduced to
``(count, mean, M2)`` and the blocks are merged in block order with the
pairwise update of Chan, Golub and LeVeque (1979).  So a reduction holds
one block of samples at a time whatever ``n`` is, and a fixed seed gives
bit-identical results.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, TypeVar

from ._np import np

T = TypeVar("T")

BLOCK_SIZE = 1 << 12  # small enough that one block's PRF words stay in cache


def map_blocks(fn: Callable[[int, int], T], n: int) -> list[T]:
    """Apply ``fn(lo, hi)`` to the blocks covering ``range(n)``, in block order."""
    return [fn(lo, min(lo + BLOCK_SIZE, n)) for lo in range(0, n, BLOCK_SIZE)]


def block_moments(x: np.ndarray) -> tuple[int, float, float]:
    """``(count, mean, M2)`` of a nonempty block, with ``M2 = sum (x - mean)^2``.

    Sums run over offsets from the first value, so a constant block gets
    that value as its mean and ``M2 = 0`` exactly.
    """
    d = x - x[0]
    s = float(np.sum(d))
    return len(x), float(x[0]) + s / len(x), max(0.0, float(np.sum(d * d)) - s * s / len(x))


def mean_stderr(blocks: Iterable[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean and standard error of block moments, merged in the given order."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, mb, m2b in blocks:
        delta, n = mb - mean, n + nb
        mean += delta * (nb / n)
        m2 += m2b + delta * delta * (n - nb) * (nb / n)
    return mean, (math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0)
