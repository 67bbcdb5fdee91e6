"""Finite-dimensional marginals of the Gaussian system attached to the tree.

The tree metric is conditionally negative definite, so the Gromov products

    gram[i][j] = (|g_i| + |g_j| - |g_i^-1 g_j|) / 2

form a positive semidefinite matrix: it is the covariance of the jointly
Gaussian vector of cocycle values ``(X_{g_1}, ..., X_{g_m})``, with
``Var(X_g) = |g|``.  At the base vertex the Gromov product is the length
of the common prefix, so ``X_g`` is the sum of i.i.d. N(0, 1) edge
variables over the edges from the base vertex to ``g``.  This module builds
the 0/1 ancestor-edge incidence ``A`` of a word set, which is an exact Gram
factor (``gram = A A^T``), and draws joint samples through it.

A single group element only enters a matrix coefficient through
``sigma = sqrt(|g|)``, the standard deviation of its shift.  The closed
forms at any sigma are :meth:`ProfileVector.gaussian_mean`; this module
keeps their independent quadrature route, the expected interval overlap
``E[length((I + X) ∩ J)]``, so the two can be cross-checked.  It covers
the window profile too: ``window(n)`` is the overlap of ``[-n, n]`` with
itself, divided by ``2n``.

The cauchy pair has no closed form here: ``gaussian_mean`` averages its
kernel ``2 pi / (4 + x^2)`` by quadrature, and Monte Carlo is its
cross-check.

:class:`GaussianMeasure` is the Gaussian system that
:mod:`treeskew.koopman` measures: the law ``N(0, |g|)`` of one shift.  It
owns the exact kernel means at ``sigma = sqrt(|g|)``, the capped-shift
mean ``E[min(|X|, w)] = sigma sqrt(2/pi) - 2 E[(X - w)+]`` to which the
window defect and the symmetric difference both reduce, its a priori
bound and the Monte Carlo draws.  Those draws depend on a word only
through its length, so a sweep reads one normal block per block of draws
from the counter-addressed stream :func:`treeskew.rng.normals` and scales
it by ``sqrt(|g|)`` for every length.  Draw ``i`` of a seed is normal ``i``
of its stream, as orientation draw ``i`` reads the orientation with seed
``sample_seed(seed, i)``, so any block is a pure function of its bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from ._np import np
from .numerics import check_interval, expected_excess, gaussian_expectation, interval_overlap
from .profiles import ProfileVector
from .rng import normals
from .words import Word

__all__ = [
    "GaussianMeasure",
    "GaussianSystem",
    "gram_matrix",
    "interval_overlap_by_quadrature",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class GaussianMeasure:
    """The Gaussian system's shift law: the shift of ``g`` is ``N(0, |g|)``."""

    rank: int = 2
    # Monte Carlo draws depend on a word only through its length.
    draws_read_edges: ClassVar[bool] = False

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    def label(self) -> str:
        return "gaussian"

    def kernel_mean(self, xi: ProfileVector, eta: ProfileVector, length: int) -> tuple[float, str]:
        """:meth:`ProfileVector.gaussian_mean` at ``sigma = sqrt(length)``, with its method."""
        return xi.gaussian_mean(eta, math.sqrt(length))

    def capped_shift_mean(self, length: int, width: float) -> float:
        """``E[min(|X|, width)]`` for ``X ~ N(0, length)``.

        It is ``sigma sqrt(2/pi) - 2 E[(X - width)+]`` with ``sigma = sqrt(length)``.
        """
        sigma = math.sqrt(length)
        return sigma * _SQRT_2_OVER_PI - 2.0 * expected_excess(width, sigma)

    def shift_bound(self, radius: int) -> float:
        """``E|X| = sigma sqrt(2/pi)`` at the ball's largest ``sigma = sqrt(radius)``."""
        return math.sqrt(radius) * _SQRT_2_OVER_PI

    def sampler(self, words: Iterable[Word], seed: int, kernel: Callable) -> Callable:
        """``kernel(sqrt(|g|) z)`` for each word, from one normal block ``z`` per block of draws.

        ``z`` is normals ``lo..hi-1`` of the ``seed`` stream, so each word's
        draws are ``sqrt(|g|)`` times that stream, and a block is the same
        whatever blocks were drawn before it.
        """
        sigmas = [math.sqrt(len(g)) for g in words]

        def draws(lo: int, hi: int) -> Iterator[np.ndarray]:
            z = normals(seed, lo, hi)
            return (kernel(sigma * z) for sigma in sigmas)

        return draws


@dataclass
class GaussianSystem:
    """A finite word set with its Gram matrix and ancestor-edge incidence.

    Column ``e`` of ``incidence`` is one tree edge on the way from the base
    vertex to some word of the set; ``incidence[i, e]`` is 1 when that edge
    lies on the geodesic to ``words[i]``.  Each row sums to the word length,
    and the identity's row is all zero, so its component samples to exactly 0.
    """

    words: tuple[Word, ...]
    gram: np.ndarray
    incidence: np.ndarray

    def __len__(self) -> int:
        return len(self.words)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.gram)[0])

    def sample_matrix(self, n: int, seed: int) -> np.ndarray:
        """``n`` joint draws as an (n, m) array.

        Draw ``i`` reads its edge normals, one per incidence column, at
        positions ``i * columns ..`` of the ``seed`` stream of
        :func:`treeskew.rng.normals`.
        """
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        columns = self.incidence.shape[1]
        return normals(seed, 0, n * columns).reshape(n, columns) @ self.incidence.T


def gram_matrix(words: Sequence[Word]) -> GaussianSystem:
    """Build the Gaussian marginal system on a duplicate-free word list.

    Every distinct nonempty prefix of the words names one edge column, keyed
    by the column of its parent prefix and its last letter.
    """
    words = tuple(words)
    if not words:
        raise ValueError("word list must be nonempty")
    rank = words[0].rank
    for w in words:
        if w.rank != rank:
            raise ValueError(f"rank mismatch in word list: {w.rank} vs {rank}")
    if len(set(words)) != len(words):
        raise ValueError("duplicate words in marginal set")
    columns: dict[tuple[int, int], int] = {}
    rows: list[int] = []
    cols: list[int] = []
    for i, w in enumerate(words):
        col = -1
        for s in w.letters:
            col = columns.setdefault((col, s), len(columns))
            rows.append(i)
            cols.append(col)
    incidence = np.zeros((len(words), len(columns)))
    incidence[rows, cols] = 1.0
    return GaussianSystem(words, incidence @ incidence.T, incidence)


def interval_overlap_by_quadrature(
    sigma: float, first: Sequence[float], second: Sequence[float]
) -> float:
    """Quadrature route for the expected interval overlap."""
    i = check_interval(first)
    j = check_interval(second)
    if sigma == 0.0:
        return interval_overlap(i, j)
    knots = (j[0] - i[1], j[0] - i[0], j[1] - i[1], j[1] - i[0])
    return gaussian_expectation(
        lambda x: interval_overlap((i[0] + x, i[1] + x), j), sigma, breakpoints=knots
    )
