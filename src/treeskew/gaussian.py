"""Finite-dimensional marginals of the Gaussian system attached to the tree.

The tree metric is conditionally negative definite, so the Gromov products

    gram[i][j] = (|g_i| + |g_j| - |g_i^-1 g_j|) / 2

form a positive semidefinite matrix: it is the covariance of the jointly
Gaussian vector of cocycle values ``(X_{g_1}, ..., X_{g_m})``, with
``Var(X_g) = |g|``.  This module builds those Gram matrices, factorizes
them, and draws joint samples.

A single group element only enters a matrix coefficient through
``sigma = sqrt(|g|)``, the standard deviation of its shift.  The closed
forms at any sigma are :meth:`ProfileVector.gaussian_mean`; this module
keeps their independent quadrature routes, so the two can be
cross-checked:

* window profile: quadrature of the defining integral
  ``E[max(2n - |X|, 0)] / (2n)``,
* indicator sets: quadrature of the expected overlap
  ``E[length((I + X) ∩ J)]``.

The cauchy pair has no closed form here: ``gaussian_mean`` averages its
kernel ``2 pi / (4 + x^2)`` by quadrature, and Monte Carlo is its
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import check_interval, gaussian_expectation, interval_overlap
from .words import Word, distance

__all__ = [
    "GaussianSystem",
    "gram_matrix",
    "window_coefficient_by_quadrature",
    "interval_overlap_by_quadrature",
]

_JITTER_LADDER = (0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9)


@dataclass
class GaussianSystem:
    """A finite word set with its Gram matrix and Cholesky factor.

    ``jitter`` is the smallest ladder value (at most 1e-9) that made the
    factorization succeed; it is added only on the diagonal of the rows
    with nonzero variance, so components of zero-variance words (the
    identity) sample to exactly 0.
    """

    words: tuple[Word, ...]
    gram: np.ndarray
    chol: np.ndarray
    jitter: float
    active: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.words)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.gram)[0])

    def reconstruction_target(self) -> np.ndarray:
        target = self.gram.copy()
        target[self.active, self.active] += self.jitter
        return target

    def reconstruction_error(self) -> float:
        """Max entrywise error of ``chol @ chol.T`` against gram + jitter."""
        return float(np.max(np.abs(self.chol @ self.chol.T - self.reconstruction_target())))

    def sample_matrix(self, n: int, seed: int) -> np.ndarray:
        """``n`` joint draws as an (n, m) array from one ``PCG64(seed)`` stream."""
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = np.flatnonzero(self.active)
        out = np.zeros((n, len(self.words)))
        out[:, idx] = rng.standard_normal((n, idx.size)) @ self.chol[np.ix_(idx, idx)].T
        return out

    def sample(self, seed: int) -> np.ndarray:
        return self.sample_matrix(1, seed)[0]


def gram_matrix(words: Sequence[Word]) -> GaussianSystem:
    """Build the Gaussian marginal system on a duplicate-free word list."""
    words = tuple(words)
    if not words:
        raise ValueError("word list must be nonempty")
    rank = words[0].rank
    for w in words:
        if w.rank != rank:
            raise ValueError(f"rank mismatch in word list: {w.rank} vs {rank}")
    if len(set(words)) != len(words):
        raise ValueError("duplicate words in marginal set")
    m = len(words)
    lengths = [len(w) for w in words]
    gram = np.empty((m, m))
    for i in range(m):
        gram[i, i] = lengths[i]
        for j in range(i + 1, m):
            gp = 0.5 * (lengths[i] + lengths[j] - distance(words[i], words[j]))
            gram[i, j] = gram[j, i] = gp
    chol, jitter, active = _factor(gram)
    return GaussianSystem(words, gram, chol, jitter, active)


def _factor(gram: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    active = gram.diagonal() > 0.0
    idx = np.flatnonzero(active)
    chol = np.zeros_like(gram)
    if idx.size == 0:
        return chol, 0.0, active
    sub = gram[np.ix_(idx, idx)]
    for jitter in _JITTER_LADDER:
        try:
            factor = np.linalg.cholesky(sub + jitter * np.eye(idx.size))
        except np.linalg.LinAlgError:
            continue
        chol[np.ix_(idx, idx)] = factor
        return chol, jitter, active
    raise np.linalg.LinAlgError(
        "Gram matrix is not positive semidefinite within the jitter ladder"
    )


def window_coefficient_by_quadrature(sigma: float, n: int, tol: float = 1e-10) -> float:
    """``E[max(2n - |X|, 0)] / (2n)`` for ``X ~ N(0, sigma^2)``, by quadrature."""
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    c = 2.0 * n
    value = gaussian_expectation(
        lambda x: max(c - abs(x), 0.0), sigma, tol, breakpoints=(-c, 0.0, c)
    )
    return value / c


def interval_overlap_by_quadrature(
    sigma: float, first: Sequence[float], second: Sequence[float], tol: float = 1e-10
) -> float:
    """Quadrature route for the expected interval overlap."""
    i = check_interval(first)
    j = check_interval(second)
    if sigma == 0.0:
        return interval_overlap(i, j)
    knots = (j[0] - i[1], j[0] - i[0], j[1] - i[1], j[1] - i[0])
    return gaussian_expectation(
        lambda x: interval_overlap((i[0] + x, i[1] + x), j), sigma, tol, breakpoints=knots
    )
