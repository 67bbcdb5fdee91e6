"""Finite-dimensional marginals of the Gaussian system attached to the tree.

The tree metric is conditionally negative definite, so the Gromov products

    gram[i][j] = (|g_i| + |g_j| - |g_i^-1 g_j|) / 2

form a positive semidefinite matrix: it is the covariance of the jointly
Gaussian vector of cocycle values ``(X_{g_1}, ..., X_{g_m})``, with
``Var(X_g) = |g|``.  This module builds those Gram matrices, factorizes
them, and draws joint samples, and it provides the closed-form matrix
coefficients of the associated skew product: a single group element only
enters through ``sigma = sqrt(|g|)``, the standard deviation of its shift.

Closed forms are always paired with an independent quadrature route so the
two can be cross-checked:

* window profile: erf-based formula vs. quadrature of the defining
  integral ``E[max(2n - |X|, 0)] / (2n)``,
* cauchy profile: the correlation kernel ``2 pi / (4 + x^2)`` (itself
  quadrature-validated) averaged against the normal density,
* indicator sets: the expected overlap ``E[length((I + X) ∩ J)]`` as a
  +/- combination of four erf terms vs. direct quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    check_interval,
    gaussian_expectation,
    interval_overlap,
    normal_pdf,
    shifted_overlap_mean,
)
from .profiles import ProfileVector, cauchy_kernel, cauchy_norm_sq
from .words import Word, distance

__all__ = [
    "GaussianSystem",
    "CocycleLaw",
    "gram_matrix",
    "sample_cocycle_vector",
    "gaussian_window_coefficient",
    "window_coefficient_by_quadrature",
    "cauchy_coefficient",
    "interval_overlap_measure",
    "interval_overlap_by_quadrature",
    "gaussian_skew_coefficient",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
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

    def sampler(self, seed: int) -> Callable[[int], np.ndarray]:
        """The function ``k -> the next k joint draws`` of one ``PCG64(seed)`` stream."""
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = np.flatnonzero(self.active)
        factor = self.chol[np.ix_(idx, idx)].T

        def draw(k: int) -> np.ndarray:
            out = np.zeros((k, len(self.words)))
            out[:, idx] = rng.standard_normal((k, idx.size)) @ factor
            return out

        return draw

    def sample_matrix(self, n: int, seed: int) -> np.ndarray:
        """``n`` joint draws as an (n, m) array, deterministic in ``seed``."""
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        return self.sampler(seed)(n)

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


def sample_cocycle_vector(system: GaussianSystem, seed: int) -> np.ndarray:
    """One joint draw of the cocycle vector over ``system.words``."""
    return system.sample(seed)


@dataclass(frozen=True)
class CocycleLaw:
    """The law N(0, |g|) of a single Gaussian cocycle value."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @classmethod
    def from_word(cls, g: Word) -> "CocycleLaw":
        return cls(math.sqrt(len(g)))

    def density(self, x: float) -> float:
        """Normal density; only defined for sigma > 0 (else a point mass at 0)."""
        if self.sigma == 0.0:
            raise ValueError("the length-0 law is a point mass and has no density")
        return normal_pdf(x, self.sigma)


def gaussian_window_coefficient(sigma: float, n: int) -> float:
    """Normalized window coefficient ``E[max(2n - |X|, 0)] / (2n)``, X ~ N(0, sigma^2).

    Closed form via erf; approaches ``1 - sigma / (n sqrt(2 pi))`` once
    ``n >> sigma``, and equals 1 at sigma = 0.
    """
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return 1.0
    c = 2.0 * n
    z = c / sigma
    return (
        c * math.erf(z / math.sqrt(2.0))
        - sigma * _SQRT_2_OVER_PI * (1.0 - math.exp(-0.5 * z * z))
    ) / c


def window_coefficient_by_quadrature(sigma: float, n: int, tol: float = 1e-10) -> float:
    """Quadrature of the defining integral of :func:`gaussian_window_coefficient`."""
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    c = 2.0 * n
    value = gaussian_expectation(
        lambda x: max(c - abs(x), 0.0), sigma, tol, breakpoints=(-c, 0.0, c)
    )
    return value / c


def cauchy_coefficient(sigma: float) -> float:
    """Raw cauchy-profile coefficient ``E[K(X)]`` with ``K(x) = 2 pi / (4 + x^2)``.

    Averaged by adaptive quadrature; equals ``K(0) = pi/2`` at sigma = 0 and
    decreases strictly in sigma.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return cauchy_kernel(0.0)
    return gaussian_expectation(cauchy_kernel, sigma)


def interval_overlap_measure(
    g: Word, first: Sequence[float], second: Sequence[float]
) -> float:
    """``E[length((first + X) ∩ second)]`` for the shift ``X ~ N(0, |g|)``.

    This is the overlap measure of the two indicator sets under the skew
    translate of ``g``; it is symmetric in g <-> g^-1 because only |g|
    enters.
    """
    i = check_interval(first)
    j = check_interval(second)
    return shifted_overlap_mean(math.sqrt(len(g)), i, j)


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


def gaussian_skew_coefficient(g: Word, profile: ProfileVector) -> float:
    """Diagonal matrix coefficient of the Gaussian skew product at ``g``.

    Dispatches on the profile kind (window, cauchy or gaussian); the group
    element enters only through ``sigma = sqrt(|g|)``, so words of equal
    length give equal values.
    """
    sigma = math.sqrt(len(g))
    if profile.kind == "window":
        return gaussian_window_coefficient(sigma, profile.n)
    if profile.kind == "cauchy":
        value = cauchy_coefficient(sigma)
        return value / cauchy_norm_sq() if profile.normalization == "unit" else value
    if profile.kind == "gaussian":
        unit = 1.0 / math.sqrt(1.0 + sigma * sigma)
        if profile.normalization == "unit":
            return unit
        return math.sqrt(0.5 * math.pi) * unit
    raise ValueError(f"unknown profile {profile.kind!r} for the Gaussian skew system")
