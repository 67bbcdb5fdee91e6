"""Coefficient experiments over the two skew-product systems.

This is the measurement layer: it evaluates diagonal and cross matrix
coefficients ``<pi(g) xi, eta>`` of the Koopman representation for either
system (the Bernoulli orientation system at parameter ``p``, or the
Gaussian system), sweeps them over shells of the group, and emits the
results as deterministic CSV.

Every value is ``E_mu[K(S_g)]``: the profile correlation kernel ``K``
averaged over the shift ``S_g`` under the base measure ``mu``.  That is
a Koopman matrix coefficient when the action preserves ``mu``, as the
Gaussian system and the orientation system at ``p = 1/2`` do.  At
``p != 1/2`` the orientation action is only nonsingular: the unitary
Koopman operator carries the factor ``sqrt(d g_*mu / d mu)``, which is
not applied here, so those values are not positive definite functions
of ``g``.

Almost invariance is one functional, the capped-shift mean
``E[min(|S_g|, w)]``.  The window defect ``1 - <pi(g) xi_n, xi_n>`` is
that mean at ``w = 2n``, divided by ``2n``; the symmetric difference
``nu(beta_g A delta A)`` of a strip ``A = Omega x I`` is twice that mean at
``w = |I|``.  Both are computed directly, with no subtraction of nearly
equal terms.

A system is the law of its shift, and each owns its rules:
:class:`treeskew.orientation.OrientationMeasure` (the binomial path-sum
law, with draws from the edge PRF) and
:class:`treeskew.gaussian.GaussianMeasure` (``N(0, |g|)``, with the
erf/quadrature closed forms and the counter-addressed normals of
:func:`treeskew.rng.normals`).  Each supplies its ``label``, whether its
draws read a word's own edges (``draws_read_edges``), the exact kernel
mean and the capped-shift mean of a length-L shift (``kernel_mean``,
``capped_shift_mean``), an a priori bound on ``E|S|`` over a ball
(``shift_bound``) and Monte Carlo draws (``sampler``).  Which profile
pairs can be measured is not a system's rule: it is
:meth:`ProfileVector.pair_kind`, the same on both systems.
This module holds only the measurement protocol: exact routes come
first, and Monte Carlo is the independent cross-check, streamed in
fixed-size blocks (:mod:`treeskew.parallel`) so that memory stays
bounded and results are bit-identical for a fixed seed.
A Monte Carlo sweep is one loop over those blocks for all of its points,
and :func:`coefficient` with ``method="mc"`` is its one-point case.  The
system's sampler draws each block once for every point, sharing what the
points share (the seeds and prefix edges of orientation words, the normal
block of the Gaussian system), and each point's block moments are merged
in block order on their own, so a point's bits do not depend on the other
points of its sweep.

A decay point covers the words that share one computation: a whole
sampled shell for the exact and quadrature routes, and for Monte Carlo on
a system whose draws depend on a word only through its length; a single
word for Monte Carlo on a system whose draws read the word's own edges
(``draws_read_edges``).

CSV schemas (all reals printed with 17 significant digits):

* decay curves:  ``system,profile,radius,word,method,value,stderr,samples,seed``
* window sweeps: ``system,ball_radius,n,sup_defect,bound``
"""

from __future__ import annotations

import csv
import functools
import io
import random
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO, Union

from ._np import np
from .gaussian import GaussianMeasure
from .orientation import OrientationMeasure
from .parallel import block_bounds, block_moments, mean_stderr, merge_moments
from .profiles import ProfileVector, check_window_size
from .rng import MASK64
from .words import Shell, Word, shell, shell_size

__all__ = [
    "System",
    "MCBudget",
    "CoefficientEstimate",
    "coefficient",
    "symmetric_difference",
    "symmetric_difference_mc",
    "DecayPoint",
    "DecayCurve",
    "decay_sweep",
    "SweepRow",
    "SweepTable",
    "almost_invariant_sweep",
    "emit_csv",
]


# The skew product to measure, given by the law of its shift.
System = Union[OrientationMeasure, GaussianMeasure]


@dataclass(frozen=True)
class MCBudget:
    """Monte Carlo budget: sample count and base seed."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        # every draw reads the seed modulo 2**64, so a larger seed would
        # repeat the draws of a smaller one under another name
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class CoefficientEstimate:
    """A coefficient value with its provenance.

    ``method`` is one of ``exact``, ``quadrature`` or ``monte-carlo``;
    the standard error is 0 for the two deterministic methods.
    """

    value: float
    stderr: float
    method: str
    samples: int
    seed: int

    def __post_init__(self):
        if self.method not in ("exact", "quadrature", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


def _check_method(method: str) -> None:
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}")


def _check_rank(system: System, g: Word) -> None:
    if g.rank != system.rank:
        raise ValueError(f"rank mismatch: word has {g.rank}, system has {system.rank}")


def _mc_estimates(system: System, points: Sequence[Sequence[Word]], budget, kernel) -> list:
    """Monte Carlo means of ``kernel(shift)``, one per point, in one loop over sample blocks.

    A point is estimated from the draws of its first word.  Each block is
    drawn once for all the points by the system's ``sampler``, which draws
    what their words share only once, and each point's block moments are
    merged in block order, so a point's estimate is the same whatever other
    points share the loop.
    """
    mc = budget or MCBudget()
    draws = system.sampler((words[0] for words in points), mc.seed, kernel)
    acc = [(0, 0.0, 0.0)] * len(points)
    for lo, hi in block_bounds(mc.samples):
        # map reduces each point's values as they come, so one array is held at a time
        acc = list(map(merge_moments, acc, map(block_moments, draws(lo, hi))))
    return [CoefficientEstimate(*mean_stderr(a), "monte-carlo", mc.samples, mc.seed) for a in acc]


def coefficient(
    system: System,
    g: Word,
    xi: ProfileVector,
    eta: ProfileVector,
    budget: Optional[MCBudget] = None,
    method: str = "exact",
) -> CoefficientEstimate:
    """Matrix coefficient ``<pi(g) xi, eta>`` of the chosen system.

    ``method="exact"`` averages the profile correlation against the law of
    the shift (the system's ``kernel_mean``): the binomial path-sum law for
    the orientation system, the erf/quadrature closed forms at
    ``sigma = sqrt(|g|)`` for the Gaussian one.  In both systems the shift
    is a sum over the outward geodesic, so this value depends on ``g`` only
    through its length.  ``method="mc"``
    takes the Monte Carlo route with the given budget.  The value is always
    bounded by ``xi.norm() * eta.norm()`` because the correlation kernel is
    pointwise bounded by it.  A pair with no correlation rule
    (:meth:`ProfileVector.pair_kind`) raises :class:`ValueError` before
    any draw.
    """
    _check_rank(system, g)
    _check_method(method)
    xi.pair_kind(eta)
    if method == "mc":
        return _mc_estimates(system, [(g,)], budget, lambda s: xi.correlation_array(eta, s))[0]
    seed = budget.seed if budget is not None else 0
    value, how = system.kernel_mean(xi, eta, len(g))
    return CoefficientEstimate(value, 0.0, how, 0, seed)


def symmetric_difference(system: System, g: Word, a: ProfileVector) -> float:
    """Measure of ``beta_g(A) symmetric-difference A`` for a strip set A.

    ``A`` is the product of the base space with the profile's interval
    ``[lo, hi]``.  Each fiber of ``beta_g A delta A`` is an interval and its
    shift by ``S_g``, whose symmetric difference has length
    ``2 min(|S_g|, hi - lo)``, so

        nu(beta_g A  delta  A) = 2 E[min(|S_g|, hi - lo)],

    the system's capped-shift mean, evaluated exactly with no subtraction of
    nearly equal terms.
    """
    _check_rank(system, g)
    lo, hi = a.support_interval()
    return 2.0 * system.capped_shift_mean(len(g), hi - lo)


def symmetric_difference_mc(
    system: System, g: Word, a: ProfileVector, budget: Optional[MCBudget] = None
) -> CoefficientEstimate:
    """Direct Monte Carlo of the symmetric-difference measure.

    Each sampled orientation (or Gaussian draw) contributes the exact
    fiberwise length ``2 min(|shift|, hi - lo)``; the estimate averages
    those fibers.
    """
    _check_rank(system, g)
    lo, hi = a.support_interval()
    width = hi - lo
    return _mc_estimates(system, [(g,)], budget, lambda s: 2.0 * np.minimum(np.abs(s), width))[0]


@dataclass(frozen=True)
class DecayPoint:
    """One estimate of a decay sweep and the words of shell ``radius`` it covers.

    A point covers the words that share one computation.  Exact and
    quadrature values, and the Gaussian Monte Carlo draws, depend on a word
    only through its length, so such a point covers every sampled word of
    its shell; an orientation Monte Carlo point covers one word, estimated
    from the draws on that word's own edges.  ``words`` holds the shell's
    indices and builds each :class:`Word` only when it is read.
    """

    radius: int
    words: Shell
    estimate: CoefficientEstimate


@dataclass(frozen=True)
class DecayCurve:
    """A decay sweep: its points in radius order, one CSV row per covered word.

    Words stay indices until they are read: :func:`emit_csv` prints a whole
    shell's labels without building its words.
    """

    system: System
    profile: ProfileVector
    points: tuple[DecayPoint, ...]


_ENUMERATION_LIMIT = 100_000


def _distinct_draws(rng: random.Random, size: int, cap: int) -> tuple[int, ...]:
    """``cap`` distinct indices below ``size``, drawn as ``rng.sample`` draws from a large range.

    ``Random.sample`` takes ``len()`` of its population, which overflows
    beyond ``sys.maxsize``; this is the loop of its set branch, redrawing
    each index already chosen.
    """
    chosen: dict[int, None] = {}
    while len(chosen) < cap:
        chosen.setdefault(rng.randrange(size))
    return tuple(chosen)


def _shell_words(length: int, rank: int, cap: Optional[int], seed: int) -> Shell:
    """The whole shell under the cap; otherwise a seeded sample of ``cap`` distinct indices."""
    size = shell_size(length, rank)
    if cap is None or size <= cap:
        return shell(length, rank)
    rng = random.Random(f"shell:{seed}:{length}")
    if size > sys.maxsize:
        return Shell(length, rank, _distinct_draws(rng, size, cap))
    return Shell(length, rank, tuple(rng.sample(range(size), cap)))


def _check_sweep(
    system: System,
    profile: ProfileVector,
    max_radius: int,
    per_shell_cap: Optional[int],
    method: str,
) -> None:
    """Reject a :func:`decay_sweep` request before any shell is enumerated."""
    if max_radius < 1:
        raise ValueError(f"max_radius must be >= 1, got {max_radius}")
    if per_shell_cap is not None and per_shell_cap < 1:
        raise ValueError(f"per_shell_cap must be >= 1, got {per_shell_cap}")
    _check_method(method)
    for length in range(1, max_radius + 1):
        size = shell_size(length, system.rank)
        evaluated = size if per_shell_cap is None else min(per_shell_cap, size)
        if evaluated > _ENUMERATION_LIMIT:
            raise ValueError(
                f"shell of length {length} has {size} words; "
                f"pass per_shell_cap <= {_ENUMERATION_LIMIT}"
            )


def decay_sweep(
    system: System,
    profile: ProfileVector,
    max_radius: int,
    per_shell_cap: Optional[int] = None,
    budget: Optional[MCBudget] = None,
    method: str = "exact",
) -> DecayCurve:
    """Evaluate the diagonal coefficient over shells ``L = 1..max_radius``.

    Shells are enumerated exhaustively when they fit under the cap and
    sampled uniformly (seeded, without replacement) otherwise.  Each point
    is estimated for the words that share its draws.  The exact and
    quadrature routes see a word only through its length, and so does Monte
    Carlo on the Gaussian system, so they hold one point per shell.  Monte
    Carlo on a system whose draws read each word's own edges (the
    orientation system) holds one point per word; there the spread within a
    shell is a real check: any spread beyond the noise would reveal a
    dependence on word shape beyond length.  An exact point is one
    :func:`coefficient` call; the Monte Carlo points are estimated together
    in one loop over sample blocks, and each equals its own
    ``coefficient(..., method="mc")`` call bit for bit.
    """
    _check_sweep(system, profile, max_radius, per_shell_cap, method)
    seed = budget.seed if budget is not None else 0
    groups = [_shell_words(L, system.rank, per_shell_cap, seed) for L in range(1, max_radius + 1)]
    if method == "mc" and system.draws_read_edges:
        groups = [shell[i : i + 1] for shell in groups for i in range(len(shell))]
    if method == "mc":
        kernel = functools.partial(profile.correlation_array, profile)
        estimates = _mc_estimates(system, groups, budget, kernel)
    else:
        estimates = [coefficient(system, w[0], profile, profile, budget, method) for w in groups]
    points = (DecayPoint(words.length, words, est) for words, est in zip(groups, estimates))
    return DecayCurve(system, profile, tuple(points))


@dataclass(frozen=True)
class SweepRow:
    """Sup of the window defect over a ball, with its certified bound."""

    n: int
    sup_defect: float
    bound: float


@dataclass(frozen=True)
class SweepTable:
    system: System
    ball_radius: int
    rows: tuple[SweepRow, ...]


def almost_invariant_sweep(
    system: System, ball_radius: int, window_sizes: Iterable[int]
) -> SweepTable:
    """Sup over the ball of the window defect ``1 - <pi(g) xi_n, xi_n>``.

    Window coefficients depend on a word only through its length in both
    systems, so the sup over ``ball(R)`` is the max over lengths
    ``0..R``.  The bound column is the certified a priori rate: the
    system's bound on ``E|S|`` over the ball, ``R`` for the orientation
    system and ``sqrt(R) sqrt(2/pi)`` for the Gaussian one, over ``2n``.
    The defect is the capped-shift mean ``E[min(|S|, 2n)] / (2n)``, computed
    directly: subtracting a coefficient close to 1 from 1 would cancel most
    of its digits instead.  So ``sup_defect <= bound`` holds in floating
    point with no slack; for the Gaussian system it holds by construction,
    since the defect subtracts a nonnegative excess from the bound's own
    numerator.  Window sizes must be integers; no size is truncated.
    """
    if ball_radius < 0:
        raise ValueError(f"ball_radius must be >= 0, got {ball_radius}")
    sizes = [check_window_size(n) for n in window_sizes]
    if not sizes:
        raise ValueError("at least one window size is required")
    rows = []
    for n in sizes:
        width = 2.0 * n
        defect = max(
            system.capped_shift_mean(length, width) / width for length in range(ball_radius + 1)
        )
        rows.append(SweepRow(n, defect, system.shift_bound(ball_radius) / width))
    return SweepTable(system, ball_radius, tuple(rows))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_fields(*fields) -> str:
    """``fields`` as one CSV line, quoted as :func:`csv.writer` quotes them, unterminated."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def emit_csv(obj: Union[DecayCurve, SweepTable], fh: TextIO) -> None:
    """Write a curve or sweep table as CSV to an open text file.

    Schemas are in the module docstring.  Output is byte-stable: fixed
    header, fixed row order, reals at 17 significant digits.  A decay
    point's leading fields (system, profile, radius) and trailing fields
    (method, value, stderr, samples, seed) are formatted once, and its rows
    go out as one ``fh.write`` around its word labels, which are letters,
    digits, spaces, ``^`` and ``-`` and so never need quoting.
    """
    writer = csv.writer(fh, lineterminator="\n")
    if isinstance(obj, DecayCurve):
        writer.writerow(
            ["system", "profile", "radius", "word", "method", "value", "stderr", "samples", "seed"]
        )
        system, profile = obj.system.label(), obj.profile.label()
        for pt in obj.points:
            est = pt.estimate
            head = _csv_fields(system, profile, pt.radius) + ","
            tail = "," + _csv_fields(
                est.method, _fmt(est.value), _fmt(est.stderr), est.samples, est.seed
            ) + "\n"
            fh.write("".join([f"{head}{label}{tail}" for label in pt.words.labels()]))
    elif isinstance(obj, SweepTable):
        writer.writerow(["system", "ball_radius", "n", "sup_defect", "bound"])
        system = obj.system.label()
        writer.writerows(
            (system, obj.ball_radius, row.n, _fmt(row.sup_defect), _fmt(row.bound))
            for row in obj.rows
        )
    else:
        raise TypeError(f"cannot emit CSV for {type(obj).__name__}")
