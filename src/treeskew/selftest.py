"""The identity catalogue behind the ``selftest`` CLI command.

Each entry of :data:`CATALOGUE` is one paper-level identity: the cocycle
chain rule, the skew action law, the agreement of the exact, quadrature
and Monte Carlo routes, the certified window bound and the projection
defect.  An identity is a function of its instance or sample counts that
returns a :class:`Check` whose ``detail`` carries the worst residual or
z-score it saw.  ``selftest`` runs the catalogue at the small counts
stored next to each entry, in well under a second; the acceptance tests
run the same functions at full scale.  Checks of single implementation
details (group axioms, PRF agreement, CSV headers, ...) live in the
per-module tests, not here.

Monte Carlo routes must agree with their exact value within four standard
errors.  The optional fault injection hands the projection-defect check a
sign-flipped defect ``|| U P U* + P ||_HS^2``, so that check must fail,
which keeps the catalogue honest.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import hs
from ._np import np
from .gaussian import GaussianMeasure, gram_matrix, interval_overlap_by_quadrature
from .koopman import (
    MCBudget,
    almost_invariant_sweep,
    coefficient,
    decay_sweep,
    symmetric_difference,
    symmetric_difference_mc,
)
from .orientation import (
    Orientation,
    OrientationMeasure,
    SkewPoint,
    group_cocycle,
    pushforward,
    skew_step,
)
from .profiles import ProfileVector, cauchy_kernel_by_quadrature
from .rng import NormalStream
from .words import Word, ball, ball_edges, ball_size, distance, parse_word, sample_word

KNOWN_FAULTS = ("projection-defect-sign",)
_Z_LIMIT = 4.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _word(rng: random.Random, max_len: int, min_len: int = 0) -> Word:
    return sample_word(rng.randint(min_len, max_len), 2, rng)


def _z(diff: float, stderr: float) -> float:
    """``|diff|`` in standard errors; 0 for an estimator with no spread."""
    return abs(diff) / stderr if stderr > 0.0 else 0.0


def chain_rule(count: int) -> Check:
    """``c(gh, w) = c(g, w) + c(h, g^-1 . w)`` on ``count`` triples at each p."""
    worst = 0
    for p in (0.3, 0.5, 0.7):
        measure = OrientationMeasure(p)
        rng = random.Random(int(1000 * p))
        for _ in range(count):
            omega = Orientation(rng.getrandbits(64), measure)
            g, h = _word(rng, 8), _word(rng, 8)
            lhs = group_cocycle(omega, g * h)
            rhs = group_cocycle(omega, g) + group_cocycle(pushforward(~g, omega), h)
            worst = max(worst, abs(lhs - rhs))
    return Check(
        "cocycle chain rule", worst == 0, f"worst |lhs - rhs| = {worst} over {3 * count} triples"
    )


def skew_action_law(count: int) -> Check:
    """``beta_gh = beta_g o beta_h`` on both coordinates, ``count`` instances."""
    measure = OrientationMeasure(0.7)
    rng = random.Random(202)
    edges = ball_edges(5, 2)
    worst, mismatches = 0.0, 0
    for _ in range(count):
        omega = Orientation(rng.getrandbits(64), measure)
        point = SkewPoint(omega, float(rng.randint(-10, 10)))
        g, h = _word(rng, 5), _word(rng, 5)
        one = skew_step(g * h, point)
        two = skew_step(g, skew_step(h, point))
        worst = max(worst, abs(one.t - two.t))
        mismatches += sum(
            one.orientation.value(e) != two.orientation.value(e) for e in rng.sample(edges, 10)
        )
    return Check(
        "skew action law",
        worst == 0.0 and mismatches == 0,
        f"worst |t| residual {worst}, {mismatches} edge mismatches over {count} instances",
    )


def window_exact_vs_mc(configs: int, samples: int) -> Check:
    """Orientation window coefficient: the binomial law, its a priori bound and Monte Carlo."""
    rng = random.Random(303)
    ok, worst_z = True, 0.0
    for i in range(configs):
        g = _word(rng, 10, min_len=1)
        n = rng.randint(1, 50)
        system = OrientationMeasure(round(rng.uniform(0.1, 0.9), 3))
        win = ProfileVector.window(n)
        exact = coefficient(system, g, win, win, method="exact").value
        est = coefficient(system, g, win, win, budget=MCBudget(samples, seed=i), method="mc")
        ok = ok and 1.0 - exact <= len(g) / (2.0 * n) + 1e-12
        ok = ok and abs(est.value - exact) <= _Z_LIMIT * est.stderr + 1e-15
        worst_z = max(worst_z, _z(est.value - exact, est.stderr))
    return Check(
        "window coefficient: exact law vs Monte Carlo",
        ok,
        f"max z = {worst_z:.2f} over {configs} configs x {samples} samples",
    )


def gaussian_profile_decay() -> Check:
    """Drift at p = 0.7 makes the gaussian-profile coefficient fall below 0.05 by length 20."""
    prof = ProfileVector.gaussian()

    def value(length: int, p: float) -> float:
        return coefficient(OrientationMeasure(p), Word((1,) * length, 2), prof, prof).value

    values = [value(length, 0.7) for length in range(1, 21)]
    driftless = value(20, 0.5)
    ok = all(b < a for a, b in zip(values, values[1:]))
    ok = ok and values[-1] < 0.05 < driftless
    return Check(
        "gaussian-profile coefficient decays under drift",
        ok,
        f"c(20) = {values[-1]:.3g} at p = 0.7, {driftless:.3g} at p = 1/2",
    )


def gaussian_window_routes(samples: int) -> Check:
    """Gaussian-system window coefficient: erf closed form vs quadrature vs Monte Carlo."""
    stream = NormalStream(505)
    ok, worst_quad, worst_z = True, 0.0, 0.0
    for sigma in (0.5, 1.0, 2.0, 3.0, 5.0):
        for n in (1, 2, 5, 10, 100):
            win = ProfileVector.window(n)
            closed = win.gaussian_mean(win, sigma)[0]
            quad = interval_overlap_by_quadrature(sigma, (-n, n), (-n, n)) / (2.0 * n)
            f = np.maximum(2.0 * n - np.abs(sigma * stream.take(samples)), 0.0) / (2.0 * n)
            stderr = float(f.std(ddof=1)) / math.sqrt(samples)
            ok = ok and 0.0 < closed <= 1.0 and abs(closed - quad) <= 1e-9
            ok = ok and abs(f.mean() - closed) <= _Z_LIMIT * stderr
            if n / sigma >= 20.0:
                tail = sigma / (n * math.sqrt(2.0 * math.pi))
                ok = ok and abs((1.0 - closed) - tail) <= 0.02 * tail
            worst_quad = max(worst_quad, abs(closed - quad))
            worst_z = max(worst_z, _z(f.mean() - closed, stderr))
    return Check(
        "Gaussian window coefficient: erf vs quadrature vs Monte Carlo",
        ok,
        f"worst |erf - quad| = {worst_quad:.2g}, max z = {worst_z:.2f} at {samples} samples",
    )


def cauchy_identity() -> Check:
    """``K(x) (4 + x^2) = 2 pi`` by quadrature, and the coefficient falls with sigma."""
    worst = max(
        abs(cauchy_kernel_by_quadrature(x) * (4.0 + x * x) - 2.0 * math.pi)
        for x in (0.0, 1.0, 5.0, 20.0)
    )
    unit = ProfileVector.cauchy()
    values = [unit.gaussian_mean(unit, s)[0] for s in (0.0, 1.0, 2.0, 4.0, 8.0)]
    ok = worst <= 1e-8 and all(b < a for a, b in zip(values, values[1:]))
    return Check(
        "cauchy kernel identity and coefficient decay", ok, f"worst residual {worst:.2g}"
    )


def gram_and_sampling(radius: int, samples: int) -> Check:
    """Gram matrix on ``ball(radius)``: PSD, equal to the Gromov products, sampled correctly."""
    system = gram_matrix(ball(radius, 2))
    words = system.words
    gromov = np.array([[(len(x) + len(y) - distance(x, y)) / 2 for y in words] for x in words])
    min_eig = system.min_eigenvalue()
    ok = len(system) == ball_size(radius, 2) and min_eig >= -1e-8
    ok = ok and bool(np.array_equal(system.gram, gromov))

    sub = gram_matrix([parse_word(t, 2) for t in ("1", "a", "b", "ab", "aB", "aba")])
    draws = sub.sample_matrix(samples, seed=7)
    ok = ok and bool(np.all(draws[:, 0] == 0.0))
    empirical = draws.T @ draws / samples
    diag = np.diagonal(sub.gram)
    spread = np.sqrt((np.outer(diag, diag) + sub.gram**2) / samples)
    diff = np.abs(empirical - sub.gram)
    ok = ok and bool(np.all(diff <= _Z_LIMIT * spread + 1e-12))
    worst_z = float(np.max(diff[spread > 0.0] / spread[spread > 0.0]))
    return Check(
        "gram matrix: PSD, Gromov products, sampled covariance",
        ok,
        f"min eigenvalue {min_eig:.2g} on {len(system)} words, max z = {worst_z:.2f}",
    )


def projection_defect_identity(count: int, defect: Callable[..., float] | None = None) -> Check:
    """``|| U P U* - P ||_HS^2 = 2 (1 - |<U xi, xi>|^2)`` on ``count`` random unitaries."""
    defect = defect or hs.projection_defect
    trials = hs.projection_defect_trials(count, 808, defect)
    worst = max((abs(value - formula) for _, _, value, formula in trials), default=0.0)
    quarter = abs(defect(hs.rotation_unitary(math.pi / 4.0), np.array([1.0, 0.0])) - 1.0)
    return Check(
        "projection-defect identity",
        worst <= 1e-10 and quarter <= 1e-12,
        f"worst residual {worst:.2g} over {count} unitaries, quarter turn {quarter:.2g}",
    )


def symmetric_difference_identity(configs: int, samples: int) -> Check:
    """``nu(beta_g A delta A) = 2 E[min(|S_g|, |I|)]`` for a strip ``A``, vs direct Monte Carlo."""
    rng = random.Random(1010)
    a, w1 = parse_word("a", 2), ProfileVector.window(1)
    ok = symmetric_difference(OrientationMeasure(0.7), a, w1) == 2.0
    worst_z = 0.0
    for i in range(configs):
        g = _word(rng, 6, min_len=1)
        if rng.random() < 0.5:
            profile = ProfileVector.window(rng.randint(1, 5))
        else:
            lo = rng.uniform(-3.0, 1.0)
            profile = ProfileVector.indicator(lo, lo + rng.uniform(0.5, 4.0))
        if i % 2 == 0:
            system = OrientationMeasure(round(rng.uniform(0.2, 0.8), 3))
        else:
            system = GaussianMeasure()
        exact = symmetric_difference(system, g, profile)
        mc = symmetric_difference_mc(system, g, profile, MCBudget(samples, seed=i))
        ok = ok and abs(exact - mc.value) <= _Z_LIMIT * mc.stderr + 1e-12
        worst_z = max(worst_z, _z(exact - mc.value, mc.stderr))
    return Check(
        "symmetric difference: capped-shift mean vs Monte Carlo",
        ok,
        f"max z = {worst_z:.2f} over {configs} configs x {samples} samples",
    )


def coefficient_exact_vs_mc(trials: int, samples: int) -> Check:
    """Exact (or quadrature) coefficients of both systems vs their Monte Carlo route."""
    rng = random.Random(4404)
    ok, worst_z = True, 0.0
    for trial in range(trials):
        system = OrientationMeasure(0.7) if trial % 2 == 0 else GaussianMeasure()
        g = _word(rng, 5, min_len=1)
        # every third trial takes the cauchy pair, on the two systems in turn
        if trial % 3 == 0:
            profile = ProfileVector.cauchy()
        else:
            profile = ProfileVector.window(rng.randint(1, 6))
        exact = coefficient(system, g, profile, profile).value
        mc = coefficient(system, g, profile, profile, MCBudget(samples, seed=trial), method="mc")
        ok = ok and abs(exact - mc.value) <= _Z_LIMIT * mc.stderr + 1e-12
        worst_z = max(worst_z, _z(exact - mc.value, mc.stderr))
    return Check(
        "coefficient: exact route vs Monte Carlo",
        ok,
        f"max z = {worst_z:.2f} over {trials} trials x {samples} samples",
    )


def interval_overlap_routes(count: int) -> Check:
    """Gaussian-system indicator coefficients: erf closed form vs quadrature."""
    rng = random.Random(21)
    worst = 0.0
    for _ in range(count):
        g = _word(rng, 9, min_len=1)
        a, c = rng.uniform(-3.0, 1.0), rng.uniform(-3.0, 1.0)
        first, second = (a, a + rng.uniform(0.5, 4.0)), (c, c + rng.uniform(0.5, 4.0))
        closed = coefficient(
            GaussianMeasure(), g, ProfileVector.indicator(*first), ProfileVector.indicator(*second)
        ).value
        quad = interval_overlap_by_quadrature(math.sqrt(len(g)), first, second)
        worst = max(worst, abs(closed - quad))
    return Check(
        "interval overlap: erf form vs quadrature",
        worst <= 1e-9,
        f"worst |erf - quad| = {worst:.2g} over {count} pairs",
    )


def rank_one_hs_bound(count: int) -> Check:
    """``|Tr(T1* U T2 U*)| <= |<U eta2, eta1>|`` for rank-one ``T_i`` of unit vectors."""
    stream = NormalStream(5505)
    worst = -math.inf
    for trial in range(count):
        dim = 2 + trial % 15
        u = hs.random_unitary(dim, stream)
        xi1, xi2, eta1, eta2 = (hs.random_unit_vector(dim, stream) for _ in range(4))
        value = hs.hs_coefficient(hs.rank_one(xi1, eta1), hs.rank_one(xi2, eta2), u)
        worst = max(worst, abs(value) - abs(hs.inner(u.matrix @ eta2, eta1)))
    return Check(
        "rank-one bound on the HS coefficient",
        worst <= 1e-10,
        f"worst |value| - bound = {worst:.2g} over {count} unitaries",
    )


def certified_window_bound(radius: int) -> Check:
    """Window defects stay under their certified bound; gaussian-profile sweeps decay."""
    ok, worst = True, 0.0
    gauss = ProfileVector.gaussian()
    for system in (OrientationMeasure(0.7), GaussianMeasure()):
        for row in almost_invariant_sweep(system, radius, [10, 100, 1000, 10**7]).rows:
            ok = ok and 0.0 < row.sup_defect <= row.bound
            worst = max(worst, row.sup_defect / row.bound)
        points = decay_sweep(system, gauss, radius, per_shell_cap=4).points
        values = [pt.estimate.value for pt in points]
        ok = ok and [pt.radius for pt in points] == list(range(1, radius + 1))
        ok = ok and all(b < a for a, b in zip(values, values[1:]))
        ok = ok and all(abs(v) <= 1.0 for v in values)
    return Check(
        "certified window bound and sweep decay",
        ok,
        f"worst sup_defect / bound = {worst:.4g} at radius {radius}",
    )


# Each identity with the counts that selftest runs it at.
CATALOGUE: list[tuple[Callable[..., Check], dict]] = [
    (chain_rule, {"count": 70}),
    (skew_action_law, {"count": 100}),
    (window_exact_vs_mc, {"configs": 4, "samples": 40_000}),
    (gaussian_profile_decay, {}),
    (gaussian_window_routes, {"samples": 20_000}),
    (cauchy_identity, {}),
    (gram_and_sampling, {"radius": 4, "samples": 20_000}),
    (projection_defect_identity, {"count": 100}),
    (symmetric_difference_identity, {"configs": 4, "samples": 20_000}),
    (coefficient_exact_vs_mc, {"trials": 8, "samples": 30_000}),
    (interval_overlap_routes, {"count": 4}),
    (rank_one_hs_bound, {"count": 100}),
    (certified_window_bound, {"radius": 6}),
]


def _sign_flipped_defect(u: hs.FiniteUnitary, xi) -> float:
    """The injected fault: ``|| U P U* + P ||_HS^2`` in place of the defect."""
    p = hs.rank_one(xi, xi)
    return hs.HSOperator(hs.adjoint_act(u, p).matrix + p.matrix).hs_norm_sq()


def run_selftest(verbosity: int = 1, inject_fault: str | None = None, out=None) -> int:
    """Run the catalogue at its small counts; returns 0 when every identity holds, 1 otherwise.

    Verbosity 0 reports failing identities only, 1 every identity with its
    time, 2 adds each residual.  A failing identity always shows its residual.
    """
    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {KNOWN_FAULTS}")
    emit = out if out is not None else print
    all_ok = True
    for check, counts in CATALOGUE:
        if inject_fault == "projection-defect-sign" and check is projection_defect_identity:
            counts = {**counts, "defect": _sign_flipped_defect}
        start = time.perf_counter()
        result = check(**counts)
        elapsed = time.perf_counter() - start
        all_ok = all_ok and result.ok
        if verbosity >= 1 or not result.ok:
            status = "ok" if result.ok else "FAIL"
            detail = f": {result.detail}" if verbosity >= 2 or not result.ok else ""
            emit(f"[{status}] {result.name}{detail} ({elapsed:.2f}s)")
    return 0 if all_ok else 1
