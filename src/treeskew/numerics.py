"""Small numerical toolbox: adaptive Simpson quadrature and exact
normal-law helpers shared by the closed-form coefficient formulas.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from ._np import np

__all__ = [
    "adaptive_simpson",
    "integrate_with_breakpoints",
    "normal_pdf",
    "upper_tail",
    "expected_excess",
    "gaussian_expectation",
    "check_interval",
    "interval_overlap",
    "shifted_overlap_mean",
    "shifted_overlap_array",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# bisections allowed below each adaptive Simpson interval
_MAX_DEPTH = 48
# gaussian_expectation integrates over [-_SPAN * sigma, _SPAN * sigma]
_SPAN = 8.0


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b] to absolute tolerance.

    Classic recursive bisection with the Richardson correction term; each
    half inherits half the tolerance budget.  Raises ``ArithmeticError``
    when a subinterval still misses its tolerance after ``_MAX_DEPTH``
    bisections, rather than returning an unconverged value.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, _MAX_DEPTH)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise ArithmeticError(
            f"adaptive Simpson exhausted its depth on [{a!r}, {b!r}]: "
            f"error estimate {abs(delta) / 15.0!r} > tolerance {tol!r}"
        )
    half = 0.5 * tol
    return _simpson_step(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_step(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def integrate_with_breakpoints(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate piecewise, splitting at the breakpoints inside (a, b).

    Useful when the integrand has kinks: Simpson converges much faster on
    each smooth piece than across a corner.
    """
    pts = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    per_piece = tol / max(1, len(pts) - 1)
    return math.fsum(
        adaptive_simpson(f, lo, hi, per_piece) for lo, hi in zip(pts, pts[1:])
    )


def normal_pdf(x: float, sigma: float) -> float:
    z = x / sigma
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / sigma


def upper_tail(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / _SQRT2)


def expected_excess(t: float, sigma: float) -> float:
    """``E[(X - t)+]`` for ``X ~ N(0, sigma^2)``, exact via erfc."""
    if sigma == 0.0:
        return max(-t, 0.0)
    z = t / sigma
    # both terms underflow near z = 38, where roundoff can leave a subnormal
    # negative; the excess itself is never negative
    return max(sigma * _INV_SQRT_2PI * math.exp(-0.5 * z * z) - t * upper_tail(z), 0.0)


def gaussian_expectation(
    f: Callable[[float], float],
    sigma: float,
    tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
) -> float:
    """``E[f(X)]`` for ``X ~ N(0, sigma^2)`` by quadrature on [-8 sigma, 8 sigma].

    ``sigma == 0`` degenerates to ``f(0)``.  The truncation error is below
    ``sup|f| * 1.3e-15``.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return f(0.0)
    lo, hi = -_SPAN * sigma, _SPAN * sigma
    return integrate_with_breakpoints(
        lambda x: f(x) * normal_pdf(x, sigma), lo, hi, tol, breakpoints
    )


def check_interval(interval: Sequence[float]) -> tuple[float, float]:
    """Validate an interval (a, b) with a < b, finite endpoints and a finite length."""
    try:
        a, b = float(interval[0]), float(interval[1])
    except (TypeError, IndexError) as exc:
        raise ValueError(f"interval must be a pair of reals, got {interval!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got {interval!r}")
    if a >= b:
        raise ValueError(f"empty or inverted interval {interval!r}")
    if not math.isfinite(b - a):
        raise ValueError(f"interval length overflows a float: {interval!r}")
    return a, b


def interval_overlap(first: Sequence[float], second: Sequence[float]) -> float:
    """Length of the intersection of two intervals."""
    a, b = first
    c, d = second
    return max(0.0, min(b, d) - max(a, c))


def _trapezoid_knots(first, second):
    a, b = first
    c, d = second
    # Overlap of (first + s) with second, as a function of the shift s, is a
    # trapezoid supported on [c - b, d - a] with plateau min(b - a, d - c).
    return c - b, min(c - a, d - b), max(c - a, d - b), d - a


def shifted_overlap_mean(
    sigma: float, first: Sequence[float], second: Sequence[float]
) -> float:
    """``E[length((first + X) ∩ second)]`` for ``X ~ N(0, sigma^2)``, exact.

    The overlap is a trapezoid in the shift, hence a +/- combination of four
    ``expected_excess`` terms.
    """
    if sigma == 0.0:
        return interval_overlap(first, second)
    u1, u2, u3, u4 = _trapezoid_knots(first, second)
    return (
        expected_excess(u1, sigma)
        - expected_excess(u2, sigma)
        - expected_excess(u3, sigma)
        + expected_excess(u4, sigma)
    )


def shifted_overlap_array(
    shifts: np.ndarray, first: Sequence[float], second: Sequence[float]
) -> np.ndarray:
    """Vectorized ``length((first + s) ∩ second)`` over an array of shifts."""
    a, b = first
    c, d = second
    s = np.asarray(shifts, dtype=np.float64)
    return np.maximum(0.0, np.minimum(b + s, d) - np.maximum(a + s, c))
