"""Profile vectors for the translation coordinate of the skew products.

A profile is a square-integrable function of the real coordinate; matrix
coefficients of both skew systems reduce to averaging the cross-correlation
``K(s) = integral h1(t + s) h2(t) dt`` of two profiles against the law of
the cocycle shift.  Four families are supported:

* ``window(n)``: the indicator of [-n, n] scaled to unit norm,
* ``indicator(a, b)``: the raw indicator of an interval,
* ``gaussian``: ``exp(-t^2)`` scaled to unit norm,
* ``cauchy``: ``1 / (1 + t^2)`` scaled to unit norm.

The kind fixes the normalization: an indicator stays raw, so its
correlation with itself at shift ``s`` is the overlap length
``max(hi - lo - |s|, 0)``, and every other kind is unit.  The gaussian and
cauchy squared norms are the closed forms ``sqrt(pi/2)`` and ``pi/2``, and
the cauchy correlation kernel is the closed form ``2 pi / (4 + s^2)``;
:func:`cauchy_kernel_by_quadrature` is its reference route, which the
``selftest`` identity catalogue checks it against.  Which pairs have a
kernel is one rule, :meth:`ProfileVector.pair_kind`, the same on every
system.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

from ._np import np
from .numerics import (
    adaptive_simpson,
    check_interval,
    gaussian_expectation,
    interval_overlap,
    shifted_overlap_array,
    shifted_overlap_mean,
)

__all__ = [
    "ProfileVector",
    "cauchy_kernel",
    "cauchy_kernel_by_quadrature",
    "cauchy_norm_sq",
    "check_window_size",
    "gaussian_norm_sq",
]

_HALF_PI = 0.5 * math.pi
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_KINDS = ("window", "indicator", "gaussian", "cauchy")
# The largest window size whose square is a finite float, since a window
# pair scales by 1 / (2 sqrt(n1 n2)).
_MAX_WINDOW = math.isqrt(int(sys.float_info.max))


def check_window_size(n) -> int:
    """Return ``n`` if it is an integer window size that float arithmetic can carry."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"window size must be an integer, got {n!r}")
    if not 1 <= n <= _MAX_WINDOW:
        raise ValueError(f"window size must lie in [1, {_MAX_WINDOW:.3g}], got {n!r}")
    return n


def cauchy_kernel_by_quadrature(x: float) -> float:
    """``integral h(t) h(t + x) dt`` for ``h(t) = 1/(1 + t^2)``, by quadrature.

    Substituting ``t = tan(u)`` turns the integral into the bounded smooth
    ``integral_{-pi/2}^{pi/2} du / (1 + (tan u + x)^2)``.
    """

    def integrand(u: float) -> float:
        if abs(abs(u) - _HALF_PI) < 1e-9:
            return 0.0
        w = math.tan(u) + x
        return 1.0 / (1.0 + w * w)

    return adaptive_simpson(integrand, -_HALF_PI, _HALF_PI)


def cauchy_kernel(x: float) -> float:
    """Cauchy-profile correlation ``2 pi / (4 + x^2)``."""
    return 2.0 * math.pi / (4.0 + x * x)


def cauchy_norm_sq() -> float:
    """``integral dt / (1 + t^2)^2 = pi/2``."""
    return _HALF_PI


def gaussian_norm_sq() -> float:
    """``integral exp(-2 t^2) dt = sqrt(pi/2)``."""
    return _SQRT_HALF_PI


@dataclass(frozen=True)
class ProfileVector:
    """One profile; its kind fixes its normalization.

    An indicator is the raw indicator of its interval; window, gaussian
    and cauchy profiles are scaled to L2-norm one.
    """

    kind: str
    n: Optional[int] = None
    interval: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "window":
            check_window_size(self.n)
        elif self.n is not None:
            raise ValueError(f"{self.kind!r} profile takes no window size")
        if self.kind == "indicator":
            if self.interval is None:
                raise ValueError("indicator profile requires an interval")
            object.__setattr__(self, "interval", check_interval(self.interval))
        elif self.interval is not None:
            raise ValueError(f"{self.kind!r} profile takes no interval")

    @classmethod
    def window(cls, n: int) -> "ProfileVector":
        return cls("window", n=n)

    @classmethod
    def indicator(cls, a: float, b: float) -> "ProfileVector":
        return cls("indicator", interval=(a, b))

    @classmethod
    def gaussian(cls) -> "ProfileVector":
        return cls("gaussian")

    @classmethod
    def cauchy(cls) -> "ProfileVector":
        return cls("cauchy")

    def label(self) -> str:
        if self.kind == "window":
            return f"window({self.n})"
        if self.kind == "indicator":
            a, b = self.interval
            return f"indicator({a!r}:{b!r})[raw]"
        return f"{self.kind}[unit]"

    @property
    def is_interval_kind(self) -> bool:
        return self.kind in ("window", "indicator")

    def support_interval(self) -> tuple[float, float]:
        """The underlying interval of a window or indicator profile."""
        if self.kind == "window":
            return (-float(self.n), float(self.n))
        if self.kind == "indicator":
            return self.interval
        raise ValueError(f"only indicator or window profiles have an interval, not {self.kind!r}")

    def raw_norm_sq(self) -> float:
        """Squared L2 norm of the defining function, before any scaling."""
        if self.kind == "window":
            return 2.0 * self.n
        if self.kind == "indicator":
            a, b = self.interval
            return b - a
        if self.kind == "gaussian":
            return gaussian_norm_sq()
        return cauchy_norm_sq()

    def norm(self) -> float:
        return math.sqrt(self.raw_norm_sq()) if self.kind == "indicator" else 1.0

    def _height(self) -> float:
        """Scale factor applied to the defining function of the profile."""
        return 1.0 if self.kind == "indicator" else 1.0 / math.sqrt(self.raw_norm_sq())

    def pair_kind(self, other: "ProfileVector") -> str:
        """The correlation rule of the pair: ``interval``, ``gaussian`` or ``cauchy``.

        Two window or indicator profiles correlate by interval overlap, and
        two gaussian or two cauchy profiles by their closed-form kernel.  No
        other pair has a rule, and it raises :class:`ValueError`.  The rule
        depends on the pair alone, so every system measures the same pairs.
        """
        if self.is_interval_kind and other.is_interval_kind:
            return "interval"
        if self.kind == other.kind:
            return self.kind
        raise ValueError(
            f"no correlation rule for profile pair ({self.kind!r}, {other.kind!r})"
        )

    def _pair_scale(self, other: "ProfileVector") -> float:
        # Two windows combine to 1/(2 sqrt(n1 n2)); taking the single square
        # root keeps small rational values (like the half-overlap 1/2) exact.
        if self.kind == "window" and other.kind == "window":
            return 1.0 / (2.0 * math.sqrt(self.n * other.n))
        return self._height() * other._height()

    def correlation(self, other: "ProfileVector", s: float) -> float:
        """Cross-correlation ``K(s) = integral h_self(t + s) h_other(t) dt``."""
        pair = self.pair_kind(other)
        scale = self._pair_scale(other)
        if pair == "interval":
            # h_self(t + s) lives on the support shifted left by s
            i, j = self.support_interval(), other.support_interval()
            return scale * interval_overlap((i[0] - s, i[1] - s), j)
        if pair == "gaussian":
            return scale * _SQRT_HALF_PI * math.exp(-0.5 * s * s)
        return scale * cauchy_kernel(s)

    def correlation_array(self, other: "ProfileVector", s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`correlation` over an array of shifts."""
        pair = self.pair_kind(other)
        scale = self._pair_scale(other)
        s = np.asarray(s, dtype=np.float64)
        if pair == "interval":
            return scale * shifted_overlap_array(
                -s, self.support_interval(), other.support_interval()
            )
        if pair == "gaussian":
            return scale * _SQRT_HALF_PI * np.exp(-0.5 * s * s)
        return scale * 2.0 * math.pi / (4.0 + s * s)

    def gaussian_mean(self, other: "ProfileVector", sigma: float) -> tuple[float, str]:
        """``E[K(X)]`` for ``X ~ N(0, sigma^2)`` with the method used.

        Interval and gaussian pairs have erf-exact closed forms; the cauchy
        pair is averaged by adaptive quadrature.
        """
        if sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        pair = self.pair_kind(other)
        scale = self._pair_scale(other)
        if pair == "interval":
            # X is symmetric, so the left-shift in correlation() averages
            # the same as the right-shift computed by shifted_overlap_mean
            value = scale * shifted_overlap_mean(
                sigma, self.support_interval(), other.support_interval()
            )
            return value, "exact"
        if pair == "gaussian":
            value = scale * _SQRT_HALF_PI / math.sqrt(1.0 + sigma * sigma)
            return value, "exact"
        value = gaussian_expectation(lambda x: scale * cauchy_kernel(x), sigma)
        return value, "quadrature"
