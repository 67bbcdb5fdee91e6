import math
import random

import numpy as np
import pytest

from treeskew.numerics import adaptive_simpson, gaussian_expectation, integrate_with_breakpoints
from treeskew.profiles import (
    ProfileVector,
    cauchy_kernel,
    cauchy_kernel_by_quadrature,
    cauchy_norm_sq,
    gaussian_norm_sq,
)


def height_function(profile: ProfileVector):
    """The profile as a plain callable, built independently of correlation()."""
    if profile.kind == "window":
        n = float(profile.n)
        h = 1.0 / math.sqrt(2.0 * n)
        return lambda t: h if -n <= t <= n else 0.0
    if profile.kind == "indicator":
        a, b = profile.interval
        return lambda t: 1.0 if a <= t <= b else 0.0
    if profile.kind == "gaussian":
        h = (2.0 / math.pi) ** 0.25
        return lambda t: h * math.exp(-t * t)
    h = math.sqrt(2.0 / math.pi)
    return lambda t: h / (1.0 + t * t)


def correlation_by_quadrature(p1: ProfileVector, p2: ProfileVector, s: float) -> float:
    h1, h2 = height_function(p1), height_function(p2)
    if p1.is_interval_kind and p2.is_interval_kind:
        # a product of two indicators is constant between its four jumps, so
        # the midpoint rule on those pieces is exact; Simpson cannot converge
        # on a piece whose jump roundoff moves off the breakpoint
        (a, b), (c, d) = p1.support_interval(), p2.support_interval()
        pts = sorted({a - s, b - s, c, d})
        return math.fsum(
            (hi - lo) * h1(0.5 * (lo + hi) + s) * h2(0.5 * (lo + hi))
            for lo, hi in zip(pts, pts[1:])
        )
    # cauchy tails fall off like 1/t^4, so push the truncation far out
    span = 2000.0 if "cauchy" in (p1.kind, p2.kind) else 40.0
    return integrate_with_breakpoints(
        lambda t: h1(t + s) * h2(t), -span, span, 1e-11, [-100.0, -10.0, 0.0, 10.0, 100.0]
    )


class TestKernelConstants:
    def test_cauchy_kernel_closed_form(self):
        for x in (0.0, 0.5, 1.0, 5.0, 20.0):
            assert cauchy_kernel(x) == pytest.approx(
                cauchy_kernel_by_quadrature(x), abs=1e-8
            )

    def test_kernel_at_zero_is_norm(self):
        assert cauchy_kernel(0.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_norm_constants(self):
        assert cauchy_norm_sq() == math.pi / 2.0
        assert gaussian_norm_sq() == math.sqrt(math.pi / 2.0)
        # the defining integrals, by quadrature (t = tan u for the cauchy one)
        cauchy = adaptive_simpson(lambda u: math.cos(u) ** 2, -math.pi / 2, math.pi / 2, 1e-12)
        gauss = adaptive_simpson(lambda t: math.exp(-2.0 * t * t), -10.0, 10.0, 1e-12)
        assert cauchy_norm_sq() == pytest.approx(cauchy, abs=1e-10)
        assert gaussian_norm_sq() == pytest.approx(gauss, abs=1e-10)


class TestConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProfileVector("spline")

    def test_window_needs_positive_n(self):
        with pytest.raises(ValueError):
            ProfileVector.window(0)
        with pytest.raises(ValueError):
            ProfileVector("window")

    @pytest.mark.parametrize("n", [True, 3.0, 2.5])
    def test_window_size_must_be_an_integer(self, n):
        # window(True) used to pass as window(1) and print as window(True)
        with pytest.raises(ValueError, match="window size must be an integer"):
            ProfileVector.window(n)

    def test_window_must_stay_unit(self):
        # the kind fixes the normalization: there is no knob to ask for a raw window
        with pytest.raises(TypeError):
            ProfileVector("window", n=3, normalization="raw")
        assert ProfileVector.window(3).norm() == 1.0

    def test_indicator_needs_interval(self):
        with pytest.raises(ValueError):
            ProfileVector("indicator")
        with pytest.raises(ValueError, match="empty or inverted"):
            ProfileVector.indicator(2.0, -1.0)

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProfileVector("gaussian", n=3)
        with pytest.raises(ValueError):
            ProfileVector("cauchy", interval=(0.0, 1.0))

    def test_labels(self):
        assert ProfileVector.window(5).label() == "window(5)"
        assert ProfileVector.gaussian().label() == "gaussian[unit]"
        assert ProfileVector.cauchy().label() == "cauchy[unit]"
        assert ProfileVector.indicator(0, 1).label() == "indicator(0.0:1.0)[raw]"

    def test_support_interval(self):
        assert ProfileVector.window(3).support_interval() == (-3.0, 3.0)
        assert ProfileVector.indicator(-1.0, 2.0).support_interval() == (-1.0, 2.0)
        with pytest.raises(ValueError):
            ProfileVector.gaussian().support_interval()


class TestNorms:
    def test_unit_norm_is_one(self):
        for prof in (ProfileVector.window(4), ProfileVector.gaussian(), ProfileVector.cauchy()):
            assert prof.norm() == 1.0

    def test_raw_norms(self):
        assert ProfileVector.window(4).raw_norm_sq() == 8.0
        assert ProfileVector.indicator(-1, 2).norm() == math.sqrt(3.0)
        # a unit profile's correlation scaled by its raw squared norm is the
        # correlation of the defining function exp(-t^2) or 1 / (1 + t^2)
        root = math.sqrt(math.pi / 2.0)
        for prof, raw_norm_sq, raw_kernel in (
            (ProfileVector.gaussian(), root, lambda s: root * math.exp(-0.5 * s * s)),
            (ProfileVector.cauchy(), math.pi / 2.0, lambda s: 2.0 * math.pi / (4.0 + s * s)),
        ):
            assert prof.raw_norm_sq() == pytest.approx(raw_norm_sq, abs=1e-10)
            for s in (-3.2, 0.0, 0.7, 2.5):
                raw = raw_norm_sq * prof.correlation(prof, s)
                assert raw == pytest.approx(raw_kernel(s), abs=1e-12)


PAIRS = [
    (ProfileVector.window(2), ProfileVector.window(2)),
    (ProfileVector.window(1), ProfileVector.window(3)),
    (ProfileVector.window(2), ProfileVector.indicator(-0.5, 1.5)),
    (ProfileVector.indicator(0, 2), ProfileVector.indicator(-1, 1)),
    (ProfileVector.gaussian(), ProfileVector.gaussian()),
    (ProfileVector.indicator(-1, 2.5), ProfileVector.indicator(-1, 2.5)),
    (ProfileVector.cauchy(), ProfileVector.cauchy()),
    (ProfileVector.indicator(0, 2), ProfileVector.window(1)),
]


class TestCorrelation:
    @pytest.mark.parametrize("p1,p2", PAIRS)
    def test_against_defining_integral(self, p1, p2):
        for s in (-3.2, -1.0, 0.0, 0.7, 2.5):
            got = p1.correlation(p2, s)
            want = correlation_by_quadrature(p1, p2, s)
            assert got == pytest.approx(want, abs=1e-8)

    def test_unit_pairs_peak_at_one(self):
        for prof in (ProfileVector.window(5), ProfileVector.gaussian(), ProfileVector.cauchy()):
            assert prof.correlation(prof, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p1,p2", PAIRS)
    def test_cauchy_schwarz(self, p1, p2):
        bound = p1.norm() * p2.norm()
        for s in np.linspace(-8, 8, 33):
            assert abs(p1.correlation(p2, float(s))) <= bound + 1e-10

    @pytest.mark.parametrize("p1,p2", PAIRS)
    def test_array_matches_scalar(self, p1, p2):
        shifts = np.linspace(-6.0, 6.0, 49)
        got = p1.correlation_array(p2, shifts)
        expected = np.array([p1.correlation(p2, float(s)) for s in shifts])
        assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    def test_mixed_smooth_kinds_rejected(self):
        with pytest.raises(ValueError, match="no correlation rule"):
            ProfileVector.gaussian().correlation(ProfileVector.cauchy(), 0.0)
        with pytest.raises(ValueError):
            ProfileVector.window(2).correlation(ProfileVector.gaussian(), 0.0)


class TestGaussianMean:
    @pytest.mark.parametrize("p1,p2", PAIRS)
    def test_against_expectation_of_correlation(self, p1, p2):
        rng = random.Random(11)
        for _ in range(3):
            sigma = rng.uniform(0.3, 3.0)
            value, how = p1.gaussian_mean(p2, sigma)
            oracle = gaussian_expectation(
                lambda s: p1.correlation(p2, s),
                sigma,
                breakpoints=[-4.0, -1.0, 0.0, 1.0, 4.0],
            )
            assert how in ("exact", "quadrature")
            assert value == pytest.approx(oracle, abs=1e-8)

    def test_method_labels(self):
        window = ProfileVector.window(2)
        assert window.gaussian_mean(window, 1.0)[1] == "exact"
        gauss = ProfileVector.gaussian()
        assert gauss.gaussian_mean(gauss, 1.0)[1] == "exact"
        cauchy = ProfileVector.cauchy()
        assert cauchy.gaussian_mean(cauchy, 1.0)[1] == "quadrature"

    def test_zero_sigma_is_peak_value(self):
        gauss = ProfileVector.gaussian()
        assert gauss.gaussian_mean(gauss, 0.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ProfileVector.gaussian().gaussian_mean(ProfileVector.gaussian(), -0.5)
