import math
import random

import numpy as np
import pytest

from treeskew.numerics import (
    adaptive_simpson,
    check_interval,
    expected_excess,
    gaussian_expectation,
    integrate_with_breakpoints,
    interval_overlap,
    normal_pdf,
    shifted_overlap_array,
    shifted_overlap_mean,
    upper_tail,
)


class TestSimpson:
    def test_cubic_is_exact(self):
        assert adaptive_simpson(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_exponential(self):
        got = adaptive_simpson(math.exp, 0.0, 2.0)
        assert got == pytest.approx(math.e**2 - 1.0, abs=1e-10)

    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_interval(self):
        assert adaptive_simpson(math.exp, 1.5, 1.5) == 0.0

    def test_reversed_bounds_signed(self):
        assert adaptive_simpson(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_depth_exhaustion_raises(self):
        # |x|^(-1/2) on [-1, 1] integrates to 4, but its singularity at 0
        # keeps the middle subintervals from ever meeting a 1e-10 budget
        def f(x):
            return 0.0 if x == 0.0 else abs(x) ** -0.5

        with pytest.raises(ArithmeticError, match="depth"):
            adaptive_simpson(f, -1.0, 1.0, 1e-10)

    def test_breakpoints_handle_kinks(self):
        got = integrate_with_breakpoints(abs, -1.0, 2.0, breakpoints=[0.0])
        assert got == pytest.approx(2.5, abs=1e-10)

    def test_breakpoints_outside_range_ignored(self):
        got = integrate_with_breakpoints(lambda x: x * x, 0.0, 1.0, breakpoints=[-5.0, 9.0])
        assert got == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestNormalHelpers:
    def test_pdf_normalizes(self):
        for sigma in (0.5, 1.0, 2.5):
            got = adaptive_simpson(lambda x: normal_pdf(x, sigma), -10 * sigma, 10 * sigma)
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_upper_tail_values(self):
        assert upper_tail(0.0) == 0.5
        assert upper_tail(1.959963984540054) == pytest.approx(0.025, abs=1e-9)
        for z in (-1.3, 0.4, 2.2):
            assert upper_tail(-z) == pytest.approx(1.0 - upper_tail(z), abs=1e-15)

    def test_expected_excess_at_zero_threshold(self):
        for sigma in (0.5, 1.0, 3.0):
            assert expected_excess(0.0, sigma) == pytest.approx(
                sigma / math.sqrt(2.0 * math.pi), abs=1e-14
            )

    def test_expected_excess_degenerate_sigma(self):
        assert expected_excess(-2.0, 0.0) == 2.0
        assert expected_excess(1.5, 0.0) == 0.0

    def test_expected_excess_against_quadrature(self):
        rng = random.Random(3)
        for _ in range(20):
            t = rng.uniform(-3.0, 3.0)
            sigma = rng.uniform(0.2, 3.0)
            via_quad = gaussian_expectation(
                lambda x: max(x - t, 0.0), sigma, breakpoints=[t]
            )
            assert expected_excess(t, sigma) == pytest.approx(via_quad, abs=1e-9)


class TestGaussianExpectation:
    def test_moments(self):
        for sigma in (0.5, 2.0):
            assert gaussian_expectation(lambda x: 1.0, sigma) == pytest.approx(1.0, abs=1e-10)
            assert gaussian_expectation(lambda x: x * x, sigma) == pytest.approx(
                sigma**2, abs=1e-9
            )
            assert gaussian_expectation(lambda x: x**4, sigma) == pytest.approx(
                3.0 * sigma**4, abs=1e-8
            )

    def test_absolute_moment_with_breakpoint(self):
        sigma = 1.7
        got = gaussian_expectation(abs, sigma, breakpoints=[0.0])
        assert got == pytest.approx(sigma * math.sqrt(2.0 / math.pi), abs=1e-10)

    def test_degenerate_sigma(self):
        assert gaussian_expectation(lambda x: 42.0 + x, 0.0) == 42.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_expectation(abs, -1.0)


class TestIntervals:
    def test_check_interval_passes_through(self):
        assert check_interval((-1.5, 2.0)) == (-1.5, 2.0)
        assert check_interval([0, 1]) == (0.0, 1.0)

    def test_check_interval_rejects_inverted(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            check_interval((2.0, 2.0))
        with pytest.raises(ValueError, match="empty or inverted"):
            check_interval((3.0, -1.0))

    def test_check_interval_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            check_interval((0.0, math.inf))

    def test_check_interval_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            check_interval((1.0,))

    def test_overlap_cases(self):
        assert interval_overlap((0, 1), (2, 3)) == 0.0
        assert interval_overlap((0, 1), (1, 2)) == 0.0
        assert interval_overlap((0, 4), (1, 2)) == 1.0
        assert interval_overlap((0, 2), (1, 3)) == 1.0
        assert interval_overlap((-1, 1), (-1, 1)) == 2.0


class TestShiftedOverlap:
    def test_zero_sigma_reduces_to_overlap(self):
        assert shifted_overlap_mean(0.0, (0, 2), (1, 5)) == 1.0

    def test_matches_quadrature(self):
        rng = random.Random(5)
        for _ in range(25):
            a = rng.uniform(-3, 1)
            b = a + rng.uniform(0.2, 4.0)
            c = rng.uniform(-3, 1)
            d = c + rng.uniform(0.2, 4.0)
            sigma = rng.uniform(0.2, 3.0)
            exact = shifted_overlap_mean(sigma, (a, b), (c, d))
            via_quad = gaussian_expectation(
                lambda s: interval_overlap((a + s, b + s), (c, d)),
                sigma,
                breakpoints=[c - b, min(c - a, d - b), max(c - a, d - b), d - a],
            )
            assert exact == pytest.approx(via_quad, abs=1e-9)

    def test_symmetric_in_the_two_intervals(self):
        rng = random.Random(7)
        for _ in range(20):
            first = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2) + 0.3))
            second = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2) + 0.3))
            sigma = rng.uniform(0.1, 2.0)
            assert shifted_overlap_mean(sigma, first, second) == pytest.approx(
                shifted_overlap_mean(sigma, second, first), abs=1e-12
            )

    def test_array_matches_scalar(self):
        shifts = np.linspace(-6, 6, 101)
        first, second = (-1.0, 2.0), (0.5, 3.5)
        got = shifted_overlap_array(shifts, first, second)
        expected = [interval_overlap((first[0] + s, first[1] + s), second) for s in shifts]
        assert np.allclose(got, expected, atol=0.0)
