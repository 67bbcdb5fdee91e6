import math
import random

import numpy as np
import pytest

from conftest import gromov_products, random_letters
from treeskew.gaussian import GaussianMeasure, gram_matrix, interval_overlap_by_quadrature
from treeskew.koopman import coefficient
from treeskew.numerics import expected_excess, gaussian_expectation, normal_pdf
from treeskew.parallel import BLOCK_SIZE, block_bounds
from treeskew.profiles import ProfileVector
from treeskew.rng import normals
from treeskew.words import Word, ball, parse_word

GSYS = GaussianMeasure()


def w(text: str) -> Word:
    return parse_word(text, 2)


def skew_coefficient(g: Word, profile: ProfileVector) -> float:
    """Diagonal coefficient of the Gaussian skew product at ``g``."""
    return coefficient(GSYS, g, profile, profile).value


def window_mean(sigma: float, n: int) -> float:
    """Closed-form ``E[max(2n - |X|, 0)] / (2n)`` for ``X ~ N(0, sigma^2)``."""
    win = ProfileVector.window(n)
    return win.gaussian_mean(win, sigma)[0]


def cauchy_mean(sigma: float) -> float:
    """``E[2 pi / (4 + X^2)]``: the unit cauchy coefficient times the raw norm ``pi / 2``."""
    unit = ProfileVector.cauchy()
    return unit.gaussian_mean(unit, sigma)[0] * (math.pi / 2.0)


def overlap_mean(g: Word, first, second) -> float:
    """``E[length((first + X) ∩ second)]`` for the shift ``X ~ N(0, |g|)``."""
    return coefficient(
        GSYS, g, ProfileVector.indicator(*first), ProfileVector.indicator(*second)
    ).value


class TestGramMatrix:
    def test_identity_only(self):
        system = gram_matrix([Word.identity(2)])
        assert system.gram.tolist() == [[0.0]]
        assert system.incidence.shape == (1, 0)
        assert system.sample_matrix(1, 3)[0].tolist() == [0.0]

    def test_two_words_sharing_a_prefix(self):
        system = gram_matrix([w("ab"), w("aB")])
        assert system.gram.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_four_point_configuration(self):
        system = gram_matrix([Word.identity(2), w("a"), w("ab"), w("aB")])
        expected = [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 1.0],
            [0.0, 1.0, 2.0, 1.0],
            [0.0, 1.0, 1.0, 2.0],
        ]
        assert system.gram.tolist() == expected

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            gram_matrix([])
        with pytest.raises(ValueError, match="duplicate"):
            gram_matrix([w("a"), w("a")])
        with pytest.raises(ValueError, match="rank"):
            gram_matrix([w("a"), parse_word("a", 3)])

    def test_ball_is_positive_semidefinite(self):
        system = gram_matrix(ball(4, 2))
        assert system.min_eigenvalue() >= -1e-8
        assert np.array_equal(system.gram, gromov_products(system.words))

    def test_random_marginal_sets(self):
        rng = random.Random(19)
        for _ in range(10):
            words = {Word.identity(2)}
            while len(words) < 25:
                words.add(Word(random_letters(rng, rng.randint(0, 8), 2), 2))
            system = gram_matrix(sorted(words, key=str))
            assert system.min_eigenvalue() >= -1e-8
            assert np.array_equal(system.gram, gromov_products(system.words))
            assert np.array_equal(
                system.incidence.sum(axis=1), [len(g) for g in system.words]
            )

    @pytest.mark.parametrize("radius,rank", [(4, 2), (5, 2), (6, 2), (3, 3)])
    def test_ball_gram_equals_gromov_products(self, radius, rank):
        system = gram_matrix(ball(radius, rank))
        assert np.array_equal(system.gram, gromov_products(system.words))
        assert np.array_equal(system.incidence.sum(axis=1), [len(g) for g in system.words])

    def test_variance_is_word_length(self):
        words = [w("a"), w("abab"), w("BaB")]
        system = gram_matrix(words)
        assert np.array_equal(system.gram.diagonal(), [1.0, 4.0, 3.0])


class TestSampling:
    def test_shape_and_determinism(self):
        system = gram_matrix([w("a"), w("ab"), w("B")])
        a = system.sample_matrix(50, seed=7)
        b = system.sample_matrix(50, seed=7)
        c = system.sample_matrix(50, seed=8)
        assert a.shape == (50, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_identity_component_exactly_zero(self):
        system = gram_matrix([Word.identity(2), w("ab"), w("ba")])
        draws = system.sample_matrix(1000, seed=1)
        assert np.all(draws[:, 0] == 0.0)
        assert np.count_nonzero(draws[:, 1]) > 990

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([w("a")]).sample_matrix(-1, 0)

    def test_empirical_covariance_matches_gram(self):
        words = [Word.identity(2), w("a"), w("ab"), w("aB"), w("ba"), w("AA")]
        system = gram_matrix(words)
        n = 100_000
        draws = system.sample_matrix(n, seed=12)
        emp = draws.T @ draws / n
        for i in range(len(words)):
            for j in range(len(words)):
                g_ii, g_jj, g_ij = (
                    system.gram[i, i],
                    system.gram[j, j],
                    system.gram[i, j],
                )
                stderr = math.sqrt((g_ii * g_jj + g_ij * g_ij) / n)
                assert abs(emp[i, j] - g_ij) <= 4.0 * stderr + 1e-12


class TestGaussianShiftLaw:
    # the shift of g is N(0, |g|): coefficients see g only through sqrt(|g|)
    def test_sigma_from_word(self):
        for prof in (ProfileVector.gaussian(), ProfileVector.window(3)):
            assert skew_coefficient(w("abab"), prof) == prof.gaussian_mean(prof, 2.0)[0]
            assert skew_coefficient(Word.identity(2), prof) == prof.gaussian_mean(prof, 0.0)[0]

    def test_density_is_normal(self):
        assert normal_pdf(0.0, 2.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2 * math.pi)))
        prof = ProfileVector.gaussian()
        by_density = gaussian_expectation(lambda x: prof.correlation(prof, x), 2.0)
        assert skew_coefficient(w("abab"), prof) == pytest.approx(by_density, abs=1e-10)

    def test_shift_law_rules(self):
        # N(0, L): closed forms at sigma = sqrt(L), one normal stream scaled by sigma
        sigma, root = 2.0, math.sqrt(2.0 / math.pi)
        prof = ProfileVector.cauchy()
        assert GSYS.kernel_mean(prof, prof, 4) == prof.gaussian_mean(prof, sigma)
        assert GSYS.capped_shift_mean(4, 3.0) == sigma * root - 2.0 * expected_excess(3.0, sigma)
        assert GSYS.shift_bound(4) == sigma * root
        assert not GSYS.draws_read_edges
        # one normal block per block of draws, scaled for every word
        stream = normals(6, 0, 300)
        draws = list(GSYS.sampler([w("BABA"), w("a")], 6, lambda s: s)(0, 300))
        assert [x.tolist() for x in draws] == [(sigma * stream).tolist(), stream.tolist()]

    def test_sampler_blocks_depend_on_their_bounds_alone(self):
        # a block is normals lo..hi-1 of the seed's stream, whatever was drawn before
        words, n = [w("BABA"), w("a"), Word.identity(2)], 2 * BLOCK_SIZE + 3
        bounds = list(block_bounds(n))

        def blocks(order):
            draws = GSYS.sampler(words, 4, lambda s: s)
            got = {b: [x.tobytes() for x in draws(*b)] for b in order}
            return [got[b] for b in bounds]

        in_order = blocks(bounds)
        assert blocks(bounds[::-1]) == in_order
        assert blocks([bounds[1], bounds[1], bounds[2], bounds[0]]) == in_order
        z = normals(4, 0, n)
        assert in_order[2] == [(s * z[2 * BLOCK_SIZE :]).tobytes() for s in (2.0, 1.0, 0.0)]

    def test_degenerate_density_rejected(self):
        # the length-0 law is a point mass at 0, and sigma < 0 is no law at all
        for prof in (ProfileVector.gaussian(), ProfileVector.window(3), ProfileVector.cauchy()):
            assert skew_coefficient(Word.identity(2), prof) == pytest.approx(
                prof.correlation(prof, 0.0), abs=1e-15
            )
            with pytest.raises(ValueError):
                prof.gaussian_mean(prof, -1.0)


class TestWindowCoefficient:
    def test_degenerate_sigma(self):
        assert window_mean(0.0, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProfileVector.window(0)
        with pytest.raises(ValueError):
            window_mean(-1.0, 5)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
    def test_erf_form_matches_quadrature(self, sigma, n):
        # the catalogue's gaussian_window_routes holds this grid against the
        # package's own quadrature at 1e-9; this reference is 40-digit mpmath
        # quadrature, so the erf form is held to its rounding error
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            t = 2 * n
            want = mp.quad(lambda x: (t - abs(x)) * mp.npdf(x, 0, sigma), [-t, 0, t]) / t
        assert abs(window_mean(sigma, n) - float(want)) <= 1e-15

    def test_large_window_asymptote(self):
        for sigma in (0.5, 1.0, 2.0):
            n = 100
            closed = window_mean(sigma, n)
            asymptote = 1.0 - sigma / (n * math.sqrt(2.0 * math.pi))
            assert abs(closed - asymptote) <= 1e-6

    def test_monotone_in_both_arguments(self):
        values = [window_mean(s, 5) for s in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        values = [window_mean(2.0, n) for n in (1, 2, 5, 20, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_defect_rate(self):
        # the defect 1 - coefficient never exceeds sigma / (n sqrt(2 pi))
        for sigma in (0.3, 1.0, 2.5):
            for n in (1, 3, 10, 40):
                defect = 1.0 - window_mean(sigma, n)
                assert defect <= sigma / (n * math.sqrt(2.0 * math.pi)) + 1e-12


class TestCauchyCoefficient:
    def test_peak_value(self):
        assert cauchy_mean(0.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_strictly_decreasing(self):
        values = [cauchy_mean(s) for s in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_against_monte_carlo(self):
        rng = np.random.Generator(np.random.PCG64(33))
        for sigma in (0.7, 2.0):
            draws = 2.0 * math.pi / (4.0 + (sigma * rng.standard_normal(200_000)) ** 2)
            stderr = draws.std(ddof=1) / math.sqrt(len(draws))
            assert abs(cauchy_mean(sigma) - draws.mean()) <= 4.0 * stderr

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            cauchy_mean(-2.0)


class TestIntervalOverlapMeasure:
    def test_identity_word_gives_plain_overlap(self):
        got = overlap_mean(Word.identity(2), (0, 2), (1, 5))
        assert got == 1.0

    def test_erf_form_matches_quadrature(self):
        rng = random.Random(21)
        for _ in range(15):
            g = Word(random_letters(rng, rng.randint(1, 9), 2), 2)
            a = rng.uniform(-3, 1)
            b = a + rng.uniform(0.5, 4)
            c = rng.uniform(-3, 1)
            d = c + rng.uniform(0.5, 4)
            exact = overlap_mean(g, (a, b), (c, d))
            quad = interval_overlap_by_quadrature(math.sqrt(len(g)), (a, b), (c, d))
            assert abs(exact - quad) <= 1e-9

    def test_symmetric_under_inverse(self):
        g = w("abAB")
        assert overlap_mean(g, (-1, 1), (0, 3)) == overlap_mean(
            ~g, (-1, 1), (0, 3)
        )

    def test_against_monte_carlo(self):
        g, first, second = w("abab"), (-2.0, 1.0), (-0.5, 2.5)
        rng = np.random.Generator(np.random.PCG64(44))
        shifts = math.sqrt(len(g)) * rng.standard_normal(150_000)
        lo = np.maximum(first[0] + shifts, second[0])
        hi = np.minimum(first[1] + shifts, second[1])
        draws = np.maximum(0.0, hi - lo)
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        exact = overlap_mean(g, first, second)
        assert abs(exact - draws.mean()) <= 4.0 * stderr

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            overlap_mean(w("a"), (2.0, -2.0), (0.0, 1.0))


class TestSkewCoefficientDispatch:
    def test_window_route(self):
        g = w("abab")
        got = skew_coefficient(g, ProfileVector.window(7))
        assert got == window_mean(2.0, 7)
        # window(7) is the overlap of [-7, 7] with itself, over 14
        assert abs(got - interval_overlap_by_quadrature(2.0, (-7, 7), (-7, 7)) / 14.0) <= 1e-9

    def test_cauchy_routes(self):
        g = w("aba")
        unit = skew_coefficient(g, ProfileVector.cauchy())
        assert unit * (math.pi / 2.0) == pytest.approx(cauchy_mean(math.sqrt(3.0)), abs=1e-12)
        # the defining kernel 2 pi / (4 + x^2), averaged by this module's own quadrature
        raw = gaussian_expectation(lambda x: 2.0 * math.pi / (4.0 + x * x), math.sqrt(3.0))
        assert unit == pytest.approx(raw / (math.pi / 2.0), abs=1e-9)

    def test_gaussian_routes(self):
        g = w("ab")
        unit = skew_coefficient(g, ProfileVector.gaussian())
        assert unit == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
        # scaled by the raw norm sqrt(pi / 2) of exp(-t^2), it is the defining
        # kernel sqrt(pi / 2) exp(-x^2 / 2) averaged over X ~ N(0, 2)
        root = math.sqrt(math.pi / 2.0)
        raw = gaussian_expectation(lambda x: root * math.exp(-0.5 * x * x), math.sqrt(2.0))
        assert unit * root == pytest.approx(root / math.sqrt(3.0), abs=1e-12)
        assert unit * root == pytest.approx(raw, abs=1e-9)

    def test_matches_profile_pair_mean(self):
        g = w("abA")
        sigma = math.sqrt(len(g))
        gauss = ProfileVector.gaussian()
        assert skew_coefficient(g, gauss) == pytest.approx(
            gauss.gaussian_mean(gauss, sigma)[0], abs=1e-12
        )
        window = ProfileVector.window(4)
        assert skew_coefficient(g, window) == pytest.approx(
            window.gaussian_mean(window, sigma)[0], abs=1e-12
        )

    def test_identity_gives_unit_coefficient(self):
        e = Word.identity(2)
        for profile in (ProfileVector.window(3), ProfileVector.gaussian(), ProfileVector.cauchy()):
            assert skew_coefficient(e, profile) == pytest.approx(1.0, abs=1e-9)

    def test_depends_only_on_length(self):
        p = ProfileVector.gaussian()
        assert skew_coefficient(w("abab"), p) == skew_coefficient(
            w("BAba"), p
        )

    def test_indicator_profile_rejected(self):
        # an indicator has a correlation rule with interval profiles only
        with pytest.raises(ValueError, match="no correlation rule"):
            coefficient(GSYS, w("a"), ProfileVector.indicator(0, 1), ProfileVector.gaussian())
