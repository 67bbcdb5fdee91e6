import csv
import functools
import io
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_letters
from treeskew import koopman, words as words_module
from treeskew.cli import main as cli_main
from treeskew.gaussian import GaussianMeasure
from treeskew.koopman import (
    CoefficientEstimate,
    MCBudget,
    almost_invariant_sweep,
    coefficient,
    decay_sweep,
    emit_csv,
    symmetric_difference,
    symmetric_difference_mc,
)
from treeskew.numerics import gaussian_expectation
from treeskew.orientation import OrientationMeasure, cocycle_samples
from treeskew.parallel import BLOCK_SIZE, block_moments, mean_stderr, merge_moments
from treeskew.profiles import ProfileVector
from treeskew.rng import normals
from treeskew.words import Word, parse_word, shell_size

OSYS = OrientationMeasure(0.7)
GSYS = GaussianMeasure()


def w(text: str) -> Word:
    return parse_word(text, 2)


@pytest.fixture
def built_words(monkeypatch):
    """The letters of every Word built, through either Word constructor."""
    built = []
    checked, reduced = Word.__post_init__, words_module._reduced

    def counted_check(word):
        built.append(word.letters)
        checked(word)

    def counted_reduced(letters, rank):
        built.append(letters)
        return reduced(letters, rank)

    monkeypatch.setattr(Word, "__post_init__", counted_check)
    monkeypatch.setattr(words_module, "_reduced", counted_reduced)
    return built


def binomial_mean(length: int, p: float, kernel) -> float:
    """``E[kernel(S)]`` by summing over the binomial law of the path sum ``S``."""
    return math.fsum(
        math.comb(length, j) * p**j * (1.0 - p) ** (length - j) * kernel(length - 2 * j)
        for j in range(length + 1)
    )


def shift_mean(system, length: int, kernel, knots=()) -> float:
    """``E[kernel(S)]`` for the shift of a length-``length`` word, apart from the system's code.

    The binomial sum for the orientation system; quadrature against
    ``N(0, length)`` for the Gaussian one, split at the kernel's kinks.
    """
    if isinstance(system, OrientationMeasure):
        return binomial_mean(length, system.p, kernel)
    return gaussian_expectation(kernel, math.sqrt(length), breakpoints=knots)


class TestTypes:
    def test_labels(self):
        assert OSYS.label() == "orientation(p=0.7)"
        assert OrientationMeasure(0.25, rank=3).label() == "orientation(p=0.25)"
        assert GSYS.label() == "gaussian"

    def test_validation(self):
        with pytest.raises(TypeError):
            OrientationMeasure()
        with pytest.raises(ValueError):
            OrientationMeasure(1.2)
        with pytest.raises(ValueError, match="rank"):
            OrientationMeasure(0.7, rank=0)
        with pytest.raises(ValueError, match="rank"):
            GaussianMeasure(0)
        with pytest.raises(TypeError):
            GaussianMeasure(p=0.5)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MCBudget(samples=0)
        # every draw reads the seed modulo 2**64
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ValueError, match="seed"):
                MCBudget(seed=seed)
        assert MCBudget(seed=2**64 - 1).seed == 2**64 - 1

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            CoefficientEstimate(1.0, 0.0, "guesswork", 0, 0)
        with pytest.raises(ValueError):
            CoefficientEstimate(1.0, -0.1, "exact", 0, 0)

    @pytest.mark.parametrize("system", [OSYS, GSYS], ids=["orientation", "gaussian"])
    def test_every_route_against_the_shift_law(self, system):
        # each route of this module, on the system types themselves, against
        # E[kernel(S)] computed here from the shift law alone (quadrature
        # for the Gaussian one, hence the 1e-9)
        win, g = ProfileVector.window(3), w("abA")
        overlap = lambda s: max(6 - abs(s), 0) / 6
        capped = lambda s: min(abs(s), 6)
        knots = (-6.0, 0.0, 6.0)
        want = shift_mean(system, 3, overlap, knots)
        assert coefficient(system, g, win, win).value == pytest.approx(want, abs=1e-9)
        mc = coefficient(system, g, win, win, MCBudget(40_000, 1), method="mc")
        assert mc.method == "monte-carlo" and abs(mc.value - want) <= 5.0 * mc.stderr
        curve = decay_sweep(system, win, 3, method="exact")
        assert [pt.radius for pt in curve.points] == [1, 2, 3]
        for pt in curve.points:
            assert pt.estimate.value == pytest.approx(
                shift_mean(system, pt.radius, overlap, knots), abs=1e-9
            )
        row, = almost_invariant_sweep(system, 3, [3]).rows
        defect = max(shift_mean(system, L, capped, knots) for L in range(4)) / 6
        assert row.sup_defect == pytest.approx(defect, abs=1e-9)
        sym = symmetric_difference(system, g, win)
        assert sym == pytest.approx(2.0 * shift_mean(system, 3, capped, knots), abs=1e-9)
        sym_mc = symmetric_difference_mc(system, g, win, MCBudget(40_000, 2))
        assert abs(sym_mc.value - sym) <= 5.0 * sym_mc.stderr


class TestExactRouting:
    def test_identity_word(self):
        win = ProfileVector.window(3)
        assert coefficient(OSYS, Word.identity(2), win, win).value == 1.0
        assert coefficient(GSYS, Word.identity(2), win, win).value == 1.0

    def test_single_letter_window_is_half(self):
        win = ProfileVector.window(1)
        for p in (0.3, 0.5, 0.7):
            est = coefficient(OrientationMeasure(p), w("a"), win, win)
            assert est.value == 0.5
            assert est.method == "exact"
            assert est.stderr == 0.0

    def test_orientation_window_matches_module_formula(self):
        win = ProfileVector.window(4)
        for text in ("ab", "abab", "BBB"):
            est = coefficient(OSYS, w(text), win, win)
            want = binomial_mean(len(w(text)), 0.7, lambda s: max(8 - abs(s), 0) / 8)
            assert est.value == want

    def test_orientation_gaussian_profile_matches_bound(self):
        prof = ProfileVector.gaussian()
        est = coefficient(OSYS, w("abab"), prof, prof)
        want = binomial_mean(4, 0.7, lambda s: math.exp(-0.5 * s * s))
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_gaussian_system_window(self):
        mp = pytest.importorskip("mpmath")
        win = ProfileVector.window(6)
        est = coefficient(GSYS, w("aba"), win, win)
        assert est.method == "exact"
        with mp.workdps(40):
            sigma, c = mp.sqrt(3), mp.mpf(12)
            want = mp.erf(c / (sigma * mp.sqrt(2))) - sigma * mp.sqrt(2 / mp.pi) * (
                1 - mp.exp(-c * c / (2 * sigma * sigma))
            ) / c
        assert abs(est.value - want) <= 1e-15 * want

    def test_gaussian_system_cauchy_is_quadrature(self):
        prof = ProfileVector.cauchy()
        est = coefficient(GSYS, w("abab"), prof, prof)
        assert est.method == "quadrature"
        assert 0.0 < est.value < 1.0

    def test_orientation_cauchy_is_the_binomial_mean(self):
        # the unit cauchy kernel is 4 / (4 + s^2): 2 pi / (4 + s^2) over the raw norm pi / 2
        prof = ProfileVector.cauchy()
        kernel = lambda s: 4.0 / (4.0 + s * s)
        assert coefficient(OSYS, w("a"), prof, prof).value == pytest.approx(0.8, rel=1e-15)
        assert coefficient(OSYS, w("ab"), prof, prof).value == pytest.approx(0.71, rel=1e-15)
        # a length-1 shift is +-1, so its draws agree and only rounding separates the routes
        budget, rounding = MCBudget(20_000, 3), 1e-12
        for p in (0.3, 0.7):
            system = OrientationMeasure(p)
            for g in (w("a"), w("ab"), w("abAb")):
                exact = coefficient(system, g, prof, prof)
                assert exact.method == "exact"
                assert exact.value == pytest.approx(binomial_mean(len(g), p, kernel), rel=1e-14)
                mc = coefficient(system, g, prof, prof, budget, method="mc")
                assert abs(mc.value - exact.value) <= 4.0 * mc.stderr + rounding
            curve = decay_sweep(system, prof, 3, per_shell_cap=2, budget=budget, method="mc")
            assert len(curve.points) == 6
            for pt in curve.points:
                want = binomial_mean(pt.radius, p, kernel)
                assert abs(pt.estimate.value - want) <= 4.0 * pt.estimate.stderr + rounding

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_pairs_without_a_rule_are_rejected_before_sampling(self, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("Monte Carlo blocks ran before the profile pair check")

        monkeypatch.setattr(koopman, "block_bounds", refuse)
        pairs = [
            (ProfileVector.gaussian(), ProfileVector.cauchy()),
            (ProfileVector.window(2), ProfileVector.gaussian()),
        ]
        for system in (OSYS, GSYS):
            for xi, eta in pairs:
                with pytest.raises(ValueError, match="no correlation rule"):
                    coefficient(system, w("ab"), xi, eta, MCBudget(50_000, 0), method=method)

    def test_rank_mismatch(self):
        win = ProfileVector.window(2)
        with pytest.raises(ValueError, match="rank"):
            coefficient(OSYS, parse_word("a", 3), win, win)

    def test_unknown_method(self):
        win = ProfileVector.window(2)
        with pytest.raises(ValueError, match="method"):
            coefficient(OSYS, w("a"), win, win, method="bogus")

    def test_invalid_pair_rejected_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Monte Carlo blocks ran before the profile pair check")

        monkeypatch.setattr(koopman, "block_bounds", refuse)
        xi, eta = ProfileVector.gaussian(), ProfileVector.window(3)
        for system in (OSYS, GSYS):
            with pytest.raises(ValueError, match="no correlation rule"):
                coefficient(system, w("abab"), xi, eta, MCBudget(50_000, 0), method="mc")

    def test_diagonal_symmetric_under_inverse(self):
        win = ProfileVector.window(3)
        g = w("abAB")
        assert coefficient(OSYS, g, win, win).value == coefficient(OSYS, ~g, win, win).value
        assert coefficient(GSYS, g, win, win).value == coefficient(GSYS, ~g, win, win).value


class TestMonteCarlo:
    def test_constant_samples_have_zero_stderr(self, tmp_path):
        # every draw for a length-1 word has |shift| = 1, so all samples of
        # the gaussian-profile kernel are equal
        dest = tmp_path / "decay.csv"
        argv = ["decay", "--method", "mc", "--max-radius", "2", "--shell-cap", "2",
                "--samples", "20000", "--out", str(dest)]
        assert cli_main(argv) == 0
        rows = [row for row in csv.DictReader(io.StringIO(dest.read_text())) if row["radius"] == "1"]
        words = [row["word"] for row in rows]
        assert len(words) == len(set(words)) == 2 and all(len(word) == 1 for word in words)
        prof = ProfileVector.gaussian()
        kernel_at_one = prof.correlation(prof, 1.0)
        assert kernel_at_one == coefficient(OSYS, w("b"), prof, prof).value
        assert kernel_at_one == pytest.approx(math.exp(-0.5), rel=1e-13)
        for row in rows:
            assert float(row["stderr"]) == 0.0
            assert float(row["value"]) == kernel_at_one

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_memory_does_not_grow_with_samples(self, system):
        prof = ProfileVector.gaussian()
        g = Word((1, 2) * 10, 2)
        tracemalloc.start()
        try:
            coefficient(system, g, prof, prof, budget=MCBudget(1_000_000, 5), method="mc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding the 1M draws as float64 alone would take 8 MB
        assert peak < 8 * 2**20

    @staticmethod
    def sweep_peak(cap: int) -> tuple[int, int]:
        """Peak and kept traced bytes of an orientation MC sweep to radius 8 at ``cap``."""
        tracemalloc.start()
        try:
            curve = decay_sweep(OSYS, ProfileVector.gaussian(), 8, cap,
                                MCBudget(2 * BLOCK_SIZE + 1, 3), method="mc")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curve.points) == 4 + 12 + 36 + 108 + 324 + min(972, cap) + 2 * cap
        return peak, kept

    def test_memory_does_not_grow_with_words(self):
        # 1984 and then 3456 words: the sampler's block buffers are fixed in the
        # number of words, and what a sweep holds beyond them grows less than
        # the curve it returns, one point per word
        peak, kept = self.sweep_peak(500)
        peak2, kept2 = self.sweep_peak(1000)
        assert peak < 8 * 2**20 and peak2 < 8 * 2**20
        assert (peak2 - kept2) - (peak - kept) < kept2 - kept

    @pytest.mark.parametrize("kind", ["orientation-0.3", "orientation-0.7", "gaussian"])
    @pytest.mark.parametrize(
        "profile",
        [ProfileVector.window(3), ProfileVector.indicator(-2.0, 1.5), ProfileVector.gaussian()],
        ids=["window", "indicator", "gaussian"],
    )
    def test_sweep_points_are_their_own_coefficients(self, kind, profile):
        # one block loop draws every point of a sweep, sharing seeds, prefix
        # edges and normal blocks; each point still gets the bits of its own
        # coefficient call.  Whole rank-2 shells share every prefix, and the
        # capped rank-3 sweep shares the words of shell 1.
        budget = MCBudget(2 * BLOCK_SIZE + 1, 5)
        for rank, radius, cap in ((2, 4, None), (3, 5, 9)):
            if kind == "gaussian":
                system = GaussianMeasure(rank)
            else:
                system = OrientationMeasure(float(kind.split("-")[1]), rank)
            curve = decay_sweep(system, profile, radius, cap, budget, method="mc")
            for pt in curve.points:
                for word in {pt.words[0], pt.words[-1]}:
                    one = coefficient(system, word, profile, profile, budget, "mc")
                    assert pt.estimate.value.hex() == one.value.hex()
                    assert pt.estimate.stderr.hex() == one.stderr.hex()
                    assert pt.estimate == one

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_worker_count_invisible_across_blocks(self, system):
        # a rerun repeats every bit, and the blocked estimate is the ordered
        # merge of the blocks of one unblocked draw of all n shifts
        win, g = ProfileVector.window(3), w("abA")
        n = 2 * BLOCK_SIZE + 1
        one, two = (
            coefficient(system, g, win, win, budget=MCBudget(n, 8), method="mc") for _ in range(2)
        )
        assert (one.value, one.stderr) == (two.value, two.stderr)
        if isinstance(system, OrientationMeasure):
            shifts = cocycle_samples(g, system.p, 8, n)
        else:
            shifts = math.sqrt(len(g)) * normals(8, 0, n)
        kernel = win.correlation_array(win, shifts)
        blocks = [block_moments(kernel[lo : lo + BLOCK_SIZE]) for lo in range(0, n, BLOCK_SIZE)]
        assert len(blocks) == 3
        merged = functools.reduce(merge_moments, blocks, (0, 0.0, 0.0))
        assert (one.value, one.stderr) == mean_stderr(merged)

    def test_reproducible_and_worker_invariant(self):
        win = ProfileVector.window(2)
        a = coefficient(OSYS, w("ab"), win, win, budget=MCBudget(20_000, 3), method="mc")
        b = coefficient(OSYS, w("ab"), win, win, budget=MCBudget(20_000, 3), method="mc")
        assert a.value == b.value
        assert a.stderr == b.stderr
        assert a.method == "monte-carlo"
        assert a.samples == 20_000 and a.seed == 3

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_exact_vs_mc_window(self, system):
        win = ProfileVector.window(3)
        for i, text in enumerate(("a", "ab", "abab", "aBaB")):
            exact = coefficient(system, w(text), win, win)
            mc = coefficient(
                system, w(text), win, win, budget=MCBudget(40_000, seed=i), method="mc"
            )
            # length-1 words hit the same overlap for either sign, so the
            # estimator can be exactly constant there
            if len(w(text)) > 1:
                assert mc.stderr > 0.0
            assert abs(exact.value - mc.value) <= 5.0 * mc.stderr + 1e-15

    def test_exact_vs_mc_gaussian_profile(self):
        prof = ProfileVector.gaussian()
        for system, seed in ((OSYS, 11), (GSYS, 12)):
            exact = coefficient(system, w("aba"), prof, prof)
            mc = coefficient(
                system, w("aba"), prof, prof, budget=MCBudget(40_000, seed), method="mc"
            )
            assert abs(exact.value - mc.value) <= 5.0 * mc.stderr

    def test_exact_vs_mc_cauchy_on_gaussian_system(self):
        prof = ProfileVector.cauchy()
        exact = coefficient(GSYS, w("abab"), prof, prof)
        mc = coefficient(GSYS, w("abab"), prof, prof, budget=MCBudget(60_000, 7), method="mc")
        assert abs(exact.value - mc.value) <= 5.0 * mc.stderr

    def test_asymmetric_cross_pair_exact_vs_mc(self):
        # cross-correlation of distinct intervals is not even in the shift,
        # so this pins down the direction convention on both routes
        xi = ProfileVector.window(2)
        eta = ProfileVector.indicator(0.5, 3.0)
        for system, seed in ((OrientationMeasure(0.8), 21), (GSYS, 22)):
            exact = coefficient(system, w("ab"), xi, eta)
            mc = coefficient(system, w("ab"), xi, eta, budget=MCBudget(60_000, seed), method="mc")
            assert abs(exact.value - mc.value) <= 5.0 * mc.stderr

    def test_cauchy_schwarz_bound(self):
        rng = random.Random(61)
        profiles = [
            ProfileVector.window(2),
            ProfileVector.window(5),
            ProfileVector.indicator(-2.0, 1.0),
            ProfileVector.gaussian(),
        ]
        for _ in range(40):
            system = OSYS if rng.random() < 0.5 else GSYS
            g = Word(random_letters(rng, rng.randint(0, 6), 2), 2)
            xi = rng.choice(profiles)
            eta = rng.choice(profiles)
            if xi.is_interval_kind != eta.is_interval_kind or xi.kind != eta.kind:
                if not (xi.is_interval_kind and eta.is_interval_kind):
                    continue
            est = coefficient(system, g, xi, eta)
            assert abs(est.value) <= xi.norm() * eta.norm() + 1e-9


class TestSymmetricDifference:
    def test_identity_word_is_zero(self):
        assert symmetric_difference(OSYS, Word.identity(2), ProfileVector.window(2)) == 0.0

    def test_single_letter_window_one(self):
        # the set has measure 2 and the shifted overlap is 1 for either sign
        assert symmetric_difference(OSYS, w("a"), ProfileVector.window(1)) == 2.0

    def test_matches_overlap_route_on_gaussian(self):
        mp = pytest.importorskip("mpmath")
        got = symmetric_difference(GSYS, w("aba"), ProfileVector.window(2))
        with mp.workdps(40):
            # E[length((I + X) ∩ I)] for I = [-2, 2] and X ~ N(0, 3)
            overlap = mp.quad(lambda x: (4 - abs(x)) * mp.npdf(x, 0, mp.sqrt(3)), [-4, 0, 4])
        assert got == pytest.approx(float(2 * (4 - overlap)), abs=1e-12)

    def test_monotone_along_powers(self):
        win = ProfileVector.window(2)
        values = [
            symmetric_difference(OSYS, Word((1,) * L, 2), win) for L in range(7)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == 0.0

    @pytest.mark.parametrize("system,seed", [(OSYS, 5), (GSYS, 6)])
    def test_exact_vs_mc(self, system, seed):
        a = ProfileVector.indicator(-1.5, 2.0)
        exact = symmetric_difference(system, w("ab"), a)
        mc = symmetric_difference_mc(system, w("ab"), a, MCBudget(50_000, seed))
        assert abs(exact - mc.value) <= 5.0 * mc.stderr

    def test_mc_reproducible(self):
        a = ProfileVector.window(2)
        m1 = symmetric_difference_mc(OSYS, w("ab"), a, MCBudget(10_000, 1))
        m2 = symmetric_difference_mc(OSYS, w("ab"), a, MCBudget(10_000, 1))
        assert m1.value == m2.value

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_no_cancellation_for_a_huge_window(self, system):
        # with width 2e9 the cap never binds, so the measure is 2 E|S|; the
        # old route 2 (nu(A) - overlap) lost seven digits to the subtraction
        mp = pytest.importorskip("mpmath")
        if isinstance(system, OrientationMeasure):
            # |S| = 2 when the two edges of "ab" agree in orientation, 0 otherwise
            p = Fraction(7, 10)
            want = float(2 * 2 * (p**2 + (1 - p) ** 2))
            assert want == 2.32
        else:
            with mp.workdps(40):
                want = float(2 * mp.sqrt(2) * mp.sqrt(2 / mp.pi))
        got = symmetric_difference(system, w("ab"), ProfileVector.window(10**9))
        assert abs(got - want) <= 1e-15 * want

    def test_smooth_profile_rejected(self):
        with pytest.raises(ValueError, match="indicator or window"):
            symmetric_difference(OSYS, w("a"), ProfileVector.gaussian())


class TestDecaySweep:
    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            decay_sweep(OSYS, ProfileVector.gaussian(), 0)

    def test_shell_counts_and_aggregates(self):
        curve = decay_sweep(OSYS, ProfileVector.gaussian(), 4, per_shell_cap=10)
        counts = {}
        for pt in curve.points:
            counts[pt.radius] = counts.get(pt.radius, 0) + len(pt.words)
        assert counts == {1: 4, 2: 10, 3: 10, 4: 10}

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_value_depends_only_on_length(self, system):
        # an exact sweep holds one point per radius, covering every sampled word of its shell
        profile = ProfileVector.gaussian()
        curve = decay_sweep(system, profile, 5, per_shell_cap=8)
        assert [pt.radius for pt in curve.points] == [1, 2, 3, 4, 5]
        for pt in curve.points:
            assert pt.words == koopman._shell_words(pt.radius, system.rank, 8, 0)
            assert len(set(pt.words)) == min(8, 4 * 3 ** (pt.radius - 1))
            assert all(coefficient(system, w, profile, profile) == pt.estimate for w in pt.words)

    def test_means_strictly_decrease(self):
        for system in (OSYS, GSYS):
            curve = decay_sweep(system, ProfileVector.gaussian(), 8, per_shell_cap=5)
            values = [pt.estimate.value for pt in curve.points]
            assert len(values) == 8
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_mc_method_reproducible(self):
        budget = MCBudget(2_000, seed=9)
        one = decay_sweep(OSYS, ProfileVector.window(3), 3, 6, budget, method="mc")
        two = decay_sweep(OSYS, ProfileVector.window(3), 3, 6, budget, method="mc")
        assert [pt.estimate.value for pt in one.points] == [
            pt.estimate.value for pt in two.points
        ]
        assert all(pt.estimate.method == "monte-carlo" for pt in one.points)
        # Monte Carlo estimates each word from its own draws: one point per word
        assert [len(pt.words) for pt in one.points] == [1] * (4 + 6 + 6)
        assert [pt.radius for pt in one.points] == [1] * 4 + [2] * 6 + [3] * 6

    def test_sampled_shells_are_distinct_words(self):
        curve = decay_sweep(OSYS, ProfileVector.gaussian(), 6, per_shell_cap=12)
        for radius in (5, 6):
            words = [w for pt in curve.points if pt.radius == radius for w in pt.words]
            assert len(words) == len(set(words)) == 12
            assert all(len(word) == radius for word in words)

    @pytest.mark.parametrize("length,rank", [(5, 2), (4, 3)])
    def test_capped_shell_builds_each_word_once(self, built_words, length, rank):
        # a cap one below the shell size draws each sampled word once: no
        # redraws of words already held, through either Word constructor
        size = shell_size(length, rank)
        got = koopman._shell_words(length, rank, size - 1, seed=0)
        assert len(got) == len(set(got)) == len(built_words) == size - 1
        assert all(len(word) == length and word.rank == rank for word in got)

    def test_exact_sweep_and_csv_build_one_word_per_point(self, built_words):
        # shells are held as indices and enumerated ones print from their
        # labels, so the only Word built is the one each coefficient call reads
        curve = decay_sweep(OSYS, ProfileVector.gaussian(), 7, per_shell_cap=100_000)
        buf = io.StringIO()
        emit_csv(curve, buf)
        assert buf.getvalue().count("\n") == 1 + sum(4 * 3 ** (L - 1) for L in range(1, 8))
        assert len(curve.points) == 7
        assert len(built_words) <= len(curve.points)

    def test_large_shells_draw_as_random_sample_does(self):
        # beyond sys.maxsize the sample is drawn by Random.sample's own set
        # loop; on a shell both can draw from they draw the same indices
        size = shell_size(20, 2)
        for seed in range(3):
            got = koopman._distinct_draws(random.Random(seed), size, 40)
            assert got == tuple(random.Random(seed).sample(range(size), 40))

    def test_huge_shell_needs_cap(self):
        with pytest.raises(ValueError, match="per_shell_cap"):
            decay_sweep(OSYS, ProfileVector.gaussian(), 11)

    def test_shell_cap_checked_before_any_coefficient(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a coefficient was evaluated before the shell check")

        monkeypatch.setattr(koopman, "coefficient", refuse)
        monkeypatch.setattr(koopman, "_mc_estimates", refuse)
        for method in ("mc", "exact"):
            with pytest.raises(ValueError, match="length 11 has 236196 words"):
                decay_sweep(OSYS, ProfileVector.gaussian(), 12, budget=MCBudget(10), method=method)

    def test_unknown_method_rejected_before_any_shell(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a shell was enumerated before the method check")

        monkeypatch.setattr(koopman, "_shell_words", refuse)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            decay_sweep(OSYS, ProfileVector.gaussian(), 3, method="bogus")

    @pytest.mark.parametrize("cap,method", [(0, "exact"), (-3, "exact"), (0, "mc")])
    def test_nonpositive_cap_rejected_before_any_shell(self, monkeypatch, cap, method):
        def refuse(*args, **kwargs):
            raise AssertionError("a shell was enumerated before the cap check")

        monkeypatch.setattr(koopman, "_shell_words", refuse)
        with pytest.raises(ValueError, match=f"per_shell_cap must be >= 1, got {cap}"):
            decay_sweep(OSYS, ProfileVector.gaussian(), 3, per_shell_cap=cap,
                        budget=MCBudget(10), method=method)

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_sweep_matches_per_word_coefficient(self, system):
        profiles = [ProfileVector.gaussian(), ProfileVector.window(3),
                    ProfileVector.indicator(-1.0, 2.5)]
        if isinstance(system, GaussianMeasure):
            profiles.append(ProfileVector.cauchy())
        for prof in profiles:
            curve = decay_sweep(system, prof, 4, method="exact")
            words = [w for pt in curve.points for w in pt.words]
            assert len(words) == sum(4 * 3 ** (L - 1) for L in range(1, 5))
            for pt in curve.points:
                for word in pt.words:
                    assert pt.estimate == coefficient(system, word, prof, prof, method="exact")

    @pytest.mark.parametrize("method", ["exact"])
    def test_exact_sweep_evaluates_once_per_length(self, monkeypatch, method):
        lengths = []
        real = koopman.coefficient

        def counted(system, g, *args):
            lengths.append(len(g))
            return real(system, g, *args)

        monkeypatch.setattr(koopman, "coefficient", counted)
        curve = decay_sweep(OSYS, ProfileVector.gaussian(), 6, method=method)
        assert lengths == [1, 2, 3, 4, 5, 6]
        assert len(curve.points) == 6
        assert [len(pt.words) for pt in curve.points] == [4 * 3 ** (L - 1) for L in range(1, 7)]

    def test_gaussian_mc_sweep_estimates_once_per_shell(self, monkeypatch):
        # Gaussian draws depend on a word only through its length, so one
        # estimate covers the whole sampled shell
        lengths = []
        real = koopman._mc_estimates

        def counted(system, points, *args):
            lengths.append([len(words[0]) for words in points])
            return real(system, points, *args)

        monkeypatch.setattr(koopman, "_mc_estimates", counted)
        prof, budget = ProfileVector.gaussian(), MCBudget(5_000, seed=3)
        curve = decay_sweep(GSYS, prof, 3, 3, budget, method="mc")
        assert lengths == [[1, 2, 3]]
        assert [pt.radius for pt in curve.points] == [1, 2, 3]
        assert [len(set(pt.words)) for pt in curve.points] == [3, 3, 3]
        for pt in curve.points:
            for word in pt.words:
                assert pt.estimate == coefficient(GSYS, word, prof, prof, budget, "mc")


class TestAlmostInvariantSweep:
    def test_zero_radius(self):
        table = almost_invariant_sweep(OSYS, 0, [10, 100])
        assert all(row.sup_defect == 0.0 for row in table.rows)
        assert all(row.bound == 0.0 for row in table.rows)

    def test_orientation_bound_holds_rowwise(self):
        table = almost_invariant_sweep(OSYS, 4, [10, 100, 1000])
        for row in table.rows:
            assert row.bound == 4.0 / (2.0 * row.n)
            assert row.sup_defect <= row.bound

    def test_gaussian_bound_holds_rowwise(self):
        table = almost_invariant_sweep(GSYS, 4, [10, 100, 1000])
        for row in table.rows:
            assert row.sup_defect <= row.bound

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_bound_holds_at_radius_20_for_huge_windows(self, system):
        # 1 - coefficient cancels most digits here, which pushed the
        # gaussian sup past its bound (7.97884561754e-08 > 7.97884560803e-08)
        table = almost_invariant_sweep(system, 20, [10, 100, 1000, 10_000_000])
        for row in table.rows:
            assert 0.0 < row.sup_defect <= row.bound

    def test_gaussian_defect_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        table = almost_invariant_sweep(GSYS, 20, [1, 10, 100, 1000, 10_000_000])
        with mp.workdps(40):
            sigma = mp.sqrt(20)
            for row in table.rows:
                t = mp.mpf(2 * row.n)
                excess = sigma * mp.npdf(t / sigma) - t * mp.ncdf(-t / sigma)
                want = (sigma * mp.sqrt(2 / mp.pi) - 2 * excess) / t
                assert abs(row.sup_defect - want) <= 1e-15 * want

    @pytest.mark.parametrize("system", [OSYS, GSYS])
    def test_defect_is_one_minus_coefficient(self, system):
        for n in (1, 3, 10, 100):
            win = ProfileVector.window(n)
            for length in range(8):
                table = almost_invariant_sweep(system, length, [n])
                coef = coefficient(system, Word((1,) * length, 2), win, win)
                # the defect grows with length, so the sup sits at the radius
                assert table.rows[0].sup_defect == pytest.approx(1.0 - coef.value, abs=1e-12)

    def test_doubling_n_halves_the_defect(self):
        table = almost_invariant_sweep(OSYS, 4, [10, 20])
        small, large = table.rows
        assert large.sup_defect == pytest.approx(small.sup_defect / 2.0, rel=1e-12)

    def test_gaussian_defect_follows_one_over_n(self):
        table = almost_invariant_sweep(GSYS, 4, [100, 1000])
        scaled = [row.n * row.sup_defect for row in table.rows]
        assert abs(scaled[0] - scaled[1]) <= 0.1 * scaled[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            almost_invariant_sweep(OSYS, -1, [10])
        with pytest.raises(ValueError):
            almost_invariant_sweep(OSYS, 3, [])
        with pytest.raises(ValueError, match="window size"):
            almost_invariant_sweep(GSYS, 3, [10, 0])

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_non_integer_window_size_rejected(self, n):
        # a size is never truncated: 2.5 used to run, and print, as n=2
        for system in (OSYS, GSYS):
            with pytest.raises(ValueError, match="window size must be an integer"):
                almost_invariant_sweep(system, 3, [n])


class TestCsvEmission:
    def test_decay_schema_and_determinism(self):
        curve = decay_sweep(OSYS, ProfileVector.gaussian(), 3, per_shell_cap=4)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            emit_csv(curve, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        lines = bufs[0].splitlines()
        assert lines[0] == "system,profile,radius,word,method,value,stderr,samples,seed"
        assert len(lines) == 1 + sum(len(pt.words) for pt in curve.points)
        assert lines[1].startswith("orientation(p=0.7),gaussian[unit],1,")

    def test_float_round_trip_at_17_digits(self):
        import csv as csv_mod

        # a sampled shell prints each word; an enumerated one prints its labels
        for radius, cap in ((3, 3), (4, 100_000)):
            curve = decay_sweep(GSYS, ProfileVector.cauchy(), radius, per_shell_cap=cap)
            buf = io.StringIO()
            emit_csv(curve, buf)
            buf.seek(0)
            rows = list(csv_mod.DictReader(buf))
            pairs = [(pt, w) for pt in curve.points for w in pt.words]
            assert len(rows) == len(pairs)
            for row, (pt, word) in zip(rows, pairs):
                assert float(row["value"]) == pt.estimate.value
                assert row["word"] == str(word)

    def test_sweep_schema(self):
        table = almost_invariant_sweep(GSYS, 3, [10, 100])
        buf = io.StringIO()
        emit_csv(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "system,ball_radius,n,sup_defect,bound"
        assert len(lines) == 3
        assert lines[1].startswith("gaussian,3,10,")

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            emit_csv(object(), io.StringIO())
