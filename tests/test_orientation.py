import functools
import math
import random

import numpy as np
import pytest

from conftest import random_letters
from treeskew import orientation
from treeskew.koopman import coefficient
from treeskew.orientation import (
    Orientation,
    OrientationMeasure,
    SkewPoint,
    cocycle_sampler,
    cocycle_samples,
    group_cocycle,
    path_cocycle,
    path_sum_law,
    pushforward,
    skew_step,
)
from treeskew.parallel import BLOCK_SIZE, block_bounds
from treeskew.profiles import ProfileVector
from treeskew.rng import sample_seed
from treeskew.words import Word, ball_edges, edge_fingerprint, parse_word, shell

MEASURE = OrientationMeasure(0.7)


def w(text: str) -> Word:
    return parse_word(text, 2)


def rand_word(rng: random.Random, max_len: int) -> Word:
    return Word(random_letters(rng, rng.randint(0, max_len), 2), 2)


def window_coefficient(g: Word, n: int, p: float) -> float:
    """Exact window coefficient ``E[max(2n - |S|, 0)] / (2n)`` at ``g``."""
    win = ProfileVector.window(n)
    return coefficient(OrientationMeasure(p), g, win, win).value


def gaussian_bound(g: Word, p: float) -> float:
    """Exact normalized gaussian-profile coefficient ``E[exp(-S^2 / 2)]`` at ``g``."""
    prof = ProfileVector.gaussian()
    return coefficient(OrientationMeasure(p), g, prof, prof).value


class TestMeasure:
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_degenerate_p(self, p):
        with pytest.raises(ValueError):
            OrientationMeasure(p)

    def test_shift_law_rules(self):
        # every rule reads the binomial path-sum law of a length-L word, and
        # draws read the word's own edges
        law = path_sum_law(5, 0.7)
        win = ProfileVector.window(2)
        assert MEASURE.kernel_mean(win, win, 5) == (
            law.expectation(lambda s: win.correlation(win, float(s))), "exact"
        )
        assert MEASURE.capped_shift_mean(5, 3.0) == law.expectation(lambda s: min(abs(s), 3.0))
        assert MEASURE.shift_bound(5) == 5.0
        assert MEASURE.draws_read_edges
        g = w("abA")
        draws = MEASURE.sampler([g], 4, lambda s: s)(0, 300)
        assert [x.tolist() for x in draws] == [cocycle_samples(g, 0.7, 4, 300).tolist()]


class TestOrientationValues:
    def test_values_are_signs_and_stable(self):
        omega = Orientation(123, MEASURE)
        for edge in ball_edges(4, 2):
            v = omega.value(edge)
            assert v in (-1, 1)
            assert omega.value(edge) == v

    def test_seed_determinism_and_variation(self):
        edges = ball_edges(5, 2)
        a = [Orientation(9, MEASURE).value(e) for e in edges]
        b = [Orientation(9, MEASURE).value(e) for e in edges]
        c = [Orientation(10, MEASURE).value(e) for e in edges]
        assert a == b
        assert a != c

    def test_overrides_win(self):
        edge = w("a")
        for forced in (-1, 1):
            omega = Orientation(9, MEASURE, overrides={edge: forced})
            assert omega.value(edge) == forced

    def test_override_validation(self):
        edge = w("a")
        with pytest.raises(ValueError):
            Orientation(0, MEASURE, overrides={edge: 2})

    def test_rank_mismatch(self):
        edge = parse_word("a", 3)
        with pytest.raises(ValueError, match="rank"):
            Orientation(0, MEASURE).value(edge)

    def test_base_vertex_is_no_edge(self):
        base = Orientation(0, MEASURE, overrides={w("a"): 1})
        for omega in (base, pushforward(w("ab"), base)):
            with pytest.raises(ValueError, match="names no edge"):
                omega.value(Word.identity(2))
        with pytest.raises(ValueError, match="names no edge"):
            Orientation(0, MEASURE, overrides={Word.identity(2): 1})

    def test_empirical_edge_frequency(self):
        # distinct edges are independent PRF draws; the fraction pointing
        # toward the base vertex should match p closely at this volume
        omega = Orientation(2024, MEASURE)
        edges = ball_edges(10, 2)
        assert len(edges) > 100_000
        toward = sum(1 for e in edges if omega.value(e) == -1)
        assert abs(toward / len(edges) - 0.7) < 0.005


class TestPushforward:
    def test_identity_returns_same_object(self):
        omega = Orientation(1, MEASURE)
        assert pushforward(Word.identity(2), omega) is omega

    def test_known_translate_values(self):
        edge_a = w("a")  # 1 -- a
        edge_inv = w("A")  # 1 -- A
        omega = Orientation(0, MEASURE, overrides={edge_a: 1, edge_inv: 1})
        moved = pushforward(w("a"), omega)
        # the image of (1 -- a) is (a -- aa), reference preserved
        assert moved.value(w("aa")) == 1
        # the image of (1 -- A) is (a -- 1), which runs against the reference of edge a
        assert moved.value(edge_a) == -1

    def test_composition(self):
        rng = random.Random(71)
        edges = ball_edges(5, 2)
        for _ in range(200):
            omega = Orientation(rng.getrandbits(64), MEASURE)
            g, h = rand_word(rng, 5), rand_word(rng, 5)
            once = pushforward(g * h, omega)
            twice = pushforward(g, pushforward(h, omega))
            for edge in rng.sample(edges, 20):
                assert once.value(edge) == twice.value(edge)

    def test_inverse_round_trip(self):
        rng = random.Random(73)
        edges = ball_edges(4, 2)
        for _ in range(100):
            omega = Orientation(rng.getrandbits(64), MEASURE)
            g = rand_word(rng, 6)
            back = pushforward(~g, pushforward(g, omega))
            for edge in rng.sample(edges, 15):
                assert back.value(edge) == omega.value(edge)


class TestPathCocycle:
    def test_empty_path(self):
        omega = Orientation(5, MEASURE)
        assert path_cocycle(omega, w("ab"), w("ab")) == 0

    def test_known_values_from_overrides(self):
        overrides = {
            w("a"): 1,  # 1 -- a
            w("ab"): 1,  # a -- ab
        }
        omega = Orientation(0, MEASURE, overrides=overrides)
        assert path_cocycle(omega, Word.identity(2), w("ab")) == 2
        assert path_cocycle(omega, w("ab"), Word.identity(2)) == -2
        omega2 = Orientation(0, MEASURE, overrides={**overrides, w("ab"): -1})
        assert path_cocycle(omega2, Word.identity(2), w("ab")) == 0

    def test_antisymmetry_and_additivity(self):
        rng = random.Random(79)
        for _ in range(300):
            omega = Orientation(rng.getrandbits(64), MEASURE)
            x, y, z = (rand_word(rng, 7) for _ in range(3))
            assert path_cocycle(omega, x, y) == -path_cocycle(omega, y, x)
            assert path_cocycle(omega, x, z) == path_cocycle(omega, x, y) + path_cocycle(
                omega, y, z
            )

    def test_bounded_by_distance(self):
        rng = random.Random(83)
        for _ in range(200):
            omega = Orientation(rng.getrandbits(64), MEASURE)
            x, y = rand_word(rng, 8), rand_word(rng, 8)
            c = path_cocycle(omega, x, y)
            d = len(~x * y)
            assert abs(c) <= d
            assert (c - d) % 2 == 0


class TestChainRule:
    def test_cocycle_of_identity(self):
        omega = Orientation(3, MEASURE)
        assert group_cocycle(omega, Word.identity(2)) == 0


class TestSkewAction:
    def test_shift_uses_inverse_cocycle(self):
        edge_a = w("a")
        omega = Orientation(0, MEASURE, overrides={edge_a: 1})
        moved = skew_step(w("A"), SkewPoint(omega, 0.0))
        assert moved.t == 1.0

    def test_inverse_step_returns(self):
        rng = random.Random(97)
        edges = ball_edges(4, 2)
        for _ in range(100):
            omega = Orientation(rng.getrandbits(64), MEASURE)
            point = SkewPoint(omega, 2.0)
            g = rand_word(rng, 6)
            back = skew_step(~g, skew_step(g, point))
            assert back.t == point.t
            for edge in rng.sample(edges, 10):
                assert back.orientation.value(edge) == omega.value(edge)


class TestPathSumLaw:
    def test_small_law_is_exact(self):
        law = path_sum_law(3, 0.5)
        assert sorted(law.pmf) == [-3, -1, 1, 3]
        assert law.pmf[3] == 0.125
        assert law.pmf[1] == 0.375
        assert 0 not in law.pmf

    def test_zero_length(self):
        law = path_sum_law(0, 0.3)
        assert law.pmf == {0: 1.0}
        assert law.expectation(float) == 0.0

    @pytest.mark.parametrize("length,p", [(1, 0.3), (4, 0.5), (5, 0.7), (6, 0.41)])
    def test_against_pattern_enumeration(self, length, p):
        # brute force over all 2^L sign patterns of the geodesic edges
        pmf: dict[int, float] = {}
        for mask in range(2**length):
            signs = [(-1 if (mask >> i) & 1 else 1) for i in range(length)]
            prob = math.prod(p if s == -1 else 1.0 - p for s in signs)
            key = sum(signs)
            pmf[key] = pmf.get(key, 0.0) + prob
        law = path_sum_law(length, p)
        assert set(law.pmf) == set(pmf)
        for s, q in pmf.items():
            assert law.pmf[s] == pytest.approx(q, abs=1e-14)

    def test_mean_formula(self):
        for length, p in ((2, 0.3), (7, 0.7), (12, 0.45)):
            law = path_sum_law(length, p)
            assert law.expectation(float) == pytest.approx(length * (1 - 2 * p), abs=1e-12)
            assert abs(math.fsum(law.pmf.values()) - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            path_sum_law(-1, 0.5)
        with pytest.raises(ValueError):
            path_sum_law(3, 0.0)


class TestWindowCoefficient:
    def test_single_letter_is_half(self):
        for p in (0.3, 0.5, 0.7, 0.9):
            assert window_coefficient(w("a"), 1, p) == 0.5

    def test_identity_word_is_one(self):
        assert window_coefficient(Word.identity(2), 5, 0.7) == 1.0

    def test_lower_bound_and_monotonicity_in_n(self):
        rng = random.Random(101)
        for _ in range(50):
            g = rand_word(rng, 10)
            p = rng.uniform(0.1, 0.9)
            values = [window_coefficient(g, n, p) for n in (1, 2, 5, 10, 50)]
            for n, v in zip((1, 2, 5, 10, 50), values):
                assert v >= 1.0 - len(g) / (2.0 * n) - 1e-12
                assert v <= 1.0 + 1e-12
            assert values == sorted(values)

    def test_matches_direct_enumeration(self):
        g, n, p = w("abab"), 3, 0.6
        total = 0.0
        for mask in range(2 ** len(g)):
            signs = [(-1 if (mask >> i) & 1 else 1) for i in range(len(g))]
            prob = math.prod(p if s == -1 else 1.0 - p for s in signs)
            total += prob * max(2 * n - abs(sum(signs)), 0) / (2 * n)
        assert window_coefficient(g, n, p) == pytest.approx(total, abs=1e-14)

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="window size"):
            window_coefficient(w("a"), 0, 0.7)


class TestGaussianBound:
    def test_matches_direct_enumeration(self):
        g, p = w("abA"), 0.35
        total = 0.0
        for mask in range(2 ** len(g)):
            signs = [(-1 if (mask >> i) & 1 else 1) for i in range(len(g))]
            prob = math.prod(p if s == -1 else 1.0 - p for s in signs)
            total += prob * math.exp(-0.5 * sum(signs) ** 2)
        assert gaussian_bound(g, p) == pytest.approx(total, abs=1e-14)

    def test_transient_decay(self):
        values = [gaussian_bound(Word((1,) * L, 2), 0.7) for L in range(1, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_driftless_is_larger_and_sqrt_slow(self):
        # for p = 1/2 the path sum has zero mean and variance L, so the
        # bound behaves like 1/sqrt(L+1) and dominates the drifting case
        transient = gaussian_bound(Word((1,) * 20, 2), 0.7)
        driftless = gaussian_bound(Word((1,) * 20, 2), 0.5)
        assert driftless > transient
        for L in (8, 12, 16, 20, 30):
            val = gaussian_bound(Word((1,) * L, 2), 0.5)
            assert 0.7 < val * math.sqrt(L + 1.0) < 1.3


class TestCocycleSamples:
    def test_matches_scalar_cocycle_loop(self):
        g, p, seed = w("abAB"), 0.7, 77
        n = BLOCK_SIZE + 200
        draws = cocycle_samples(g, p, seed, n)
        measure = OrientationMeasure(p)
        # the first draws and those on both sides of the first block boundary
        for i in [*range(200), *range(BLOCK_SIZE - 100, n)]:
            omega = Orientation(sample_seed(seed, i), measure)
            assert group_cocycle(omega, g) == draws[i]

    def test_worker_count_is_invisible(self):
        # draw i depends on (seed, i) only, not on where the blocks split
        g, n = w("abab"), 2 * BLOCK_SIZE + 1
        blocked = cocycle_samples(g, 0.6, 5, n)
        assert np.array_equal(cocycle_samples(g, 0.6, 5, n), blocked)
        draws = cocycle_sampler([g], 0.6, 5, lambda s: s)
        cuts = [0, 100, BLOCK_SIZE + 7, n]
        split = np.concatenate([x for lo, hi in zip(cuts, cuts[1:]) for x in draws(lo, hi)])
        assert np.array_equal(split, blocked)
        with pytest.raises(ValueError):  # a block holds at most BLOCK_SIZE draws
            next(draws(0, n))

    @pytest.mark.parametrize(
        "profile",
        [ProfileVector.window(3), ProfileVector.indicator(-2.0, 1.5), ProfileVector.gaussian()],
        ids=["window", "indicator", "gaussian"],
    )
    def test_kernel_table_gather_is_bitwise(self, profile):
        # the kernel is evaluated once per shift L - 2c and gathered; that must
        # give the bits of the kernel of each word's own draws.  Shell 4 alone
        # has more prefix edges (160) than one group of words holds.
        words = [Word.identity(2), w("abAB"), w("BaBaBaBaBaBa"), *shell(4, 2)]
        n, p, seed = 2 * BLOCK_SIZE + 1, 0.3, 9
        kernel = functools.partial(profile.correlation_array, profile)
        draws = cocycle_sampler(words, p, seed, kernel)
        for lo, hi in block_bounds(n):
            for g, values in zip(words, draws(lo, hi), strict=True):
                shifts = cocycle_samples(g, p, seed, hi)[lo:hi]
                assert values.tobytes() == kernel(shifts).tobytes()

    def test_edge_rows_carry_each_prefix_edge_fingerprint(self):
        # the rows extend each parent's fingerprint by one letter; they must
        # be the prefix words' own fingerprints f, keyed as f ^ f >> 30
        def keyed(edge):
            f = edge_fingerprint(edge)
            return f ^ f >> 30

        words = [w("abAB"), w("abAb"), w("BaBaBaBaBaBa"), *shell(3, 2)]
        fps, _, _, members = orientation._edge_rows(words)
        prefixes = {g.letters[:j]: g.prefix(j) for g in words for j in range(1, len(g) + 1)}
        assert sorted(fps[:, 0].tolist()) == sorted(map(keyed, prefixes.values()))
        for (row, length), g in zip(members, words):
            assert fps[row, 0] == keyed(g)

    def test_parity_and_range(self):
        g = w("ababa")
        draws = cocycle_samples(g, 0.3, 11, 5000)
        assert draws.dtype == np.int64
        assert np.all(np.abs(draws) <= len(g))
        assert np.all((draws - len(g)) % 2 == 0)

    def test_draws_are_pinned(self):
        # the draws of a seed are fixed: they read the pinned edge fingerprints
        assert cocycle_samples(w("abAB"), 0.7, 3, 6).tolist() == [-4, -4, -4, 0, -2, -2]

    def test_identity_and_empty(self):
        assert cocycle_samples(Word.identity(2), 0.7, 0, 10).tolist() == [0] * 10
        assert cocycle_samples(w("ab"), 0.7, 0, 0).size == 0

    def test_negative_count_rejected_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler was built before the count check")

        monkeypatch.setattr(orientation, "cocycle_sampler", refuse)
        with pytest.raises(ValueError, match="sample count"):
            cocycle_samples(w("ab"), 0.7, 0, -1)

    def test_distribution_matches_path_sum_law(self):
        g, p, n = w("abab"), 0.7, 100_000
        draws = cocycle_samples(g, p, seed=4, n=n)
        law = path_sum_law(len(g), p)
        for s, q in sorted(law.pmf.items()):
            freq = float(np.mean(draws == s))
            sigma = math.sqrt(q * (1.0 - q) / n)
            assert abs(freq - q) <= 4.0 * sigma + 1e-12

    def test_skew_shift_has_same_law(self):
        # the skew shift for g is the cocycle of g^-1, whose law along an
        # outward geodesic coincides with the path-sum law of |g|
        g, p = w("aB"), 0.65
        measure = OrientationMeasure(p)
        counts: dict[int, int] = {}
        trials = 4000
        for i in range(trials):
            omega = Orientation(sample_seed(9, i), measure)
            moved = skew_step(g, SkewPoint(omega, 0.0))
            counts[int(moved.t)] = counts.get(int(moved.t), 0) + 1
        law = path_sum_law(len(g), p)
        for s, q in sorted(law.pmf.items()):
            freq = counts.get(s, 0) / trials
            sigma = math.sqrt(q * (1.0 - q) / trials)
            assert abs(freq - q) <= 5.0 * sigma + 1e-12
