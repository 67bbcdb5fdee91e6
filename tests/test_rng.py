import math
import random

import numpy as np
import pytest

from treeskew.parallel import BLOCK_SIZE
from treeskew.rng import (
    MASK64,
    NORMAL_KEYS,
    NormalStream,
    fingerprint_letters,
    key_fingerprints,
    key_seeds,
    mix64,
    mix64_inplace,
    normals,
    prf_bits,
    prf_mixed,
    prf_uniform,
    prf_uniform_array,
    sample_seed,
    sample_seeds_array,
)


def test_mix64_stays_in_range():
    rng = random.Random(3)
    for _ in range(200):
        x = rng.getrandbits(64)
        assert 0 <= mix64(x) <= MASK64


def test_mix64_scalar_vector_agree():
    rng = random.Random(5)
    xs = np.array([rng.getrandbits(64) for _ in range(500)], dtype=np.uint64)
    expected = np.array([mix64(int(x)) for x in xs], dtype=np.uint64)
    assert np.array_equal(mix64_inplace(xs.copy()), expected)
    assert np.array_equal(mix64_inplace(xs.copy(), scratch=np.empty_like(xs)), expected)


def test_mix64_bijective_on_sample():
    # the finalizer is a permutation of 64-bit states, so no collisions
    rng = random.Random(7)
    xs = {rng.getrandbits(64) for _ in range(10_000)}
    assert len({mix64(x) for x in xs}) == len(xs)


def test_prf_uniform_range_and_determinism():
    rng = random.Random(11)
    for _ in range(200):
        seed, fp = rng.getrandbits(64), rng.getrandbits(64)
        u = prf_uniform(seed, fp)
        assert 0.0 <= u < 1.0
        assert prf_uniform(seed, fp) == u


def test_prf_uniform_scalar_vector_agree():
    rng = random.Random(13)
    seeds = np.array([rng.getrandbits(64) for _ in range(400)], dtype=np.uint64)
    fps = np.array([rng.getrandbits(64) for _ in range(400)], dtype=np.uint64)
    expected = np.array([prf_uniform(int(s), int(f)) for s, f in zip(seeds, fps)])
    assert np.array_equal(prf_uniform_array(seeds, fps), expected)


def test_prf_uniform_roughly_uniform():
    fps = np.arange(200_000, dtype=np.uint64)
    us = prf_uniform_array(np.uint64(99), fps)
    assert abs(us.mean() - 0.5) < 0.005
    assert abs((us < 0.25).mean() - 0.25) < 0.005


def test_seed_streams_scalar_vector_agree():
    expected = np.array([sample_seed(42, i) for i in range(1000)], dtype=np.uint64)
    assert np.array_equal(sample_seeds_array(42, 0, 1000), expected)
    assert np.array_equal(sample_seeds_array(42, 250, 700), expected[250:700])


def test_seed_streams_distinct():
    seeds = sample_seeds_array(0, 0, 100_000)
    assert len(np.unique(seeds)) == len(seeds)


def test_fingerprint_letters_order_sensitive():
    assert fingerprint_letters((1, 2)) != fingerprint_letters((2, 1))
    assert fingerprint_letters((1, -1)) != fingerprint_letters((-1, 1))
    assert fingerprint_letters(()) == fingerprint_letters(())


class TestSplitPRF:
    # mix64's first step x ^= x >> 30 commutes with the xor of the PRF's two
    # inputs, so each input is keyed alone and the pair mixed from the keys
    def test_mixed_word_carries_prf_bits(self):
        rng = random.Random(17)
        seeds = np.array([rng.getrandbits(64) for _ in range(300)], dtype=np.uint64)
        fps = np.array([rng.getrandbits(64) for _ in range(40)], dtype=np.uint64)
        mixed = prf_mixed(key_seeds(seeds), key_fingerprints(fps)[:, None])
        assert np.array_equal(mixed >> np.uint64(11), prf_bits(seeds, fps[:, None]))
        expected = [[mix64((int(s) * 0x9E3779B97F4A7C15 & MASK64) ^ int(f)) for s in seeds]
                    for f in fps]
        assert mixed.tolist() == expected

    # the least and the greatest threshold, T = 1 and T = 2**53 - 1, and two between
    @pytest.mark.parametrize("p", [1e-300, 0.3, 0.5, 1.0 - 2.0**-53])
    def test_shifted_threshold_is_the_uniform_compare(self, p):
        t = math.ceil(p * 2.0**53)
        assert t == {1e-300: 1, 1.0 - 2.0**-53: 2**53 - 1}.get(p, t)
        shifted = np.uint64(t << 11)
        rng = random.Random(t)
        seeds = np.array([rng.getrandbits(64) for _ in range(500)], dtype=np.uint64)
        fps = np.array([rng.getrandbits(64) for _ in range(8)], dtype=np.uint64)[:, None]
        split = prf_mixed(key_seeds(seeds), key_fingerprints(fps)) < shifted
        assert np.array_equal(split, prf_bits(seeds, fps) < np.uint64(t))
        assert np.array_equal(split, prf_uniform_array(seeds, fps) < p)
        # words on both sides of the boundary, and the extremes
        words = np.array([0, (t << 11) - 1, t << 11, (t << 11) + 1, MASK64], dtype=np.uint64)
        assert ((words >> np.uint64(11)) < np.uint64(t)).tolist() == (words < shifted).tolist()
        assert (words < shifted).tolist() == [True, True, False, False, False]


class TestNormals:
    def test_any_slice_equals_the_longer_call(self):
        n = 3 * BLOCK_SIZE + 5
        full = normals(11, 0, n)
        assert full.dtype == np.float64 and full.shape == (n,)
        bounds = [(0, 0), (0, 1), (1, 2), (3, 10), (BLOCK_SIZE - 1, BLOCK_SIZE + 1),
                  (BLOCK_SIZE, 2 * BLOCK_SIZE), (17, BLOCK_SIZE + 30), (2 * BLOCK_SIZE + 1, n),
                  (n - 1, n)]
        for lo, hi in bounds:
            assert normals(11, lo, hi).tobytes() == full[lo:hi].tobytes()
            out = np.full(hi - lo, np.nan)
            assert normals(11, lo, hi, out=out) is out
            assert out.tobytes() == full[lo:hi].tobytes()
        stream = NormalStream(11)
        parts = [stream.take(7), stream.take(2, 5).ravel(), stream.take(BLOCK_SIZE)]
        assert np.concatenate(parts).tobytes() == full[: 17 + BLOCK_SIZE].tobytes()
        assert stream.pos == 17 + BLOCK_SIZE

    def test_box_muller_on_the_keyed_uniforms(self):
        # normal i from its definition, in scalar Python floats; numpy's
        # log1p and cos may differ from libm's in the last place
        z = normals(5, 1000, 1200)
        for i, got in enumerate(z.tolist(), start=1000):
            u, v = (prf_uniform(sample_seed(5, i), key) for key in NORMAL_KEYS)
            want = math.sqrt(-2.0 * math.log1p(-u)) * math.cos(2.0 * math.pi * v)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert not np.array_equal(normals(5, 0, 100), normals(6, 0, 100))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_moments_of_a_million_normals(self, seed):
        n = 1 << 20
        z = normals(seed, 0, n)
        assert np.all(np.isfinite(z)) and np.max(np.abs(z)) < 8.6
        # each sample mean of z^k against E z^k, in standard errors: the
        # variance of z^k is E z^2k - (E z^k)^2, with E z^2k = (2k - 1)!!
        powers = z.copy()
        for k, (mean, var) in enumerate([(0, 1), (1, 2), (0, 15), (3, 96)], start=1):
            if k > 1:
                powers *= z
            assert abs(powers.mean() - mean) <= 6.0 * math.sqrt(var / n), k
        # neighbours are uncorrelated, and the tail P(|z| > 3) is the normal one
        assert abs(np.mean(z[1:] * z[:-1])) <= 6.0 / math.sqrt(n)
        tail = math.erfc(3.0 / math.sqrt(2.0))
        assert abs(np.mean(np.abs(z) > 3.0) - tail) <= 6.0 * math.sqrt(tail * (1 - tail) / n)
