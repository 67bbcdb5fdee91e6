import random

import numpy as np

from treeskew.rng import (
    MASK64,
    fingerprint_letters,
    mix64,
    mix64_inplace,
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
