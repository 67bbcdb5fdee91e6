"""Deterministic keyed pseudo-random values for lazy edge sampling.

A 64-bit SplitMix-style finalizer acts as a stateless PRF: the value at a
tree edge is a pure function of the seed and the edge's fingerprint, which
:func:`treeskew.words.edge_fingerprint` computes from the edge's far
endpoint.  So an orientation never has to materialize more edges than are
actually queried.  The scalar and the numpy paths share the same
arithmetic and are bit-identical.  The array forms take ``out=`` (and
:func:`prf_bits` a ``scratch=`` buffer of the same shape), so a sampler can
reuse its block buffers instead of allocating them per block.
"""

from __future__ import annotations

from ._np import np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FP_SALT = 0x517CC1B727220A95


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & MASK64
    x ^= x >> 31
    return x


def mix64_inplace(x: np.ndarray, scratch=None) -> np.ndarray:
    """Vectorized :func:`mix64`, in place on a uint64 array, shifting into ``scratch`` if given."""
    t = np.empty_like(x) if scratch is None else scratch
    for shift, factor in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        if factor is not None:
            x *= np.uint64(factor)
    return x


def fingerprint_letters(letters, h: int = _FP_SALT) -> int:
    """64-bit fingerprint of a letter sequence (order-sensitive).

    The fingerprint is a chain, one :func:`mix64` per letter, so passing a
    sequence's fingerprint as ``h`` extends it by ``letters``.
    """
    for s in letters:
        h = mix64(h ^ (s & MASK64))
    return h


def prf_uniform(seed: int, fingerprint: int) -> float:
    """Uniform [0, 1) value keyed by (seed, fingerprint)."""
    x = mix64(((seed & MASK64) * GOLDEN & MASK64) ^ fingerprint)
    return (x >> 11) * 2.0**-53


def prf_bits(seeds: np.ndarray, fingerprints: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """The 53-bit integers ``k`` with ``prf_uniform == k * 2**-53``, as uint64.

    Inputs broadcast as uint64 arrays.  ``prf_uniform < p`` holds exactly
    when ``k < ceil(p * 2**53)``, so callers can compare integers.  ``out``
    and ``scratch``, if given, are uint64 arrays of the broadcast shape.
    """
    keyed = np.asarray(seeds, dtype=np.uint64) * np.uint64(GOLDEN)
    x = mix64_inplace(np.bitwise_xor(keyed, np.asarray(fingerprints, np.uint64), out=out), scratch)
    x >>= np.uint64(11)
    return x


def prf_uniform_array(seeds: np.ndarray, fingerprints: np.ndarray) -> np.ndarray:
    """Vectorized :func:`prf_uniform`; inputs broadcast as uint64 arrays."""
    return prf_bits(seeds, fingerprints) * 2.0**-53


def sample_seed(base: int, index: int) -> int:
    """Seed of the ``index``-th draw in the stream rooted at ``base``."""
    return mix64((base + (index + 1) * GOLDEN) & MASK64)


def sample_seeds_array(base: int, lo: int, hi: int, out=None) -> np.ndarray:
    """Seeds of draws ``lo..hi-1``; matches :func:`sample_seed` bitwise."""
    x = np.multiply(np.arange(lo + 1, hi + 1, dtype=np.uint64), np.uint64(GOLDEN), out=out)
    x += np.uint64(base & MASK64)
    return mix64_inplace(x)
