"""Deterministic keyed pseudo-random values: the program's one random source.

A 64-bit SplitMix-style finalizer acts as a stateless PRF: the value at a
tree edge is a pure function of the seed and the edge's fingerprint, which
:func:`treeskew.words.edge_fingerprint` computes from the edge's far
endpoint.  So an orientation never has to materialize more edges than are
actually queried.  The scalar and the numpy paths share the same
arithmetic and are bit-identical.  The array forms that samplers call per
block (:func:`sample_seeds_array`, :func:`key_seeds`, :func:`normals` and
:func:`prf_mixed`, which also takes a ``scratch=`` buffer) take ``out=``,
so a sampler can reuse its block buffers instead of allocating them per
block.

The finalizer's first step, ``x ^= x >> 30``, commutes with the xor of the
PRF's two inputs, so :func:`key_seeds` and :func:`key_fingerprints` apply
it to each input alone and :func:`prf_mixed` finishes the word from their
xor.  A sampler that crosses a block of seeds with many fingerprints keys
each once, then mixes every pair in seven passes: the xor and the six of
:func:`mix64_tail`.

Normals are counter-addressed the same way: normal ``i`` of the stream
rooted at ``seed`` is Box-Muller on the two uniforms of ``sample_seed(seed,
i)`` under the fixed keys :data:`NORMAL_KEYS` (:func:`normals`), so a block
of the stream is a pure function of ``(seed, lo, hi)``.  Its bits follow
numpy's float64 ``log1p`` and ``cos``, which may differ in the last place
between CPUs that numpy dispatches to different SIMD code.
"""

from __future__ import annotations

import math

from ._np import np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FP_SALT = 0x517CC1B727220A95
# The fingerprints of a normal's radius and angle uniforms (hex digits of pi).
NORMAL_KEYS = (0x243F6A8885A308D3, 0x13198A2E03707344)
# Normals computed per pass: each temporary, at most 64 KiB, stays in cache and on the heap.
_NORMAL_PASS = 1 << 12


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & MASK64
    x ^= x >> 31
    return x


def mix64_head(x: np.ndarray, scratch=None) -> np.ndarray:
    """The first step of :func:`mix64`, ``x ^= x >> 30``, in place on a uint64 array."""
    x ^= np.right_shift(x, np.uint64(30), out=np.empty_like(x) if scratch is None else scratch)
    return x


def mix64_tail(x: np.ndarray, scratch=None) -> np.ndarray:
    """The rest of :func:`mix64` after :func:`mix64_head`, in place on a uint64 array."""
    t = np.empty_like(x) if scratch is None else scratch
    x *= np.uint64(_MIX_A)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(_MIX_B)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def mix64_inplace(x: np.ndarray, scratch=None) -> np.ndarray:
    """Vectorized :func:`mix64`, in place on a uint64 array, shifting into ``scratch`` if given."""
    t = np.empty_like(x) if scratch is None else scratch
    return mix64_tail(mix64_head(x, t), t)


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


def key_seeds(seeds: np.ndarray, out=None) -> np.ndarray:
    """The seeds' half of the PRF's first step: ``K ^ K >> 30`` with ``K = seed * GOLDEN``."""
    return mix64_head(np.multiply(np.asarray(seeds, np.uint64), np.uint64(GOLDEN), out=out))


def key_fingerprints(fingerprints: np.ndarray) -> np.ndarray:
    """The fingerprints' half of the PRF's first step: ``f ^ f >> 30``, as a new array."""
    return mix64_head(np.array(fingerprints, dtype=np.uint64))


def prf_mixed(seed_keys: np.ndarray, fingerprint_keys: np.ndarray, out=None, scratch=None):
    """The PRF's 64-bit word from :func:`key_seeds` and :func:`key_fingerprints` values.

    Its top 53 bits are :func:`prf_bits`, so ``prf_uniform < p`` holds
    exactly when the word is below ``ceil(p * 2**53) << 11``.  Inputs
    broadcast; ``out`` and ``scratch``, if given, have the broadcast shape.
    """
    return mix64_tail(np.bitwise_xor(seed_keys, fingerprint_keys, out=out), scratch)


def prf_bits(seeds: np.ndarray, fingerprints: np.ndarray) -> np.ndarray:
    """The 53-bit integers ``k`` with ``prf_uniform == k * 2**-53``, as uint64.

    Inputs broadcast as uint64 arrays.  ``prf_uniform < p`` holds exactly
    when ``k < ceil(p * 2**53)``, so callers can compare integers.
    """
    x = prf_mixed(key_seeds(seeds), key_fingerprints(fingerprints))
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


def normals(seed: int, lo: int, hi: int, out=None) -> np.ndarray:
    """Normals ``lo..hi-1`` of the stream rooted at ``seed``, as float64.

    Normal ``i`` is ``sqrt(-2 log(1 - u)) cos(2 pi v)``, where ``u`` and
    ``v`` are :func:`prf_uniform_array` of ``sample_seed(seed, i)`` under
    the two :data:`NORMAL_KEYS` (Box and Muller, 1958).  ``u < 1``, so every
    normal is finite, and ``|z| <= sqrt(106 log 2) < 8.6``.  A normal
    depends on its position alone, so any slice of a call equals the same
    positions of any other call.  ``out``, if given, is a float64 array of
    ``hi - lo`` values.  Long ranges run in passes of :data:`_NORMAL_PASS`,
    whose temporaries stay in cache.
    """
    out = np.empty(hi - lo) if out is None else out
    keys = np.array(NORMAL_KEYS, dtype=np.uint64)[:, None]
    for a in range(lo, hi, _NORMAL_PASS):
        b = min(a + _NORMAL_PASS, hi)
        u, v = prf_uniform_array(sample_seeds_array(seed, a, b), keys)
        np.log1p(np.negative(u, out=u), out=u)
        u *= -2.0
        np.sqrt(u, out=u)
        v *= 2.0 * math.pi
        np.cos(v, out=v)
        np.multiply(u, v, out=out[a - lo : b - lo])
    return out


class NormalStream:
    """Consecutive reads of the :func:`normals` stream rooted at ``seed``, from its start."""

    def __init__(self, seed: int):
        self.seed, self.pos = seed, 0

    def take(self, *shape: int) -> np.ndarray:
        """The next ``prod(shape)`` normals of the stream, in that shape."""
        lo, self.pos = self.pos, self.pos + math.prod(shape)
        return normals(self.seed, lo, self.pos).reshape(shape)
