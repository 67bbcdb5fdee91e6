"""Random edge orientations, the integer cocycle they carry, and the skew
product that cocycle drives on (orientations) x R.

An orientation assigns +-1 to every edge of the Cayley tree: ``+1`` means
the edge agrees with its reference direction (away from the base vertex),
``-1`` that it points toward the base vertex.  An edge is named by its
endpoint farther from the base vertex, a nonempty word.  Edges are
independent and point toward the base vertex with probability ``p``; for
``p != 1/2`` the path sums drift and the translation flow on the second
coordinate is a transient random walk.

Orientations are lazy.  A 64-bit seed addresses a full sample of the
product measure: the value on an edge is a keyed PRF of (seed, edge
fingerprint), so only queried edges are ever materialized.  Pushforwards
``g . omega`` keep a reference to the base orientation and pull values
back through the edge action, memoizing what they have answered.

The cocycle of a group element is the sum of signed orientation values
along the geodesic from the base vertex to its translate.  The edges of
that outward geodesic are the nonempty prefixes of the word and every
travel flag is ``+1``, which is why the cocycle of a length-L word has the
exact binomial law provided by :func:`path_sum_law`.

:class:`OrientationMeasure` is also the orientation system that
:mod:`treeskew.koopman` measures: it owns the shift law's exact kernel
mean, capped-shift mean, a priori bound and Monte Carlo draws.  Those draws
come from :func:`cocycle_sampler`, which serves all the words of a sweep
from one block of draws at a time: the words share the block's seeds and
the PRF values of their common prefix edges, and each word's values are
bit-identical to those it would draw alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Optional

from ._np import np
from .parallel import BLOCK_SIZE, block_bounds
from .profiles import ProfileVector
from .rng import (
    fingerprint_letters,
    key_fingerprints,
    key_seeds,
    prf_mixed,
    prf_uniform,
    sample_seeds_array,
)
from .words import Word, _edge_key, act_on_edge, edge_fingerprint, geodesic

__all__ = [
    "OrientationMeasure",
    "Orientation",
    "SkewPoint",
    "PathSumLaw",
    "path_cocycle",
    "group_cocycle",
    "pushforward",
    "skew_step",
    "path_sum_law",
    "cocycle_sampler",
    "cocycle_samples",
]


@dataclass(frozen=True)
class OrientationMeasure:
    """Bernoulli product law on orientations.

    Each edge independently points toward the base vertex with probability
    ``p``, for any ``p`` in the open interval (0, 1).  Only ``p = 1/2``
    makes the law invariant under the group.  A translate ``g`` reverses
    the reference direction of the edges on the path from the base vertex
    to ``g``, so under ``g_* mu`` those edges point toward the base vertex
    with probability ``1 - p``.  At ``p != 1/2`` the action is therefore
    only nonsingular, not measure-preserving.

    As a system it owns its shift law: the shift of a length-L word is the
    binomial path sum of :func:`path_sum_law`, and Monte Carlo draws read
    the word's own edges through :func:`cocycle_sampler`.  It measures
    every profile pair that has a correlation rule
    (:meth:`ProfileVector.pair_kind`), cauchy included.
    """

    p: float
    rank: int = 2
    # Monte Carlo draws read a word's own edges, so each word is estimated apart.
    draws_read_edges: ClassVar[bool] = True

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    def label(self) -> str:
        return f"orientation(p={self.p!r})"

    def kernel_mean(self, xi: ProfileVector, eta: ProfileVector, length: int) -> tuple[float, str]:
        """``E[K(S)]`` of the pair's correlation kernel over the path-sum law, and ``exact``."""
        law = path_sum_law(length, self.p)
        return law.expectation(lambda s: xi.correlation(eta, float(s))), "exact"

    def capped_shift_mean(self, length: int, width: float) -> float:
        """``E[min(|S|, width)]`` over the path-sum law of a length-``length`` word."""
        return path_sum_law(length, self.p).expectation(lambda s: min(abs(s), width))

    def shift_bound(self, radius: int) -> float:
        """A bound on ``E|S|`` over the ball of ``radius``: ``|S| <= |g| <= radius``."""
        return float(radius)

    def sampler(self, words: Iterable[Word], seed: int, kernel: Callable) -> Callable:
        """``kernel`` of the draws of each word's shift: :func:`cocycle_sampler` on their edges."""
        return cocycle_sampler(words, self.p, seed, kernel)


class Orientation:
    """One sampled orientation, addressed lazily by its seed.

    ``overrides`` pins chosen edges regardless of the seed.  Instances are
    value objects: nothing observable ever changes after construction (the
    internal memo only caches answers).
    """

    __slots__ = ("seed", "measure", "overrides", "_base", "_inv", "_memo")

    def __init__(
        self,
        seed: int,
        measure: OrientationMeasure,
        overrides: Optional[Mapping[Word, int]] = None,
    ):
        self.seed = int(seed)
        self.measure = measure
        self.overrides = dict(overrides) if overrides else {}
        for edge, v in self.overrides.items():
            if not edge:
                raise ValueError("the base vertex names no edge")
            if v not in (-1, 1):
                raise ValueError(f"override for {edge} must be +-1, got {v!r}")
        self._base: Optional[Orientation] = None
        self._inv: Optional[Word] = None
        self._memo: dict[Word, int] = {}

    @classmethod
    def _pushed(cls, base: "Orientation", g: Word) -> "Orientation":
        obj = cls.__new__(cls)
        obj.seed = base.seed
        obj.measure = base.measure
        obj.overrides = {}
        obj._base = base
        obj._inv = ~g
        obj._memo = {}
        return obj

    def value(self, edge: Word) -> int:
        """The +-1 value of this orientation on the edge named by its far endpoint."""
        if edge.rank != self.measure.rank:
            raise ValueError(
                f"rank mismatch: edge has rank {edge.rank}, "
                f"orientation has rank {self.measure.rank}"
            )
        v = self.overrides.get(edge)
        if v is not None:
            return v
        v = self._memo.get(edge)
        if v is None:
            if self._base is not None:
                preimage, flip = act_on_edge(self._inv, edge)
                v = flip * self._base.value(preimage)
            else:
                u = prf_uniform(self.seed, edge_fingerprint(edge))
                v = -1 if u < self.measure.p else 1
            self._memo[edge] = v
        return v


def pushforward(g: Word, omega: Orientation) -> Orientation:
    """The orientation ``g . omega``.

    Its value on an edge is ``flip * omega(preimage)`` where
    ``(preimage, flip) = act_on_edge(g^-1, edge)``: the preimage supplies
    the sampled direction and the flip accounts for the edge's reference
    direction reversing under ``g``.
    """
    if g.rank != omega.measure.rank:
        raise ValueError(f"rank mismatch: {g.rank} vs {omega.measure.rank}")
    if not g.letters:
        return omega
    return Orientation._pushed(omega, g)


def path_cocycle(omega: Orientation, x: Word, y: Word) -> int:
    """Sum of travel-signed orientation values along the geodesic x -> y.

    A term is ``+1`` when the path traverses the edge in the direction the
    orientation points, ``-1`` otherwise; antisymmetric in (x, y) and
    additive along concatenations, both exactly.
    """
    return sum(travel * omega.value(edge) for edge, travel in geodesic(x, y))


def group_cocycle(omega: Orientation, g: Word) -> int:
    """``path_cocycle`` from the base vertex to ``g``."""
    return path_cocycle(omega, Word.identity(omega.measure.rank), g)


@dataclass(frozen=True)
class SkewPoint:
    """A point of the skew product: an orientation and a real coordinate."""

    orientation: Orientation
    t: float


def skew_step(g: Word, point: SkewPoint) -> SkewPoint:
    """One step of the skew action.

    The orientation moves by pushforward and the real coordinate shifts by
    the cocycle of ``g^-1`` evaluated at the *incoming* orientation; this is
    the choice that makes the action law ``beta_gh = beta_g o beta_h`` hold
    exactly, via the cocycle chain rule.
    """
    shift = group_cocycle(point.orientation, ~g)
    return SkewPoint(pushforward(g, point.orientation), point.t + shift)


@dataclass(frozen=True)
class PathSumLaw:
    """Exact law of the cocycle of a length-L word.

    Support is ``{L - 2j : 0 <= j <= L}`` and the value ``L - 2j`` has
    probability ``C(L, j) p^j (1-p)^(L-j)``, with ``j`` counting the edges
    of the outward geodesic that point toward the base vertex.  The mean is
    ``L (1 - 2p)``.
    """

    length: int
    p: float
    pmf: dict

    def expectation(self, fn: Callable[[int], float]) -> float:
        return math.fsum(self.pmf[s] * fn(s) for s in sorted(self.pmf))


def path_sum_law(length: int, p: float) -> PathSumLaw:
    """Binomial path-sum law for an outward geodesic of the given length."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    pmf = {
        length - 2 * j: math.comb(length, j) * p**j * (1.0 - p) ** (length - j)
        for j in range(length + 1)
    }
    total = math.fsum(pmf.values())
    if abs(total - 1.0) > 1e-12:
        raise ArithmeticError(f"path-sum pmf sums to {total!r}")
    return PathSumLaw(length, p, pmf)


# Edge rows mixed in one pass: the two (rows, BLOCK_SIZE) uint64 buffers,
# 1 MiB in all, stay in a core's L2 cache.
_MIX_ROWS = 16
# Distinct prefix edges held by one group of words, which bounds the edge
# counts, (rows, BLOCK_SIZE) small integers, at 512 KiB however many words.
_GROUP_ROWS = 128


def _prefix_groups(words: Iterable[Word]) -> Iterator[list[Word]]:
    """Runs of consecutive words with at most ``_GROUP_ROWS`` distinct prefix edges.

    A word with more edges than that makes a group of its own.
    """
    group, edges = [], set()
    for g in words:
        prefixes = {g.letters[:j] for j in range(1, len(g) + 1)}
        if group and len(edges | prefixes) > _GROUP_ROWS:
            yield group
            group, edges = [], set()
        group.append(g)
        edges |= prefixes
    yield group


def _edge_rows(group: list[Word]):
    """The distinct prefix edges of ``group``, one row each, ordered by depth.

    Returns the edges' keyed fingerprints (:func:`treeskew.rng.key_fingerprints`)
    as a column, each edge's parent row, the ``(start, stop)`` rows of each
    depth below the first, and each word's ``(row, length)``.
    """
    keys = sorted({g.letters[:j] for g in group for j in range(1, len(g) + 1)}, key=len)
    row = {key: r for r, key in enumerate(keys)}
    # parents come first, so each vertex fingerprint extends its parent's by
    # one letter: two mix64 calls per distinct edge
    vertex = {(): fingerprint_letters(())}
    for key in keys:
        vertex[key] = fingerprint_letters(key[-1:], vertex[key[:-1]])
    fps = key_fingerprints([_edge_key(vertex[key[:-1]], key[-1]) for key in keys])
    parents = np.array([row.get(key[:-1], -1) for key in keys])
    starts = [r for r in range(1, len(keys)) if len(keys[r]) > len(keys[r - 1])] + [len(keys)]
    members = [(row.get(g.letters, -1), len(g)) for g in group]
    return fps[:, None], parents, list(zip(starts, starts[1:])), members


def cocycle_sampler(words: Iterable[Word], p: float, seed: int, kernel: Callable) -> Callable:
    """The function ``(lo, hi) -> kernel of draws lo..hi-1 of each word's cocycle``.

    Draw ``i`` reads the orientation with seed ``sample_seed(seed, i)`` on the
    outward geodesic of the word, where every travel flag is +1, so the
    cocycle of a length-L word is ``L - 2c``, with ``c`` its edges pointing
    toward the base vertex.  A block of at most ``BLOCK_SIZE`` draws keys
    its seeds once, each distinct prefix edge of a group of words is keyed
    once for all blocks, and the PRF word of each (edge, draw) pair is mixed
    from the two keys, ``_MIX_ROWS`` edge rows at a time into buffers that
    every block reuses, and compared with ``ceil(p 2^53) << 11``, which is
    ``prf_uniform < p``.  ``c`` is summed over the prefix tree one depth at
    a time, and ``kernel`` is evaluated once on the ``L + 1`` shifts
    ``L - 2c`` and gathered, so each word's values are bit-identical to
    ``kernel`` of its own draws.  The values come out word by word, each a
    fresh array.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    groups = [_edge_rows(group) for group in _prefix_groups(words)]
    tables = {L: kernel(np.arange(L, -L - 1, -2)) for L in {L for *_, ms in groups for _, L in ms}}
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    seeds = np.empty(BLOCK_SIZE, dtype=np.uint64)
    bits, scratch = np.empty((2, _MIX_ROWS, BLOCK_SIZE), dtype=np.uint64)
    rows = max(len(fps) for fps, *_ in groups)
    counts = np.empty((rows, BLOCK_SIZE), dtype=np.min_scalar_type(max(tables, default=0)))

    def draws(lo: int, hi: int) -> Iterator[np.ndarray]:
        m = hi - lo
        keys = key_seeds(sample_seeds_array(seed, lo, hi, out=seeds[:m]), out=seeds[:m])
        for fps, parents, levels, members in groups:
            count = counts[: len(fps), :m]
            for r in range(0, len(fps), _MIX_ROWS):
                k = min(_MIX_ROWS, len(fps) - r)
                x = prf_mixed(keys, fps[r : r + k], bits[:k, :m], scratch[:k, :m])
                np.less(x, threshold, out=count[r : r + k])
            for start, stop in levels:
                count[start:stop] += count[parents[start:stop]]
            for r, length in members:
                yield tables[length][count[r]] if length else tables[0].repeat(m)

    return draws


def cocycle_samples(g: Word, p: float, seed: int, n: int) -> np.ndarray:
    """``n`` i.i.d. draws of the cocycle value of ``g``, as an int64 array.

    These are the draws of :func:`cocycle_sampler` over fixed blocks: the
    output is bit-identical to a scalar :func:`group_cocycle` loop over the
    seeds ``sample_seed(seed, i)``.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    draws = cocycle_sampler([g], p, seed, lambda shifts: shifts)
    return np.concatenate([np.zeros(0, np.int64), *(next(draws(*b)) for b in block_bounds(n))])
