"""Reduced words in a free group and the geometry of its Cayley tree.

Vertices of the Cayley tree of the free group on ``k`` generators are the
freely reduced words; the base vertex is the empty word.  Every edge joins
a nonempty word to its prefix one letter shorter, so an edge is named by
its endpoint farther from the base vertex: a nonempty :class:`Word`.  The
edges on the geodesic from the base vertex to ``g`` are the nonempty
prefixes of ``g``.  The reference direction of an edge always points away
from the base vertex.

Everything in this module is exact integer and tuple arithmetic; there is
no floating point anywhere in the geometry.
"""

from __future__ import annotations

import random
import string
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .rng import GOLDEN, MASK64, fingerprint_letters, mix64

__all__ = [
    "Word",
    "parse_word",
    "common_prefix_length",
    "distance",
    "geodesic",
    "act_on_edge",
    "edge_fingerprint",
    "letter_order",
    "ball",
    "ball_size",
    "Shell",
    "shell",
    "shell_size",
    "shell_labels",
    "word_at",
    "ball_edges",
    "sample_word",
]


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


# Letter s of a rank <= 26 word sits at index s; its inverse -s indexes from the end.
_LETTERS = "?" + string.ascii_lowercase + string.ascii_uppercase[::-1]


@dataclass(frozen=True)
class Word:
    """A freely reduced word, i.e. a vertex of the Cayley tree.

    Letters are signed generator indices: ``2`` means the second generator,
    ``-2`` its inverse.  Instances are immutable and hashable; ``*`` is the
    group operation and ``~`` the group inverse.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        prev = 0
        for s in self.letters:
            if not isinstance(s, int) or s == 0 or abs(s) > self.rank:
                raise ValueError(f"invalid letter {s!r} for rank {self.rank}")
            if s == -prev:
                raise ValueError(f"word {self.letters!r} is not freely reduced")
            prev = s

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls((), rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        _check_ranks(self, other)
        return _reduced(_reduce(self.letters + other.letters), self.rank)

    def __invert__(self) -> "Word":
        return _reduced(tuple(-s for s in reversed(self.letters)), self.rank)

    def prefix(self, length: int) -> "Word":
        return _reduced(self.letters[:length], self.rank)

    @cached_property
    def _parent_fingerprint(self) -> int:
        # the parent vertex's fingerprint; the base vertex has its own here
        return fingerprint_letters(self.letters[:-1])

    @cached_property
    def fingerprint(self) -> int:
        # fingerprint_letters is a chain: one more letter extends the parent's
        return fingerprint_letters(self.letters[-1:], self._parent_fingerprint)

    def __hash__(self) -> int:
        # CPython hashes -1 and -2 alike, so a hash of the letter tuple
        # cannot tell A from B and whole families of words would collide
        return self.fingerprint

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        if self.rank <= 26:
            return "".join(map(_LETTERS.__getitem__, self.letters))
        return " ".join(f"a{s}" if s > 0 else f"a{-s}^-1" for s in self.letters)


def _check_ranks(x: Word, y: Word) -> None:
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} vs {y.rank}")


def parse_word(text: str, rank: int) -> Word:
    """Parse ``text`` into a reduced :class:`Word`.

    Two syntaxes are accepted and may be mixed: compact letters
    (``"abAB"``, where ``a..z`` are generators 1..k and ``A..Z`` their
    inverses) and indexed tokens (``"a1 a2^-1"``).  An exponent introduced
    by ``^`` applies to the preceding letter; whitespace is ignored.  The
    bare string ``"1"`` denotes the identity.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if text.strip() == "1":
        return Word.identity(rank)
    letters: list[int] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if not c.isalpha():
            raise ValueError(f"unknown letter {c!r} at position {i}")
        i += 1
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j > i:
            index = int(text[i:j])
            i = j
        else:
            index = ord(c.lower()) - ord("a") + 1
        if not 1 <= index <= rank:
            raise ValueError(f"generator {c!r} (index {index}) beyond rank {rank}")
        sign = 1 if c.islower() else -1
        exponent = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            body = text[i:j]
            digits = body[1:] if body[:1] in "+-" else body
            if not digits.isdigit():
                raise ValueError(f"malformed exponent token at position {i}")
            exponent = int(body)
            i = j
        letter = sign * index
        if exponent < 0:
            letter, exponent = -letter, -exponent
        letters.extend([letter] * exponent)
    return Word(_reduce(letters), rank)


def common_prefix_length(x: Word, y: Word) -> int:
    _check_ranks(x, y)
    m = min(len(x), len(y))
    i = 0
    while i < m and x.letters[i] == y.letters[i]:
        i += 1
    return i


def distance(x: Word, y: Word) -> int:
    """Word-metric distance ``|x^-1 y|``, the number of tree edges between x and y."""
    return len(x) + len(y) - 2 * common_prefix_length(x, y)


def geodesic(x: Word, y: Word) -> tuple[tuple[Word, int], ...]:
    """Geodesic from ``x`` to ``y``: down to the common prefix, then up.

    Each step pairs an edge with a travel flag: ``+1`` when the path follows
    the edge's reference direction (away from the base vertex), ``-1`` when
    it runs against it.
    """
    m = common_prefix_length(x, y)
    down = tuple((x.prefix(i), -1) for i in range(len(x), m, -1))
    return down + tuple((y.prefix(i), +1) for i in range(m + 1, len(y) + 1))


def _check_edge(edge: Word) -> None:
    if not edge.letters:
        raise ValueError("the base vertex names no edge")


def edge_fingerprint(edge: Word) -> int:
    """64-bit fingerprint of an edge, the key its sampled values are drawn by."""
    _check_edge(edge)
    return _edge_key(edge._parent_fingerprint, edge.letters[-1])


def _edge_key(parent_fingerprint: int, letter: int) -> int:
    """The fingerprint of the edge one ``letter`` below the vertex with ``parent_fingerprint``."""
    return mix64(parent_fingerprint ^ ((letter & MASK64) * GOLDEN & MASK64))


def act_on_edge(g: Word, edge: Word) -> tuple[Word, int]:
    """Image of an edge under left translation by ``g``.

    Returns ``(image, flip)``.  ``flip`` is ``-1`` exactly when the image of
    the reference direction runs against the image edge's own reference,
    i.e. when ``g * parent`` is farther from the base vertex than ``g * edge``.
    """
    _check_edge(edge)
    _check_ranks(g, edge)
    u = g * edge.prefix(len(edge) - 1)
    v = g * edge
    return (v, +1) if len(v) > len(u) else (u, -1)


def letter_order(rank: int) -> list[int]:
    """Deterministic letter ordering used by all enumerations."""
    return list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))


def _check_size(name: str, size: int, rank: int) -> None:
    if size < 0:
        raise ValueError(f"{name} must be >= 0, got {size}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")


def ball(radius: int, rank: int) -> list[Word]:
    """All words of length <= radius, in breadth-first order."""
    _check_size("radius", radius, rank)
    return [w for length in range(radius + 1) for w in shell(length, rank)]


def ball_size(radius: int, rank: int) -> int:
    """`1 + 2k((2k-1)^r - 1)/(2k-2)` vertices for rank k > 1, 2r+1 for rank 1."""
    _check_size("radius", radius, rank)
    k = rank
    if k == 1:
        return 2 * radius + 1
    return 1 + 2 * k * ((2 * k - 1) ** radius - 1) // (2 * k - 2)


def _reduced(letters: tuple[int, ...], rank: int) -> Word:
    """A :class:`Word` from letters the caller has built freely reduced.

    Skips the checks of ``Word.__post_init__``.  Only code whose letters are
    valid and reduced by construction may call it: :func:`word_at`, which
    never appends the inverse of the last letter, and the group operations on
    words that have already passed the checks.
    """
    w = object.__new__(Word)
    w.__dict__.update(letters=letters, rank=rank)
    return w


def shell_labels(length: int, rank: int) -> list[str]:
    """``str(w)`` for every word of a shell, in :func:`word_at` order, built as strings.

    Each label extends its parent's label by the letters that do not cancel
    the parent's last letter, in :func:`letter_order`, so no :class:`Word`
    is built.  Above rank 26 a word prints as indexed tokens
    and its label comes from ``str(w)``.
    """
    _check_size("length", length, rank)
    if rank > 26:
        return [str(w) for w in shell(length, rank)]
    chars = [_LETTERS[s] for s in letter_order(rank)]
    follows = {c: [d for d in chars if d != c.swapcase()] for c in chars}
    current = chars
    for _ in range(length - 1):
        current = [label + c for label in current for c in follows[label[-1]]]
    return current if length else ["1"]


def shell_size(length: int, rank: int) -> int:
    _check_size("length", length, rank)
    if length == 0:
        return 1
    k = rank
    return 2 * k * (2 * k - 1) ** (length - 1)


def word_at(length: int, rank: int, index: int) -> Word:
    """The word at position ``index`` of the shell of the given length.

    This defines the order of every shell.  The index is read as digits,
    most significant first: the first letter is one digit in base ``2k``
    over :func:`letter_order`, and each later letter is one digit in base
    ``2k - 1`` over the letters that do not cancel the previous one.
    """
    if not 0 <= index < shell_size(length, rank):
        raise ValueError(f"index {index} is outside the shell of length {length}")
    order, letters = letter_order(rank), []
    for j in range(length - 1, -1, -1):
        digit, index = divmod(index, (2 * rank - 1) ** j)
        # a later digit counts over the letters left once the last one's inverse is skipped
        skip = order.index(-letters[-1]) if letters else 2 * rank
        letters.append(order[digit + (digit >= skip)])
    return _reduced(tuple(letters), rank)


@dataclass(frozen=True, eq=False)
class Shell(Sequence):
    """The words at ``indices`` of the shell of length ``length``, built on access.

    A shell is a set of indices in :func:`word_at` order: ``range(size)``
    for a whole shell, any sequence of distinct indices for a sampled one.
    Items are unranked by :func:`word_at`; the view equals any sequence of
    the same words in the same order.  Count a whole shell with
    :func:`shell_size`: ``len()`` overflows beyond ``sys.maxsize``.
    """

    length: int
    rank: int
    indices: Sequence[int]

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Shell(self.length, self.rank, self.indices[i])
        return word_at(self.length, self.rank, self.indices[i])

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def labels(self) -> list[str]:
        """``str(w)`` of every word, with no :class:`Word` built for a whole shell."""
        if self.indices == range(shell_size(self.length, self.rank)):
            return shell_labels(self.length, self.rank)
        return [str(w) for w in self]


def shell(length: int, rank: int) -> Shell:
    """All words of exactly the given length, in :func:`word_at` order."""
    return Shell(length, rank, range(shell_size(length, rank)))


def ball_edges(radius: int, rank: int) -> list[Word]:
    """Edges with both endpoints in the ball of the given radius, named by their far endpoints."""
    return ball(radius, rank)[1:]


def sample_word(length: int, rank: int, rng: random.Random) -> Word:
    """Uniform random reduced word of exactly the given length.

    Draws the digits of a :func:`word_at` index, most significant first.
    """
    _check_size("length", length, rank)
    index = 0
    for j in range(length):
        base = 2 * rank - 1 if j else 2 * rank
        index = index * base + rng.randrange(base)
    return word_at(length, rank, index)
