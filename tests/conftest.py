"""Shared fixtures: a breadth-first tree oracle independent of the library.

The oracle works on raw letter tuples with its own one-step reduction, so
distances and paths come from graph search rather than from the
word-combinatorics code under test.  ``gromov_products`` is the reference
for Gram matrices: it goes through ``words.distance``, which the oracle
checks, and never through the ancestor-edge incidence.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest

from treeskew.words import distance


def reduce_step(letters: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Append one letter with free cancellation."""
    if letters and letters[-1] == -s:
        return letters[:-1]
    return letters + (s,)


def random_letters(rng: random.Random, length: int, rank: int) -> tuple[int, ...]:
    """A uniformly random reduced word of exactly ``length`` letters."""
    out: tuple[int, ...] = ()
    while len(out) < length:
        s = rng.choice([i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)])
        if out and out[-1] == -s:
            continue
        out = out + (s,)
    return out


def gromov_products(words) -> np.ndarray:
    """Gromov products ``(|x| + |y| - d(x, y)) / 2`` at the base vertex."""
    m = len(words)
    out = np.empty((m, m))
    for i, x in enumerate(words):
        for j in range(i, m):
            y = words[j]
            out[i, j] = out[j, i] = (len(x) + len(y) - distance(x, y)) / 2
    return out


class TreeOracle:
    """Ball of the Cayley tree with BFS distances and paths."""

    def __init__(self, radius: int, rank: int = 2):
        self.radius = radius
        self.rank = rank
        self.generators = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
        self.vertices: list[tuple[int, ...]] = [()]
        self.adjacency: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for v in frontier:
                for s in self.generators:
                    w = reduce_step(v, s)
                    if w not in self.adjacency:
                        self.adjacency[w] = []
                        self.vertices.append(w)
                        nxt.append(w)
            frontier = nxt
        for v in self.adjacency:
            for s in self.generators:
                w = reduce_step(v, s)
                if w in self.adjacency:
                    self.adjacency[v].append(w)

    def distance(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        return len(self.path(x, y)) - 1

    def path(self, x: tuple[int, ...], y: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Shortest vertex path from x to y by breadth-first search."""
        if x not in self.adjacency or y not in self.adjacency:
            raise ValueError("vertex outside the oracle ball")
        parent: dict[tuple[int, ...], tuple[int, ...]] = {x: x}
        queue = deque([x])
        while queue:
            v = queue.popleft()
            if v == y:
                break
            for w in self.adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        out = [y]
        while out[-1] != x:
            out.append(parent[out[-1]])
        out.reverse()
        return out


@pytest.fixture(scope="session")
def tree_oracle() -> TreeOracle:
    return TreeOracle(radius=6, rank=2)


@pytest.fixture(scope="session")
def rank3_oracle() -> TreeOracle:
    return TreeOracle(radius=3, rank=3)
