"""Seeded generators: stacked triangulations, random covers, random budgets.

Everything is a pure function of its arguments; the same seed always
produces the same object.

The draw contract: every generator draws from `random.Random(seed)`
through its `getrandbits` alone, by the standard library's own rules
(`_Draws`), so an instance is the one that `Random.randrange`, `.choice`
and `.sample` would build from the same seed, dict key order included.
A draw below m takes `getrandbits(m.bit_length())` until the value is
below m.  A sample of k from n items keeps a pool of the items left when
n is at most 21 (plus 4 ** ceil(log(3k, 4)) when k > 5), and redraws
positions already taken otherwise.  The tests compare every generator
with the same generator written on `sample`, `choice` and `randrange`,
run on the interpreter at hand.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Mapping, Sequence

from .covers import Budget, Cover
from .errors import InfeasibleParameters
from .graphs import SimpleGraph
from .planar import PlaneGraph


class _Draws:
    """The draws of `random.Random(seed)`, made straight from its
    `getrandbits` without the per-call checks and copies of `randrange`,
    `choice` and `sample`."""

    __slots__ = ("bits",)

    def __init__(self, seed: int):
        self.bits = random.Random(seed).getrandbits

    def below(self, m: int) -> int:
        """`randrange(m)` for m >= 1, and the index `choice` draws among m items."""
        k = m.bit_length()
        r = self.bits(k)
        while r >= m:
            r = self.bits(k)
        return r

    def sampler(self, n: int, k: int) -> Callable[[Sequence], list]:
        """`sample(population, k)` for every population of n items, 0 <= k <= n,
        with the widths of its draws worked out once."""
        bits = self.bits
        setsize = 21  # the stdlib's bound between its two ways of sampling
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:  # a pool of the items not yet drawn
            widths = [(m, m.bit_length()) for m in range(n, n - k, -1)]

            def sample(population: Sequence) -> list:
                pool = list(population)
                out = []
                for m, width in widths:
                    j = bits(width)
                    while j >= m:
                        j = bits(width)
                    out.append(pool[j])
                    pool[j] = pool[m - 1]
                return out
        else:  # the positions drawn so far; a repeat is drawn again
            width = n.bit_length()

            def sample(population: Sequence) -> list:
                selected: set[int] = set()
                out = []
                for _ in range(k):
                    j = bits(width)
                    while j >= n or j in selected:
                        j = bits(width)
                    selected.add(j)
                    out.append(population[j])
                return out
        return sample


def gen_planar_triangulation(n: int, seed: int) -> PlaneGraph:
    """Stacked (Apollonian) triangulation on n >= 3 vertices.

    Starts from a triangle and repeatedly drops a new vertex into a
    uniformly chosen bounded face, joining it to the face's three corners.
    Every face including the outer one is a triangle and m = 3n - 6.
    """
    if n < 3:
        raise InfeasibleParameters(f"need n >= 3, got {n}")
    below = _Draws(seed).below
    edges = {(0, 1), (0, 2), (1, 2)}
    rotation: dict[int, list[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    outer = (0, 1, 2)
    # Bounded faces in trace order (a, b, c): the start triangle's bounded
    # side is the reverse of the outer walk.
    bounded: list[tuple[int, int, int]] = [(0, 2, 1)]
    for x in range(3, n):
        idx = below(len(bounded))
        a, b, c = bounded[idx]
        for u, v in ((a, x), (b, x), (c, x)):
            edges.add((u, v) if u < v else (v, u))
        # Insert x after each corner's face-predecessor so the three new
        # faces close under the dart-successor rule.
        for corner, pred in ((a, c), (b, a), (c, b)):
            rot = rotation[corner]
            rot.insert(rot.index(pred) + 1, x)
        rotation[x] = [a, c, b]
        bounded[idx:idx + 1] = [(a, b, x), (b, c, x), (c, a, x)]
    graph = SimpleGraph(n, edges)
    return PlaneGraph(graph, {v: tuple(r) for v, r in rotation.items()}, outer)


def gen_random_cover(g: SimpleGraph, s: int, list_size: int, density: float,
                     seed: int) -> Cover:
    """Random cover: uniform lists of one size, seeded partial matchings.

    Each edge's matching is a random partial bijection whose size is the
    fraction `density` of the largest possible matching between the two
    lists (density 1.0 pairs up the whole smaller list, 0.0 leaves every
    matching empty).
    """
    if list_size < 1 or list_size > s:
        raise InfeasibleParameters(f"list size {list_size} outside 1..{s}")
    if not 0.0 <= density <= 1.0:
        raise InfeasibleParameters(f"density {density} outside [0, 1]")
    draws = _Draws(seed)
    colors = range(1, s + 1)
    pick_list = draws.sampler(s, list_size)
    lists = {v: sorted(pick_list(colors)) for v in g.vertices}
    size = round(density * list_size)  # every list has list_size colors
    pick_side = draws.sampler(list_size, size)
    matchings = {(u, v): dict(zip(pick_side(lists[u]), pick_side(lists[v])))
                 for u, v in (g.edge_list() if size else ())}
    # Cover's own tables, valid by construction: each side of a matching
    # is sampled without repeats from its list, every edge has u < v, and
    # no matching is empty.
    return Cover._trusted(s, {v: frozenset(cs) for v, cs in lists.items()}, matchings)


def gen_random_budget(g: SimpleGraph, s: int, sum_min: int, cap: int, seed: int,
                      lists: Mapping[int, frozenset[int]] | None = None) -> Budget:
    """Random budget with every vertex total exactly sum_min, values <= cap.

    When `lists` is given the support of each vertex's budget stays inside
    its list, encoding "color not available" as a zero entry; a vertex
    missing from `lists` has the empty list.  Each unit of a vertex's
    total goes to a uniformly drawn color of its support still below cap.
    """
    if sum_min < 0:
        raise InfeasibleParameters(f"need sum_min >= 0, got {sum_min}")
    if cap < 0:
        raise InfeasibleParameters(f"need cap >= 0, got {cap}")
    below = _Draws(seed).below
    values = {}
    for v in g.vertices:
        support = sorted(lists.get(v, ())) if lists is not None else list(range(1, s + 1))
        if sum_min > cap * len(support):
            raise InfeasibleParameters(
                f"cannot reach total {sum_min} with cap {cap} over {len(support)} colors")
        vec = {i: 0 for i in support}
        open_colors = support[:]  # ascending, the colors still below cap
        for _ in range(sum_min):
            j = below(len(open_colors))
            i = open_colors[j]
            vec[i] += 1
            if vec[i] == cap:
                del open_colors[j]
        for i, val in vec.items():
            if val:
                values[(v, i)] = val
    return Budget(s, cap, values)
