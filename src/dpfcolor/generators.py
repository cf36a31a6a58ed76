"""Seeded generators: stacked triangulations, random covers, random budgets.

Everything is a pure function of its arguments; the same seed always
produces the same object.
"""

from __future__ import annotations

import random
from typing import Mapping

from .covers import Budget, Cover
from .errors import InfeasibleParameters
from .graphs import SimpleGraph
from .planar import PlaneGraph


def gen_planar_triangulation(n: int, seed: int) -> PlaneGraph:
    """Stacked (Apollonian) triangulation on n >= 3 vertices.

    Starts from a triangle and repeatedly drops a new vertex into a
    uniformly chosen bounded face, joining it to the face's three corners.
    Every face including the outer one is a triangle and m = 3n - 6.
    """
    if n < 3:
        raise InfeasibleParameters(f"need n >= 3, got {n}")
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    rotation: dict[int, list[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    outer = (0, 1, 2)
    # Bounded faces in trace order (a, b, c): the start triangle's bounded
    # side is the reverse of the outer walk.
    bounded: list[tuple[int, int, int]] = [(0, 2, 1)]
    for x in range(3, n):
        idx = rng.randrange(len(bounded))
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
    rng = random.Random(seed)
    lists = {v: sorted(rng.sample(range(1, s + 1), list_size)) for v in g.vertices}
    size = round(density * list_size)  # every list has list_size colors
    matchings = {(u, v): dict(zip(rng.sample(lists[u], size), rng.sample(lists[v], size)))
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
    missing from `lists` has the empty list.
    """
    rng = random.Random(seed)
    values = {}
    for v in g.vertices:
        support = sorted(lists.get(v, ())) if lists is not None else list(range(1, s + 1))
        if sum_min > cap * len(support):
            raise InfeasibleParameters(
                f"cannot reach total {sum_min} with cap {cap} over {len(support)} colors")
        vec = {i: 0 for i in support}
        for _ in range(sum_min):
            i = rng.choice(sorted(c for c in support if vec[c] < cap))
            vec[i] += 1
        for i, val in vec.items():
            if val:
                values[(v, i)] = val
    return Budget(s, cap, values)
