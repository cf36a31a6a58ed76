"""Seeded plane-graph shapes the library does not generate itself.

Each builder lays the vertices out in the plane, derives the clockwise
rotation system from the straight-line drawing, and relabels the vertices
with a seeded permutation so that the lexicographic tie-breaks of the
solver (first outer edge, first chord) land in different places per seed.
Callers check every shape with `dpfcolor.faces` before using it.
"""

from __future__ import annotations

import math
import random


def _plane(dp, coords, edges, outer, rng):
    """PlaneGraph from a straight-line drawing, with vertices relabelled."""
    n = len(coords)
    perm = list(range(n))
    rng.shuffle(perm)
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rotation = {}
    for v, nbrs in adj.items():
        x, y = coords[v]
        # Clockwise: neighbours by decreasing angle around v.
        ordered = sorted(nbrs, key=lambda u: -math.atan2(coords[u][1] - y, coords[u][0] - x))
        rotation[perm[v]] = tuple(perm[u] for u in ordered)
    graph = dp.SimpleGraph(n, [(perm[u], perm[v]) for u, v in edges])
    return dp.PlaneGraph(graph, rotation, tuple(perm[v] for v in outer))


def _circle(n):
    return [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]


def triangulated_polygon(dp, n: int, seed: int):
    """Convex n-gon with a seeded random triangulation of its interior.

    Every vertex lies on the outer cycle, so the solver's recursion is made
    almost entirely of chord splits.
    """
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    stack = [list(range(n))]
    while stack:
        poly = stack.pop()
        if len(poly) < 4:
            continue
        t = rng.randrange(1, len(poly) - 1)
        a, apex, b = poly[0], poly[t], poly[-1]
        for u, v in ((a, apex), (apex, b)):
            edges.add((u, v) if u < v else (v, u))
        stack.append(poly[:t + 1])
        stack.append(poly[t:])
    return _plane(dp, _circle(n), sorted(edges), range(n), rng)


def wheel(dp, n: int, seed: int):
    """Hub joined to every vertex of an (n-1)-cycle; the rim is the outer face."""
    rng = random.Random(seed)
    rim = n - 1
    coords = _circle(rim) + [(0.0, 0.0)]
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    return _plane(dp, coords, edges, range(rim), rng)


def grid(dp, k: int, seed: int):
    """k x k grid graph; its bounded faces are all quadrilaterals."""
    rng = random.Random(seed)
    coords = [(float(j), float(-i)) for i in range(k) for j in range(k)]
    edges = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                edges.append((v, v + 1))
            if i + 1 < k:
                edges.append((v, v + k))
    outer = ([j for j in range(k)] + [i * k + k - 1 for i in range(1, k)]
             + [(k - 1) * k + j for j in range(k - 2, -1, -1)]
             + [i * k for i in range(k - 2, 0, -1)])
    return _plane(dp, coords, edges, outer, rng)
