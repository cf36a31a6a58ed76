"""Unseeded graphs of the scaling ladder, shared with the tests.

Each builder takes the `dpfcolor` module as its first argument, as
`perfbench/shapes.py` does, so that a ladder case run with `--src` builds
its instance with the package it measures.  It needs only the standard
library.  `tests/oracles.py` binds the package under test and re-exports
`polygon`, `windmill` and `pendant_grid` under the same names.
"""

from __future__ import annotations


def polygon(dp, p: int):
    """The p-cycle 0, 1, ..., p-1 as a plane graph whose outer face is the
    cycle in that order."""
    g = dp.SimpleGraph(p, [(i, (i + 1) % p) for i in range(p)])
    rot = {i: ((i - 1) % p, (i + 1) % p) for i in range(p)}
    return dp.PlaneGraph(g, rot, tuple(range(p)))


def windmill(dp, t: int, hub: int):
    """t triangles sharing the vertex `hub`, which is 0 or 2t; the blades
    pair up the other vertices in ascending order."""
    blades = [v for v in range(2 * t + 1) if v != hub]
    return dp.SimpleGraph(2 * t + 1, [e for a, b in zip(blades[::2], blades[1::2])
                                      for e in ((a, b), (a, hub), (b, hub))])


def pendant_grid(dp, k: int):
    """A k x k grid with a triangle hung on every 4th vertex: vertex (i, j)
    is i*k + j, and the hung triangles' new vertices follow, two each."""
    edges = [(v, v + 1) for v in range(k * k) if (v + 1) % k]
    edges += [(v, v + k) for v in range(k * k - k)]
    n = k * k
    for v in range(0, k * k, 4):
        edges += [(v, n), (v, n + 1), (n, n + 1)]
        n += 2
    return dp.SimpleGraph(n, edges)

