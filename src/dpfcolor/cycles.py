"""Bounded-length simple cycle enumeration and cycle-family predicates.

`enumerate_cycles` lists cycles, and `NoCycleLengths` stops at the first
closed walk of a forbidden length.  `NoAdj34` and `FamilyA` list no
cycles: a triangle and a 4-cycle that share an edge share one edge or two,
and each way is seen from the neighbourhoods of one triangle edge.

- One shared edge uv: u and v have a common neighbour c, and a 4-cycle
  u-x-w-v avoids c.  Then c-u-x-w-v is a 5-cycle that shares an edge with
  both, so the graph is not in `FamilyA` (case (a)).
- Two shared edges: the triangle and the 4-cycle form a diamond, an edge
  uv with two common neighbours b and d.  The graph is outside `FamilyA`
  exactly when an edge of the 4-cycle u-b-v-d lies on a 5-cycle, since
  each such edge lies on a triangle that shares two edges with the
  4-cycle (case (b)).

Conversely every violation is one of these.  Each edge is read once, from
its lower-degree end, so the scan of that end's neighbours costs, summed
over the edges, at most twice the arboricity times the number of edges
(Chiba and Nishizeki, SIAM J. Comput. 14(1), 1985).  `check_family` gives
the whole argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BadSpec, LimitExceeded
from .graphs import SimpleGraph

MAX_CYCLE_LEN = 10

CycleSet = dict[int, list[tuple[int, ...]]]


def _closed_paths(g: SimpleGraph, max_len: int) -> Iterator[tuple[int, ...]]:
    """Every simple cycle of length 3..max_len, as a path from its smallest
    vertex, once in each direction, in depth-first order.

    A caller that needs each cycle once keeps the direction with
    `path[1] < path[-1]`.  Filtering inside the walk would be slower to the
    first cycle: from a start vertex, every path through its largest
    neighbour closes in the other direction, so the walk would search that
    whole subtree before it yields anything.
    """
    for start in g.vertices:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            for nxt in sorted(g.adj[path[-1]]):
                if nxt == start and len(path) >= 3:
                    yield path
                elif nxt > start and nxt not in path and len(path) < max_len:
                    stack.append(path + (nxt,))


def enumerate_cycles(g: SimpleGraph, max_len: int) -> CycleSet:
    """All simple cycles of length <= max_len, canonicalized and grouped by length.

    The canonical form starts at the cycle's smallest vertex and takes the
    lexicographically smaller direction, so each cycle appears exactly once.
    """
    if max_len > MAX_CYCLE_LEN:
        raise LimitExceeded(f"cycle enumeration capped at length {MAX_CYCLE_LEN}")
    out: CycleSet = {}
    for path in _closed_paths(g, max_len):
        if path[1] < path[-1]:
            out.setdefault(len(path), []).append(path)
    return {length: sorted(paths) for length, paths in out.items()}


@dataclass(frozen=True)
class NoAdj34:
    """No 3-cycle shares an edge with a 4-cycle."""


@dataclass(frozen=True)
class FamilyA:
    """No 3-, 4- and 5-cycle pairwise share edges."""


@dataclass(frozen=True)
class NoCycleLengths:
    """No cycle of a forbidden length; lengths must be {4, a, b, 9} with
    distinct a, b from {6, 7, 8}."""

    lengths: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "lengths", frozenset(self.lengths))
        rest = self.lengths - {4, 9}
        if not ({4, 9} <= self.lengths and len(self.lengths) == 4
                and len(rest) == 2 and rest <= {6, 7, 8}):
            raise BadSpec(f"lengths must be {{4,a,b,9}} with distinct a,b in {{6,7,8}}, "
                          f"got {sorted(self.lengths)}")


FamilySpec = NoAdj34 | FamilyA | NoCycleLengths


def _on_five(adj: dict[int, frozenset[int]], a: int, b: int) -> bool:
    """Whether edge ab lies on a 5-cycle a-x-y-z-b."""
    return any((adj[y] & adj[b]) - {a, x} for x in adj[a] - {b} for y in adj[x] - {a, b})


def check_family(g: SimpleGraph, spec: FamilySpec) -> bool:
    """Whether the graph lies in the given cycle family.

    `NoAdj34` and `FamilyA` read each edge uv once, from its lower-degree
    end u, and only if u and v have a common neighbour, so that uv lies on
    a triangle.  A 4-cycle through uv is u-x-w-v with x in N(u) - v and w
    in (N(x) & N(v)) - u.  `NoAdj34` fails at the first such 4-cycle.
    `FamilyA` fails in one of two cases:

    (a) uv has a common neighbour c and a 4-cycle u-x-w-v with c not in
        {x, w}.  The triangle uvc and that 4-cycle share only uv, and
        c-u-x-w-v is a 5-cycle that shares cu with the triangle and ux
        with the 4-cycle.
    (b) uv has two common neighbours b and d, and an edge of the 4-cycle
        u-b-v-d lies on a 5-cycle.  That edge lies on one of the triangles
        ubv and udv, and each of those shares two edges with the 4-cycle.

    Conversely, take a triangle, a 4-cycle and a 5-cycle that pairwise
    share edges.  The triangle and the 4-cycle share one edge or two (a
    4-cycle holds no triangle).  One shared edge uv, with the triangle's
    third vertex c off the 4-cycle, is case (a).  Two shared edges ab and
    bc make the 4-cycle a-b-c-d, a diamond on the triangle's third edge
    ac, and the 5-cycle shares an edge with that 4-cycle: case (b) on ac.
    A graph of at most 4 vertices has no 5-cycle, so case (b) is skipped
    there, which keeps the check of K4 short.

    An edge is read from the end with the smaller (degree, label), so the
    scans of N(u) cost at most the sum over edges of min(deg u, deg v),
    which is at most 2 a(G) m for a graph of arboricity a(G) (Chiba and
    Nishizeki, SIAM J. Comput. 14(1), 1985): a windmill's hub edges are
    read from their degree-2 ends, whatever the hub's label.  Every
    4-cycle through a triangle's edge is read until one settles the
    verdict, so K_{2,n} plus the edge between its hubs, which lies in
    `FamilyA` and has Theta(n^2) 4-cycles, still costs time quadratic in n.
    """
    if isinstance(spec, (NoAdj34, FamilyA)):
        adj, adj34 = g.adj, isinstance(spec, NoAdj34)
        for u, row in adj.items():
            for v in row:
                if (len(row), u) > (len(adj[v]), v) or not (common := row & adj[v]):
                    continue
                for x in row - {v}:
                    # `adj[x] & adj[v] - {u}` would copy v's whole row: `-` binds first.
                    for w in (adj[x] & adj[v]) - {u}:
                        if adj34 or common - {x, w}:
                            return False
                if not adj34 and len(common) > 1 and g.n > 4 and any(
                        _on_five(adj, c, t) for c in common for t in (u, v)):
                    return False
        return True
    if isinstance(spec, NoCycleLengths):
        # Stops at the first cycle of a forbidden length, in either direction.
        return not any(len(path) in spec.lengths for path in _closed_paths(g, max(spec.lengths)))
    raise BadSpec(f"unknown family spec {spec!r}")
