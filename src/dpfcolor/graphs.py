"""Finite simple undirected graphs on integer vertices."""

from __future__ import annotations

from typing import Iterable


class SimpleGraph:
    """Immutable simple graph.

    Canonical graphs live on vertices 0..n-1; induced subgraphs keep their
    original vertex ids so colorings, covers and budgets stay valid across
    subgraph operations.
    """

    __slots__ = ("vertices", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self._build(range(n), edges)

    @classmethod
    def on_vertices(cls, vertices: Iterable[int],
                    edges: Iterable[tuple[int, int]] = ()) -> "SimpleGraph":
        g = cls.__new__(cls)
        g._build(vertices, edges)
        return g

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], adj: dict[int, frozenset[int]]) -> "SimpleGraph":
        """Wrap a valid table unchecked: sorted vertices, and symmetric
        loop-free adjacency sets keyed by exactly those vertices in that
        order.  Rows may be shared, so none is ever mutated."""
        g = cls.__new__(cls)
        g.vertices, g.adj = vertices, adj
        return g

    def _build(self, vertices, edges):
        vs = sorted(set(vertices))
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = tuple(vs)
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges (u, v) with u < v, derived from `adj` in O(m) per access."""
        return frozenset((u, w) for u, ns in self.adj.items() for w in ns if u < w)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def edge_list(self) -> list[tuple[int, int]]:
        """`sorted(self.edges)`, built row by row: the vertices are in
        order, so no set of every edge is built and sorted."""
        return [(u, w) for u in self.vertices for w in sorted(self.adj[u]) if u < w]

    def induced(self, keep: Iterable[int]) -> "SimpleGraph":
        """Induced subgraph on `keep`, preserving vertex ids."""
        kset = set(keep)
        unknown = kset - self.adj.keys()
        if unknown:
            raise ValueError(f"unknown vertices {sorted(unknown)}")
        adj = {v: self.adj[v] & kset for v in sorted(kset)}
        return SimpleGraph._trusted(tuple(adj), adj)

    def delete(self, v: int) -> "SimpleGraph":
        return self.induced(set(self.vertices) - {v})

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.adj == other.adj

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.m})"


class _OwnedGraph(SimpleGraph):
    """A graph on an adjacency dict that its one owner edits in place, by
    deleting keys and replacing rows, so the keys stay in vertex order.
    The vertex tuple is read off the keys at each access: it is never
    stale, and a graph whose vertices nothing reads never builds it."""

    __slots__ = ()
    vertices = property(lambda self: tuple(self.adj))
    n = property(lambda self: len(self.adj))

    def __init__(self, adj: dict[int, frozenset[int]]):
        self.adj = adj


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])
