"""Finite simple undirected graphs on integer vertices."""

from __future__ import annotations

from typing import Iterable


class SimpleGraph:
    """Immutable simple graph.

    Canonical graphs live on vertices 0..n-1; induced subgraphs keep their
    original vertex ids so colorings, covers and budgets stay valid across
    subgraph operations.
    """

    __slots__ = ("vertices", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self._build(range(n), edges)

    @classmethod
    def on_vertices(cls, vertices: Iterable[int],
                    edges: Iterable[tuple[int, int]] = ()) -> "SimpleGraph":
        g = cls.__new__(cls)
        g._build(vertices, edges)
        return g

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], edges: frozenset[tuple[int, int]],
                 adj: dict[int, frozenset[int]]) -> "SimpleGraph":
        """Wrap valid tables unchecked: sorted vertices, edges (u, v) with
        u < v between them, and the adjacency sets those edges give."""
        g = cls.__new__(cls)
        g.vertices, g.edges, g.adj = vertices, edges, adj
        return g

    def _build(self, vertices, edges):
        vs = sorted(set(vertices))
        vset = set(vs)
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            norm.add((u, v) if u < v else (v, u))
        adj = {v: set() for v in vs}
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = tuple(vs)
        self.edges = frozenset(norm)
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced(self, keep: Iterable[int]) -> "SimpleGraph":
        """Induced subgraph on `keep`, preserving vertex ids."""
        kset = set(keep)
        unknown = kset - self.adj.keys()
        if unknown:
            raise ValueError(f"unknown vertices {sorted(unknown)}")
        adj = {v: self.adj[v] & kset for v in sorted(kset)}
        edges = frozenset((u, w) for u, ns in adj.items() for w in ns if u < w)
        return SimpleGraph._trusted(tuple(adj), edges, adj)

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
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.m})"


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])
