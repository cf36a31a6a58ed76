"""Bounded-length simple cycle enumeration and cycle-family predicates."""

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


def cycle_edges(cycle: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    out = set()
    for t in range(len(cycle)):
        u, v = cycle[t], cycle[(t + 1) % len(cycle)]
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


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


def check_family(g: SimpleGraph, spec: FamilySpec) -> bool:
    """Whether the graph lies in the given cycle family."""
    if isinstance(spec, NoAdj34):
        cs = enumerate_cycles(g, 4)
        threes = [cycle_edges(c) for c in cs.get(3, [])]
        fours = [cycle_edges(c) for c in cs.get(4, [])]
        return not any(t & q for t in threes for q in fours)
    if isinstance(spec, FamilyA):
        cs = enumerate_cycles(g, 5)
        threes = [cycle_edges(c) for c in cs.get(3, [])]
        fours = [cycle_edges(c) for c in cs.get(4, [])]
        fives = [cycle_edges(c) for c in cs.get(5, [])]
        for t in threes:
            for q in fours:
                if not t & q:
                    continue
                for p in fives:
                    if t & p and q & p:
                        return False
        return True
    if isinstance(spec, NoCycleLengths):
        # Stops at the first cycle of a forbidden length, in either direction.
        return not any(len(path) in spec.lengths for path in _closed_paths(g, max(spec.lengths)))
    raise BadSpec(f"unknown family spec {spec!r}")
