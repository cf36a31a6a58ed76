"""Encodings between list-style colorings and budgeted correspondence coloring.

List coloring becomes the all-ones budget on each list, list-forested
coloring the all-twos budget, and the mixed form puts 1 on the low colors
and 2 on the high ones.  In every encoding a zero budget entry means the
color is unusable at that vertex.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .covers import Budget, Coloring, Cover, PairGraph
from .degeneracy import strictly_degenerate_order
from .errors import BadParameters, EmptyList, NotAPartition, PartialColoring
from .graphs import SimpleGraph

ListAssignment = Mapping[int, Iterable[int]]


def canonicalize_lists(assignment: Mapping[int, Iterable[Hashable]],
                       ) -> tuple[dict[int, frozenset[int]], dict[Hashable, int]]:
    """Map arbitrary sortable color symbols to 1..s by sorted order."""
    symbols = sorted({c for colors in assignment.values() for c in colors})
    table = {c: i + 1 for i, c in enumerate(symbols)}
    lists = {v: frozenset(table[c] for c in colors) for v, colors in assignment.items()}
    return lists, table


def identity_cover(g: SimpleGraph, lists: ListAssignment, s: int | None = None) -> Cover:
    """Cover whose edges match exactly equal colors on shared list entries."""
    clean = {v: frozenset(lists.get(v, ())) for v in g.vertices}
    empty = [v for v, colors in clean.items() if not colors]
    if empty:
        raise EmptyList(f"no list or an empty list at vertices {empty}")
    if s is None:
        s = max(c for colors in clean.values() for c in colors)
    matchings = {}
    for (u, v) in g.edge_list():
        common = sorted(clean[u] & clean[v])
        if common:
            matchings[(u, v)] = [(c, c) for c in common]
    return Cover(s, clean, matchings)


def budget_list(lists: ListAssignment, s: int | None = None) -> Budget:
    """Budget 1 on each listed color: valid colorings are proper list colorings."""
    if s is None:
        s = max((c for colors in lists.values() for c in colors), default=1)
    values = {(v, c): 1 for v, colors in lists.items() for c in colors}
    return Budget(s, 1, values)


def budget_forest(lists: ListAssignment, s: int | None = None) -> Budget:
    """Budget 2 on each listed color: every color class must induce a forest."""
    if s is None:
        s = max((c for colors in lists.values() for c in colors), default=1)
    values = {(v, c): 2 for v, colors in lists.items() for c in colors}
    return Budget(s, 2, values)


def budget_mixed(lists: ListAssignment, d: int, k: int) -> Budget:
    """Budget 1 on listed colors up to 2d-k and 2 above, for d-lists with 2d > k.

    Colorings then have independent classes on colors 1..2d-k and forest
    classes on the rest.
    """
    if not (2 * d > k and d <= k):
        raise BadParameters(f"need 2d > k and d <= k, got d={d}, k={k}")
    split = 2 * d - k
    clean = {v: frozenset(colors) for v, colors in lists.items()}
    for v, colors in clean.items():
        if len(colors) != d:
            raise BadParameters(f"vertex {v} has a list of size {len(colors)}, need {d}")
    s = max(k, max((c for colors in clean.values() for c in colors), default=1))
    values = {}
    for v, colors in clean.items():
        for c in colors:
            values[(v, c)] = 1 if c <= split else 2
    return Budget(s, 2, values)


def color_classes(r: Coloring, g: SimpleGraph | None = None) -> dict[int, frozenset[int]]:
    """Partition of the colored vertices by color.

    When a graph is given the coloring must be total on it.
    """
    if g is not None:
        missing = [v for v in g.vertices if v not in r]
        if missing:
            raise PartialColoring(f"vertices {missing} are uncolored")
    out: dict[int, set[int]] = {}
    for v, c in r.items():
        out.setdefault(c, set()).add(v)
    return {c: frozenset(vs) for c, vs in out.items()}


def check_partition(g: SimpleGraph, partition: Mapping[int, Iterable[int]],
                    caps: Mapping[int, int]) -> bool:
    """Whether each class induces a strictly cap-degenerate subgraph.

    Cap 1 means the class is an independent set, cap 2 that it induces a
    forest.  Raises NotAPartition unless the classes are disjoint, cover
    the graph, and each has a cap.
    """
    seen: set[int] = set()
    for key, members in partition.items():
        mset = set(members)
        if mset & seen:
            raise NotAPartition(f"class {key} overlaps an earlier class")
        if key not in caps:
            raise NotAPartition(f"class {key} has no cap")
        seen |= mset
    if seen != set(g.vertices):
        raise NotAPartition("classes do not cover the vertex set")
    for key, members in partition.items():
        sub = g.induced(members)
        pairs = [(v, 1) for v in sub.vertices]
        edges = [((u, 1), (v, 1)) for (u, v) in sub.edge_list()]
        pg = PairGraph(pairs, edges, {p: caps[key] for p in pairs})
        if strictly_degenerate_order(pg) is None:
            return False
    return True
