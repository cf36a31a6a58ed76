"""Verification and extension operations for colorings under a cover.

A coloring of (G, H) with budget f is valid when the pair graph it induces
in H admits a strictly degenerate order against the budgets f_{c(v)}(v).
Partial colorings are verified on the subgraph induced by their domain.
"""

from __future__ import annotations

from typing import Iterable

from .covers import _NO_MATCHES, Budget, Coloring, Cover, Order, PairGraph
from .degeneracy import eliminate_with_prefix, order_is_valid, strictly_degenerate_order
from .errors import (
    ColorNotInList,
    DomainOverlap,
    InternalInvariantViolated,
    InvalidInput,
    InvalidPrecoloring,
    NoColorAvailable,
    PartialColoring,
)
from .graphs import SimpleGraph


def induced_pair_graph(g: SimpleGraph, h: Cover, f: Budget, r: Coloring) -> PairGraph:
    """Pair graph induced by the representative set of a total coloring.

    Vertices are the chosen (v, r(v)) pairs; two pairs are adjacent exactly
    when their graph edge's matching links the two chosen colors.  Each
    pair carries the budget f_{r(v)}(v).

    Checks that r colors every vertex (PartialColoring) and then, in vertex
    order, that each color is in its list (ColorNotInList).  A total
    coloring has one pair per vertex, so pair k is (g.vertices[k], r(v))
    and the tables are filled in one pass over the vertices and one
    lookup of the edge's matching dict per edge, with no sort.
    """
    verts = g.vertices
    missing = [v for v in verts if v not in r]
    if missing:
        raise PartialColoring(f"vertices {missing} are uncolored")
    pos = {v: k for k, v in enumerate(verts)}
    nbrs: list[list[int]] = [[] for _ in verts]
    matchings, adj = h._matchings, g.adj
    for k, v in enumerate(verts):
        c = r[v]
        if c not in h.list_of(v):
            raise ColorNotInList(f"color {c} not in list of vertex {v}")
        for w in adj[v]:
            if w > v and matchings.get((v, w), _NO_MATCHES).get(c) == r[w]:
                j = pos[w]
                nbrs[k].append(j)
                nbrs[j].append(k)
    pairs = tuple((v, r[v]) for v in verts)
    return PairGraph._trusted(
        pairs,
        {p: k for k, p in enumerate(pairs)},
        tuple(map(frozenset, nbrs)),
        tuple(f.get(v, c) for v, c in pairs),
    )


def verify_coloring(g: SimpleGraph, h: Cover, f: Budget, r: Coloring) -> Order | None:
    """Witness order for a total coloring, or None if it is not valid.

    Raises PartialColoring when r misses a vertex of g and InvalidInput when
    it colors a vertex g does not have.
    """
    pg = induced_pair_graph(g, h, f, r)
    if len(r) != g.n:  # every vertex of g is colored, so r has extra keys
        stray = sorted(v for v in r if v not in g.adj)
        raise InvalidInput(f"vertices {stray} are not in the graph")
    return strictly_degenerate_order(pg)


def verify_on_domain(g: SimpleGraph, h: Cover, f: Budget, r: Coloring) -> Order | None:
    """Verify a (possibly partial) coloring on the subgraph its domain induces."""
    return verify_coloring(g.induced(r.keys()), h, f, r)


def _check_precoloring(g: SimpleGraph, h: Cover, f: Budget, precolored: Coloring) -> None:
    """Raise InvalidPrecoloring unless the precoloring verifies on its domain."""
    try:
        witness = verify_on_domain(g, h, f, precolored)
    except ColorNotInList as exc:
        raise InvalidPrecoloring(str(exc)) from exc
    if witness is None:
        raise InvalidPrecoloring("precoloring fails verification on its domain")


def residual_budget(g: SimpleGraph, h: Cover, f: Budget, precolored: Coloring) -> Budget:
    """Budget left for the uncolored vertices after discounting matched neighbors.

    For uncolored v and color i the residual is
    max(0, f_i(v) - #{colored x adjacent to v with (v,i) matched to (x, r(x))}).
    Raises InvalidPrecoloring when the precoloring fails verification on its
    induced subgraph.
    """
    _check_precoloring(g, h, f, precolored)
    return _residuals(g, h, f, precolored)


def _residuals(g: SimpleGraph, h: Cover, f: Budget, precolored: Coloring) -> Budget:
    """residual_budget for a precoloring the caller has already verified."""
    return Budget._trusted(f.s, f.cap, {v: row for v in g.vertices if v not in precolored
                                        if (row := residual_at(g, h, f, precolored, v))})


def residual_at(g: SimpleGraph, h: Cover, f: Budget, precolored: Coloring,
                v: int) -> dict[int, int]:
    """Residual values of a single uncolored vertex, without re-verification:
    {i: f_i(v) - hits} over v's positive budget entries, in ascending color
    order, where hits counts v's colored neighbours x whose edge matches
    (v, i) to (x, r(x)) (`_hits`).  Costs O(deg(v)) lookups plus sorting
    v's budget row, not one `Cover.matched` call per color and neighbour.
    """
    row = f._rows.get(v)
    if not row:
        return {}
    hits = _hits(g, h, precolored, v)
    return {i: left for i in sorted(row) if (left := row[i] - hits.get(i, 0)) > 0}


def _hits(g: SimpleGraph, h: Cover, r: Coloring, v: int) -> dict[int, int]:
    """{i: the number of v's colored neighbours x whose edge matches (v, i)
    to (x, r(x))}, over the colors i that some neighbour hits.

    One pass over v's neighbours: each colored one costs one lookup of its
    edge's matching dict, which names the color of v it hits (a key lookup
    when v is the larger endpoint, a scan of the dict's at most s items
    when it is the smaller one).
    """
    matchings, hits = h._matchings, {}
    for x in g.adj[v]:
        cx = r.get(x)
        if cx is None:
            continue
        if x < v:
            i = matchings.get((x, v), _NO_MATCHES).get(cx)
        else:
            i = None
            for c, cw in matchings.get((v, x), _NO_MATCHES).items():
                if cw == cx:
                    i = c
                    break
        if i is not None:
            hits[i] = hits.get(i, 0) + 1
    return hits


def _greedy_color(g: SimpleGraph, h: Cover, f: Budget, r: Coloring, v: int,
                  row: dict[int, int] | None = None) -> int | None:
    """The greedy rule: v's color of its list with positive residual budget
    after r and the lowest name, or None when it has none.  `row` maps v's
    input colors to names ({input color: name}); without it each color
    names itself.  Appending v's pair to a valid order of r's pairs keeps
    it valid, since the pair's earlier matched neighbours are exactly the
    ones the residual discounts.

    It reads v's budget row against its hit counts (`_hits`, as
    `residual_at` does) and takes the minimum directly: names are distinct,
    so no residual dict and no sort are needed.
    """
    budget = f._rows.get(v)
    if not budget:
        return None
    lst, hits = h.list_of(v), _hits(g, h, r, v)
    return min((i for i, val in budget.items() if val > hits.get(i, 0) and i in lst),
               key=row.get if row else None, default=None)


def _color_greedily(g: SimpleGraph, h: Cover, f: Budget, r: dict[int, int],
                    vertices: Iterable[int], names: dict[int, dict[int, int]]) -> Order:
    """Color each of `vertices` in turn into r by the greedy rule on its
    names (`_greedy_color`), and return their pairs in that order.

    The one greedy placement of the constructive steps: the planar base
    case, a run's cut vertices and the configuration extension.  Raises
    InternalInvariantViolated naming the first vertex with no residual
    color; the vertices placed before it stay colored in r.
    """
    placed = []
    for v in vertices:
        c = _greedy_color(g, h, f, r, v, names.get(v))
        if c is None:
            raise InternalInvariantViolated(f"greedy step failed: no residual color for vertex {v}")
        r[v] = c
        placed.append((v, c))
    return tuple(placed)


def greedy_extend(g: SimpleGraph, h: Cover, f: Budget, partial: Coloring,
                  order: Order, v: int) -> tuple[dict[int, int], Order]:
    """Color one more vertex by the greedy rule (`_greedy_color`) and append
    it to the witness order.

    Raises InvalidInput when v is not a vertex of g or is already colored,
    and NoColorAvailable when v has no residual color of its list.
    """
    if v not in g.adj:
        raise InvalidInput(f"vertex {v} is not in the graph")
    if v in partial:
        raise InvalidInput(f"vertex {v} is already colored")
    i = _greedy_color(g, h, f, partial, v)
    if i is None:
        raise NoColorAvailable(f"no residual color for vertex {v}")
    extended = dict(partial)
    extended[v] = i
    return extended, order + ((v, i),)


def combine_colorings(g: SimpleGraph, h: Cover, f: Budget,
                      r1: Coloring, s1: Order,
                      r2: Coloring, s2: Order) -> tuple[dict[int, int], Order]:
    """Concatenate a coloring of an induced subgraph with one of the rest.

    r1 must verify on G[dom(r1)] with witness s1, and r2 must verify on
    G - dom(r1) against the residual budget with witness s2.  The union is
    then valid with order s1 followed by s2.

    Once the domains are checked, one definition check on the union does
    the work: when s1 lists exactly r1's pairs, s1 + s2 is valid for the
    union under f iff s1 is valid on G[dom(r1)] and s2 is valid on the rest
    under the residual budget (the pairs of s1 placed before an element of
    s2 are exactly the ones the residual discounts).  That costs one pair
    graph and one pass over the order.  Only when it fails are the two
    halves checked on their own, to name the one at fault.
    """
    overlap = sorted(set(r1) & set(r2))
    if overlap:
        raise DomainOverlap(f"vertices {overlap} colored twice")
    if set(r1) | set(r2) != set(g.vertices):
        raise InvalidInput("combined domains do not cover the graph")
    union = dict(r1)
    union.update(r2)
    order = s1 + s2
    try:
        valid = (len(s1) == len(r1) and r1.items() == set(s1)
                 and order_is_valid(induced_pair_graph(g, h, f, union), order))
    except ColorNotInList:
        valid = False
    if not valid:
        pg1 = induced_pair_graph(g.induced(r1.keys()), h, f, r1)
        if not order_is_valid(pg1, s1):
            raise InvalidInput("first coloring's witness order is not valid")
        pg2 = induced_pair_graph(g.induced(r2.keys()), h, _residuals(g, h, f, r1), r2)
        if not order_is_valid(pg2, s2):
            raise InvalidInput("second coloring's witness is not valid under the residual budget")
        raise InternalInvariantViolated("combined order failed the definition check")
    return union, order


def order_with_prefix(g: SimpleGraph, h: Cover, f: Budget, r: Coloring,
                      prefix: Coloring) -> Order | None:
    """Valid order of r's pairs whose first block is exactly the prefix pairs.

    Works on the subgraph induced by r's domain, so r may be partial.
    Returns None when no prefix-first order exists.
    """
    bad = sorted(v for v in prefix if r.get(v) != prefix[v])
    if bad:
        raise InvalidInput(f"prefix disagrees with the coloring at {bad}")
    if r.keys() != set(g.vertices):
        g = g.induced(r.keys())
    pg = induced_pair_graph(g, h, f, r)
    return eliminate_with_prefix(pg, [(v, prefix[v]) for v in sorted(prefix)])
