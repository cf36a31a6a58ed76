"""Verification and extension operations for colorings under a cover.

A coloring of (G, H) with budget f is valid when the pair graph it induces
in H admits a strictly degenerate order against the budgets f_{c(v)}(v).
Partial colorings are verified on the subgraph induced by their domain.
"""

from __future__ import annotations

from .covers import Budget, Coloring, Cover, Order, PairGraph
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
    """
    missing = [v for v in g.vertices if v not in r]
    if missing:
        raise PartialColoring(f"vertices {missing} are uncolored")
    for v in g.vertices:
        if r[v] not in h.list_of(v):
            raise ColorNotInList(f"color {r[v]} not in list of vertex {v}")
    pairs = [(v, r[v]) for v in g.vertices]
    edges = [
        ((u, r[u]), (v, r[v]))
        for (u, v) in g.edge_list()
        if h.matched(u, r[u], v, r[v])
    ]
    budgets = {(v, r[v]): f.get(v, r[v]) for v in g.vertices}
    return PairGraph(pairs, edges, budgets)


def verify_coloring(g: SimpleGraph, h: Cover, f: Budget, r: Coloring) -> Order | None:
    """Witness order for a total coloring, or None if it is not valid."""
    return strictly_degenerate_order(induced_pair_graph(g, h, f, r))


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
    values = {(v, i): left
              for v in g.vertices if v not in precolored
              for i, left in residual_at(g, h, f, precolored, v).items()}
    return Budget(f.s, f.cap, values)


def residual_at(g: SimpleGraph, h: Cover, f: Budget, precolored: Coloring,
                v: int) -> dict[int, int]:
    """Residual values of a single uncolored vertex, without re-verification."""
    colored_nbrs = [x for x in g.adj[v] if x in precolored]
    out = {}
    for i in f.support(v):
        hits = sum(1 for x in colored_nbrs if h.matched(v, i, x, precolored[x]))
        left = f.get(v, i) - hits
        if left > 0:
            out[i] = left
    return out


def greedy_extend(g: SimpleGraph, h: Cover, f: Budget, partial: Coloring,
                  order: Order, v: int) -> tuple[dict[int, int], Order]:
    """Color one more vertex greedily and append it to the witness order.

    Picks the lowest color of v's list with positive residual budget; the
    extended order stays valid because the new element's earlier matched
    neighbors are exactly the discounted ones.
    """
    if v in partial:
        raise ValueError(f"vertex {v} is already colored")
    residual = residual_at(g, h, f, partial, v)
    choices = sorted(i for i in residual if i in h.list_of(v))
    if not choices:
        raise NoColorAvailable(f"no residual color for vertex {v}")
    i = choices[0]
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
    """
    overlap = sorted(set(r1) & set(r2))
    if overlap:
        raise DomainOverlap(f"vertices {overlap} colored twice")
    if set(r1) | set(r2) != set(g.vertices):
        raise InvalidInput("combined domains do not cover the graph")
    g1 = g.induced(r1.keys())
    pg1 = induced_pair_graph(g1, h, f, r1)
    if not order_is_valid(pg1, s1):
        raise InvalidInput("first coloring's witness order is not valid")
    f_star = _residuals(g, h, f, r1)
    g2 = g.induced(r2.keys())
    pg2 = induced_pair_graph(g2, h, f_star, r2)
    if not order_is_valid(pg2, s2):
        raise InvalidInput("second coloring's witness is not valid under the residual budget")
    union = dict(r1)
    union.update(r2)
    order = s1 + s2
    if not order_is_valid(induced_pair_graph(g, h, f, union), order):
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
    sub = g.induced(r.keys())
    pg = induced_pair_graph(sub, h, f, r)
    return eliminate_with_prefix(pg, [(v, prefix[v]) for v in sorted(prefix)])
