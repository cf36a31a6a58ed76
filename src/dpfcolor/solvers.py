"""Solvers: exhaustive exact search and the constructive planar recursion.

solve_exact enumerates representative sets in a fixed vertex order and
prunes any partial set whose induced pair graph is already unorderable;
that prune is sound because restricting a valid order to an induced
sub-pair-graph keeps it valid.  It builds one bitmask pair graph over all
candidate pairs per call, so a partial set is a single int of pair bits,
and it backtracks on an explicit stack instead of recursing.

solve_planar_dpg52 realizes the constructive argument that planar graphs
are colorable whenever every vertex has budget total at least 5 with
values capped at 2: triangulate the interior, precolor one outer edge,
then repeatedly split on outer-cycle chords or delete the second outer
vertex and lower the budgets along its fan.  The steps of that recursion
wait on an explicit work stack, so its depth costs heap, not Python stack.
Each step pays only for its own piece: a chord split builds piece 2's
pair graph once and both orders and checks piece 2 on it, and a fan step
renames only the matchings at the vertices it renames.
"""

from __future__ import annotations

from .coloring import (
    _check_precoloring,
    combine_colorings,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
    greedy_extend,
    induced_pair_graph,
    order_with_prefix,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
    residual_at,
)
from .covers import (
    Budget,
    Coloring,
    Cover,
    Order,
    PairGraph,
    complete_permutation,
    invert_permutations,
    relabel_coloring,
    relabel_order,
)
from .cycles import FamilyA, check_family
from .degeneracy import (
    _orderable_with,
    eliminate_with_prefix,
    order_is_valid,
    strictly_degenerate_order,
)
from .errors import (
    BadBudget,
    InternalInvariantViolated,
    InvalidPrecoloring,
    LimitExceeded,
    NoColorAvailable,
    NotInFamily,
    TheoremViolation,
)
from .graphs import SimpleGraph
from .planar import (
    PlaneGraph,
    _split,
    delete_vertex,
    faces,
    fan_neighbors,
    find_chord,
    is_two_connected,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
    split_on_chord,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
    triangulate_interior,
)

DEFAULT_EXACT_LIMIT = 12

_SPLIT_FAILED = ("chord combination failed: second coloring's witness is not valid "
                 "under the residual budget")


def solve_exact(g: SimpleGraph, h: Cover, f: Budget,
                precolored: Coloring | None = None,
                limit: int = DEFAULT_EXACT_LIMIT,
                stats: dict | None = None) -> tuple[dict[int, int], Order] | None:
    """Exhaustive search for a valid coloring extending the precoloring.

    Backtracks over vertices in descending-degree order.  A branch is cut
    when the partial pair graph is unorderable, or when some uncolored
    vertex has zero residual everywhere and no candidate pair of it can be
    added without making the partial pair graph unorderable.

    One bitmask pair graph is built per call: the precolored pairs, then
    every candidate pair (v, c) with f(v, c) >= 1 in search order, each
    with one bit, its budget and the int mask of the pairs its edges'
    matchings link it to.  A partial coloring is the int `alive` of its
    pairs' bits, so both tests read the shared masks restricted to
    `alive`.  Each orderability test adds one pair to a set already found
    orderable (the precoloring is checked first), so it stops as soon as
    the added pair is removable (`_orderable_with`).  The search runs on an
    explicit stack of (alive before this depth, iterator over the depth's
    untried candidates): undoing a choice is popping an entry, and the
    depth costs no Python stack.
    """
    if g.n > limit:
        raise LimitExceeded(f"{g.n} vertices exceed the exact-solver limit {limit}")
    counters = {"nodes": 0, "backtracks": 0}
    if stats is not None:
        stats.update(counters)

    pre = dict(precolored) if precolored else {}
    if pre:
        unknown = sorted(set(pre) - set(g.vertices))
        if unknown:
            raise InvalidPrecoloring(f"precolored vertices {unknown} not in the graph")
        _check_precoloring(g, h, f, pre)

    candidates = {
        v: tuple(sorted(i for i in h.list_of(v) if f.get(v, i) >= 1))
        for v in g.vertices if v not in pre
    }
    if any(not cs for cs in candidates.values()):
        return None
    todo = sorted(candidates, key=lambda v: (-g.degree(v), v))

    # The pair graph; slots[d] holds the indices of todo[d]'s candidates,
    # and the empty slot past the last vertex marks a complete coloring.
    pairs = [(v, pre[v]) for v in sorted(pre)]
    slots = []
    for v in todo:
        slots.append(range(len(pairs), len(pairs) + len(candidates[v])))
        pairs += [(v, c) for c in candidates[v]]
    slots.append(range(0))
    index = {p: k for k, p in enumerate(pairs)}
    budgets = [f.get(v, c) for v, c in pairs]
    masks = [0] * len(pairs)
    for u, v in g.edges:
        for cu, cv in h.matching(u, v):
            i, j = index.get((u, cu)), index.get((v, cv))
            if i is not None and j is not None:
                masks[i] |= 1 << j
                masks[j] |= 1 << i

    def doomed(alive: int, depth: int) -> bool:
        # A vertex with zero residual everywhere (each of its candidate
        # pairs has at least its budget of matched colored neighbours) must
        # still admit some candidate pair that keeps the pair graph orderable.
        for slot in slots[depth:len(todo)]:
            if all(budgets[k] <= (masks[k] & alive).bit_count() for k in slot) and not any(
                    _orderable_with(masks, budgets, alive, k) for k in slot):
                return True
        return False

    stack = [((1 << len(pre)) - 1, iter(slots[0]))]
    while 0 < len(stack) <= len(todo):
        before, untried = stack[-1]
        depth = len(stack)  # vertices of todo colored once this entry picks
        for k in untried:
            counters["nodes"] += 1
            alive = before | 1 << k
            if _orderable_with(masks, budgets, before, k):
                if not doomed(alive, depth):
                    stack.append((alive, iter(slots[depth])))
                    break
                counters["backtracks"] += 1
        else:
            stack.pop()
            if stack:
                counters["backtracks"] += 1

    if stats is not None:
        stats.update(counters)
    if not stack:
        return None
    alive = stack[-1][0]
    result = dict(p for k, p in enumerate(pairs) if alive >> k & 1)
    pg = induced_pair_graph(g, h, f, result)
    witness = strictly_degenerate_order(pg)
    if witness is None:
        raise InternalInvariantViolated("search accepted an unorderable coloring")
    return result, witness


def _check_budget(g: SimpleGraph, h: Cover, f: Budget, total: int) -> None:
    """Raise BadBudget unless every budget value is at most 2 and every
    vertex's budget summed over its list is at least `total`."""
    if any(val > 2 for row in f._rows.values() for val in row.values()):
        raise BadBudget("budget values must be capped at 2")
    low = [v for v in g.vertices if sum(f.get(v, i) for i in h.list_of(v)) < total]
    if low:
        raise BadBudget(f"list-restricted budget total below {total} at {low}")


def _greedy_seed(g: SimpleGraph, h: Cover, f: Budget) -> tuple[dict[int, int], Order]:
    """Greedy coloring for the trivial 1- and 2-vertex cases."""
    partial: dict[int, int] = {}
    order: Order = ()
    for v in g.vertices:
        partial, order = greedy_extend(g, h, f, partial, order, v)
    return partial, order


def solve_planar_dpg52(pg: PlaneGraph, h: Cover, f: Budget) -> tuple[dict[int, int], Order]:
    """Color a plane graph whose budgets total >= 5 per vertex with cap 2.

    The instance is guaranteed colorable; the solver triangulates bounded
    faces (added edges carry empty matchings, so the pair graph is
    unchanged), precolors the lexicographically smallest outer edge and
    extends the precoloring step by step.  Output always passes verification.
    """
    g = pg.graph
    _check_budget(g, h, f, 5)
    if f.s < h.s:
        # Fan steps rename colors by bijections of the cover's 1..s; colors
        # the budget does not index carry 0, so widen it to the cover's s.
        f = Budget._trusted(h.s, f.cap, f._rows)
    if not g.is_connected():
        raise BadBudget("graph must be connected")
    if g.n <= 2:
        result, order = _greedy_seed(g, h, f)
        return result, order
    tpg = triangulate_interior(pg)  # validates the outer cycle, 2-connectivity, embedding

    # Precolor the lexicographically smallest outer edge (v1, vp): walk the
    # outer cycle from its least vertex v1 towards its larger neighbour, so
    # that the walk ends at vp.
    outer = tpg.outer
    k = outer.index(min(outer))
    walk = outer[k:] + outer[:k]
    if walk[1] < walk[-1]:
        walk = walk[:1] + walk[:0:-1]
    tpg = tpg.with_outer(walk)
    v1, vp = walk[0], walk[-1]
    a = min(i for i in sorted(h.list_of(v1)) if f.get(v1, i) >= 1)
    res_p = residual_at(g, h, f, {v1: a}, vp)
    b = min(i for i in sorted(res_p) if i in h.list_of(vp))
    # Fan steps relabel the cover through its index of matched edges by
    # endpoint, built on first use; a copy sharing the input's tables keeps
    # that index, so the caller's cover is left as it was.
    result, order = _extend(tpg, Cover._trusted(h.s, h.lists, h._matchings), f,
                            ((v1, a), (vp, b)))

    if not order_is_valid(induced_pair_graph(g, h, f, result), order):
        raise InternalInvariantViolated("planar construction produced an invalid order")
    return result, order


def _extend(pg: PlaneGraph, h: Cover, f: Budget,
            pre: tuple[tuple[int, int], tuple[int, int]]) -> tuple[dict[int, int], Order]:
    """Solve a near-triangulation whose outer cycle starts and ends with the
    two precolored vertices; the returned order keeps the precolored pairs
    first.

    Each step of the construction is a frame (`_step`) that yields the
    sub-instances it needs solved and receives their solutions.  The frames
    wait on an explicit work stack, so the Python stack stays flat however
    deep the construction goes.
    """
    stack = [_step(pg, h, f, pre)]
    solved = None
    while stack:
        try:
            sub = stack[-1].send(solved)
        except StopIteration as done:
            stack.pop()
            solved = done.value
        else:
            stack.append(_step(*sub))
            solved = None
    return solved


def _step(pg: PlaneGraph, h: Cover, f: Budget,
          pre: tuple[tuple[int, int], tuple[int, int]]):
    """One frame of `_extend`: a base triangle, a chord split or a fan step.

    A split frame solves piece 1, orients piece 2 by the order of the chord
    ends in piece 1's witness and solves it, re-orders piece 2 so that the
    chord pairs head it, and concatenates.  A fan frame solves the instance
    without the pivot v2 and reinserts v2.  Each frame returns a valid order
    of its own piece under its own cover and budget, and checks only what it
    built itself; its children have checked the rest.

    A split frame builds piece 2's pair graph once.  It checks that piece
    2's coloring keeps the chord ends' colors from piece 1, re-orders piece
    2 on that pair graph (`eliminate_with_prefix`), and checks the new
    order on the same pair graph (`_split_valid`, which gives why piece 2
    alone decides the union).  A fan frame renames colors around v2 with
    `Cover.relabel`, which rebuilds only the matchings at the renamed
    vertices, and after reinserting v2 counts earlier matched neighbours
    over v2's closed neighbourhood only (`_reinsertion_valid`).
    """
    (v1, a), (vp, b) = pre
    g = pg.graph
    outer = pg.outer

    if g.n == 3:
        v2 = next(v for v in outer if v not in (v1, vp))
        try:
            return greedy_extend(g, h, f, {v1: a, vp: b}, (pre[0], pre[1]), v2)
        except NoColorAvailable as exc:
            raise InternalInvariantViolated(f"base case failed: {exc}") from exc

    chord = find_chord(pg)
    if chord is not None:
        # The solver splits only near-triangulations it built itself from the
        # validated input, so the split needs no embedding or cycle check.
        i, j = chord
        pg1, pg2 = _split(pg, chord)
        r1, s1 = yield pg1, h, f, pre
        # Piece 2's outer walk runs from vi to vj; it must start with
        # whichever of the two comes first in s1.
        first, second = vi, vj = outer[i], outer[j]
        if next(v for v, _ in s1 if v == vi or v == vj) == vj:
            first, second = vj, vi
            pg2 = pg2.with_outer(pg2.outer[::-1])
        head = ((first, r1[first]), (second, r1[second]))
        r2, _ = yield pg2, h, f, head
        pairs = induced_pair_graph(pg2.graph, h, f, r2)
        if any(r2[v] != c for v, c in head):  # a child moved a chord end's color
            raise InternalInvariantViolated(_SPLIT_FAILED)
        s2p = eliminate_with_prefix(pairs, head)
        if s2p is None:
            raise InternalInvariantViolated("shared chord pair cannot head the order")
        if not _split_valid(pairs, r2, s2p, head):
            raise InternalInvariantViolated(_SPLIT_FAILED)
        return {**r1, **r2}, s1 + s2p[2:]

    # Chordless outer cycle: delete the second outer vertex, lower budgets
    # along its fan, solve the rest, and reinsert its pair.
    p = len(outer)
    v2, v3 = outer[1], outer[2]
    fan = fan_neighbors(pg, v2)
    if fan[0] != v1 or fan[-1] != v3:
        raise InternalInvariantViolated("fan does not run from v1 to v3")
    U = fan[1:-1]

    res2 = {i: val for i, val in residual_at(g, h, f, {v1: a, vp: b}, v2).items()
            if i in h.list_of(v2)}
    if not res2:
        raise InternalInvariantViolated("fan pivot has no residual color")
    best = max(res2.values())
    cstar = min(i for i, val in res2.items() if val == best)
    case21 = (p == 3) or (best >= 2)
    swap = {cstar: 1}
    if not case21:
        others = sorted(i for i, val in res2.items() if i != cstar)
        if not others:
            raise InternalInvariantViolated("fan pivot lacks a second residual color")
        swap[others[0]] = 2
    sigma = complete_permutation(swap, h.s)

    # Rename each fan neighbor's fiber so its matching with v2 pairs equal
    # color indices; v1 and vp keep their labels unless they sit on the fan.
    perms = {v2: sigma}
    for u in list(U) + [v3]:
        aligned = {cu: sigma[c2] for (c2, cu) in h.matching(v2, u)}
        perms[u] = complete_permutation(aligned, h.s)
    h2 = h.relabel(perms)
    f2 = f.relabel(perms)
    b2 = perms[vp][b] if vp in perms else b
    pre2 = ((v1, a), (vp, b2))

    updates: dict[tuple[int, int], int] = {}
    if case21:
        for u in U:
            updates[(u, 1)] = 0
    else:
        for u in U:
            updates[(u, 1)] = max(0, f2.get(u, 1) - 1)
            updates[(u, 2)] = max(0, f2.get(u, 2) - 1)
    f_adj = f2.assign(updates)

    new_outer = (v1,) + tuple(U) + outer[2:]
    r_sub, s_sub = yield delete_vertex(pg, v2, new_outer), h2, f_adj, pre2
    if s_sub[0] != pre2[0] or s_sub[1] != pre2[1]:
        raise InternalInvariantViolated("recursive order lost its precolored prefix")

    t = 1 if case21 or r_sub.get(v3) != 1 else 2
    if case21 and p > 3:
        order2 = s_sub + ((v2, t),)
    else:
        order2 = s_sub[:2] + ((v2, t),) + s_sub[2:]
    r_full = dict(r_sub)
    r_full[v2] = t

    if not _reinsertion_valid(g, h2, f2, r_full, order2, v2):
        raise InternalInvariantViolated(
            f"reinserting the fan pivot broke the order (p={p}, case21={case21})")
    inv = invert_permutations(perms)
    return relabel_coloring(r_full, inv), relabel_order(order2, inv)


def _reinsertion_valid(g: SimpleGraph, h: Cover, f: Budget, r: Coloring,
                       order: Order, v: int) -> bool:
    """The definition check order_is_valid(induced_pair_graph(g, h, f, r),
    order) after v's pair was inserted into a valid order of the rest.

    Precondition: order lists r's pairs, and without (v, r(v)) it is a valid
    order of G - v under a budget that differs from f only at neighbours
    of v.  A pair away from N[v] then has the same earlier matched
    neighbours and the same budget as there, so only v's color and the
    pairs of N[v] need counting: each must have fewer earlier matched
    neighbours than its budget.  Costs one position map plus O(sum of the
    degrees over N[v]).
    """
    if r[v] not in h.list_of(v):
        return False
    pos = {u: k for k, (u, _) in enumerate(order)}
    adj, matched = g.adj, h.matched
    for x in (v, *adj[v]):
        cx, kx = r[x], pos[x]
        earlier = sum(1 for w in adj[x] if pos[w] < kx and matched(x, cx, w, r[w]))
        if earlier >= f.get(x, cx):
            return False
    return True


def _split_valid(pairs: PairGraph, r: Coloring, order: Order, head: Order) -> bool:
    """Whether s1 + order[2:] is a valid order of the union of a chord
    split's two pieces, given piece 2's coloring r, its pair graph `pairs`
    and its order.

    Precondition: s1 is a valid order of piece 1 whose chord-end pairs are
    `head`, and `pairs` is induced_pair_graph of piece 2 under r.  Piece 2's
    inner vertices have no neighbour outside piece 2 (the cut argument in
    `planar`), the pieces share only the chord, and in s1 + order[2:] every
    inner vertex of piece 2 comes after all of s1.  So each inner pair has
    the same earlier matched neighbours there as in `order`, and each pair
    of piece 1 the same as in s1.  The union order is therefore valid iff
    `order` starts with the two pairs of `head`, lists exactly r's pairs (so
    r agrees with piece 1 at the chord ends and has no key outside piece 2)
    and is a valid order of piece 2: the definition check on `pairs`, which
    costs O(|piece 2| + its edges) and reads no matching.
    """
    return (set(order[:2]) == set(head) and len(r) == pairs.n
            and order_is_valid(pairs, order))


def extend_precolored_triangle(pg: PlaneGraph, h: Cover, f: Budget,
                               c0: Coloring,
                               limit: int = DEFAULT_EXACT_LIMIT) -> tuple[dict[int, int], Order]:
    """Extend a precolored triangle in a graph without pairwise adjacent
    3-, 4- and 5-cycles, budgets totalling >= 4 with cap 2.

    Delegates to the exact solver; by the family guarantee an extension
    exists, so an absent answer raises TheoremViolation.
    """
    g = pg.graph
    faces(pg)  # the family claim is about plane graphs; validate the embedding
    if not check_family(g, FamilyA()):
        raise NotInFamily("graph has pairwise adjacent 3-, 4- and 5-cycles")
    dom = sorted(c0)
    if len(dom) != 3 or not all(g.has_edge(u, v) for u in dom for v in dom if u < v):
        raise InvalidPrecoloring("precolored domain is not a 3-cycle")
    _check_budget(g, h, f, 4)
    _check_precoloring(g, h, f, c0)
    res = solve_exact(g, h, f, precolored=c0, limit=limit)
    if res is None:
        raise TheoremViolation(
            "a guaranteed-extendable triangle precoloring found no extension")
    return res
