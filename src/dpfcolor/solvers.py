"""Solvers: exhaustive exact search and the constructive planar recursion.

solve_exact enumerates representative sets in a fixed vertex order and
prunes any partial set whose induced pair graph is already unorderable;
that prune is sound because restricting a valid order to an induced
sub-pair-graph keeps it valid.  It builds one bitmask pair graph over all
candidate pairs per call, so a partial set is a single int of pair bits,
and it backtracks on an explicit stack instead of recursing.  Each stack
entry carries the partial set's residual counters as bit planes, so a
node never rescans the uncolored vertices' candidates.

solve_planar_dpg52 realizes the constructive argument that planar graphs
are colorable whenever every vertex has budget total at least 5 with
values capped at 2: triangulate the interior, precolor one outer edge,
then repeatedly split on outer-cycle chords or delete the second outer
vertex and lower the budgets along its fan.  The steps of that recursion
wait on an explicit work stack, so its depth costs heap, not Python stack.
The solve copies the caller's tables once, and each frame owns its piece
and edits it in place: it cuts off a whole run of bare triangles and
takes every fan step on its own tables, and yields only at a chord split,
whose pieces its children own.  The split edits the frame's tables into
the larger piece and builds only the smaller one fresh, and no piece's
graph holds a vertex tuple until something reads it (`_OwnedGraph`): a
split frame builds piece 2's, from the copy of piece 2's adjacency it
keeps for piece 2's pair graph.  A fan step renames colors in the solve's
one table of names, not in the cover, and lowers budgets in its one
budget table; it replaces only the fan neighbours' rows, the name rows
read off their matchings with the pivot.  A chord split builds piece 2's
pair graph once and both orders and checks piece 2 on it.  When a
frame's split or base case returns, it unwinds its run: it reinserts its
fan pivots and colors its cut vertices, last step first.  The precolored
outer edge (or the whole of a graph of at most 2 vertices), the base case
and the cut vertices are colored by the one greedy placement,
`coloring._color_greedily`, which the configuration extension shares.
So every step reads the caller's cover and a budget in input colors, and
returns input colors: nothing is copied to be renamed or translated back.
Only a step whose whole witness order something reads builds it: the
root, and piece 1 of such a step.  The steps inside a piece 2 return
colorings alone, since its split re-orders and checks the whole of piece
2 on piece 2's pair graph.  A split there that asks which chord end comes
first in its piece 1 hands piece 1 the chord ends as a watched pair:
piece 1 returns an order in which only its watched pairs stand as in its
whole order, and re-orders a piece 2 of its own only where a watched pair
lies inside it.
"""

from __future__ import annotations

from itertools import chain

from .coloring import (
    _check_precoloring,
    _color_greedily,
    combine_colorings,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
    greedy_extend,  # noqa: F401  unused here; kept because perfbench/tracing.py probes it
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
    NotInFamily,
    NotTwoConnected,
    TheoremViolation,
)
from .graphs import SimpleGraph, _OwnedGraph
from .planar import (
    PlaneGraph,
    _chord_from,
    _cut_run,
    _drop,
    _split,
    delete_vertex,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
    faces,
    fan_neighbors,
    find_chord,  # noqa: F401  unused here; kept because perfbench/tracing.py wraps it
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
    every candidate pair (v, c), c in v's list with f(v, c) >= 1, in search
    order, each with one bit, its budget and the int mask of the pairs its
    edges' matchings link it to.  The set-up costs one pass over g's
    vertices, which numbers the pairs, and one over g's edges, which reads
    each edge's matching dict once and ORs a precomputed bit into both ends
    of each link; the watched slots below then take at most one popcount
    per pair.  It walks g, never the cover's whole matching table: a cover
    may span a larger graph than g, with vertices outside g and matchings
    on non-edges of g, and the set-up still costs only what g and its
    candidates cost.

    A partial coloring is the int `alive` of its pairs' bits.  Each
    orderability test adds one pair to a set already found orderable (the
    precoloring is checked first), so it stops as soon as the added pair
    is removable, and it eliminates only inside that pair's connected
    component (`_orderable_with`).

    The zero-residual test reads saturating counters kept beside `alive`:
    bit k of planes[t] is set when pair k has at least t + 1 matched
    neighbours in `alive`, so adding a pair updates every counter with one
    AND and one OR per plane.  Only the vertices whose every candidate can
    reach zero residual (its budget is at most its mask's popcount) are
    watched, so there are as many planes as the largest budget among their
    candidates.  A node ANDs each plane with the watched pairs of its
    budget to get the mask of watched pairs at zero residual.  A watched
    vertex's candidates are a contiguous range of bits, so ANDing that mask
    with its own shifts, once per slot length, leaves set exactly the first
    bits of the slots wholly at zero residual, and only the uncolored
    vertices among those are probed: no slot is walked one by one.  The
    search runs on an explicit stack of (alive before this depth, its
    planes, iterator over the depth's untried candidates): undoing a
    choice is popping an entry, and the depth costs no Python stack.
    """
    if g.n > limit:
        raise LimitExceeded(f"{g.n} vertices exceed the exact-solver limit {limit}")
    if stats is not None:
        stats.update(nodes=0, backtracks=0)

    pre = dict(precolored) if precolored else {}
    if pre:
        unknown = sorted(set(pre) - set(g.vertices))
        if unknown:
            raise InvalidPrecoloring(f"precolored vertices {unknown} not in the graph")
        _check_precoloring(g, h, f, pre)

    rows, lists, adj = f._rows, h.lists, g.adj  # budget rows hold only values >= 1
    todo = sorted([v for v in g.vertices if v not in pre], key=lambda v: (-len(adj[v]), v))

    # The pair graph; at[v] maps v's colors to their pair indices, slots[d]
    # holds the indices of todo[d]'s candidates (none: no coloring), and
    # the empty slot past the last vertex, starting past every pair, marks
    # a complete coloring.
    pairs = [(v, pre[v]) for v in sorted(pre)]
    budgets = [rows[v][c] for v, c in pairs]
    at = {v: {c: k} for k, (v, c) in enumerate(pairs)}
    slots = []
    for v in todo:
        row, here, first = rows.get(v, {}), {}, len(pairs)
        at[v] = here
        for c in sorted(row.keys() & lists.get(v, ())):
            here[c] = len(pairs)
            pairs.append((v, c))
            budgets.append(row[c])
        if len(pairs) == first:
            return None
        slots.append(range(first, len(pairs)))
    slots.append(range(len(pairs), len(pairs)))
    bit, masks = [1 << k for k in range(len(pairs))], [0] * len(pairs)
    matchings = h._matchings
    for v, here in at.items():
        for w in adj[v]:
            if w > v and (m := matchings.get((v, w))):
                there = at[w]
                for c, d in m.items():
                    if (i := here.get(c)) is not None and (j := there.get(d)) is not None:
                        masks[i] |= bit[j]
                        masks[j] |= bit[i]

    # The watched slots: below[t] holds their pairs of budget t + 1, and
    # starts lists (length, first bits of the watched slots of that
    # length) by ascending length.
    below, firsts = [], {}
    for slot in slots[:-1]:
        for k in slot:
            if budgets[k] > masks[k].bit_count():
                break
        else:  # every candidate can reach zero residual
            firsts[len(slot)] = firsts.get(len(slot), 0) | bit[slot.start]
            for k in slot:
                b = budgets[k]
                if b > len(below):
                    below += [0] * (b - len(below))
                below[b - 1] |= bit[k]
    starts = sorted(firsts.items())

    def add(planes: list[int], mask: int) -> list[int]:
        # Each neighbour in `mask` gains one: plane t takes the pairs that
        # were in plane t - 1 (plane -1 holds every pair).
        return [p | q & mask for p, q in zip(planes, [-1, *planes])]

    def doomed(alive: int, planes: list[int], depth: int) -> bool:
        # A vertex with zero residual everywhere (each of its candidate
        # pairs has at least its budget of matched colored neighbours) must
        # still admit some candidate pair that keeps the pair graph orderable.
        zero = 0  # watched pairs at zero residual
        for b, p in zip(below, planes):
            zero |= b & p
        if not zero:
            return False
        # run holds the pairs whose next `length` bits are all in `zero`;
        # a slot is wholly at zero residual when its first bit is in the
        # run of its length.  Slots of colored vertices lie below `lo`.
        run, length, lo = zero, 1, slots[depth].start
        for size, first in starts:
            while length < size:
                run &= zero >> length
                length += 1
            hits = (run & first) >> lo
            while hits:
                low = hits & -hits
                i = lo + low.bit_length() - 1
                if not any(_orderable_with(masks, budgets, alive, k)
                           for k in range(i, i + size)):
                    return True
                hits ^= low
        return False

    planes = [0] * len(below)
    for k in range(len(pre)):
        planes = add(planes, masks[k])
    nodes = backtracks = 0
    stack = [((1 << len(pre)) - 1, planes, iter(slots[0]))]
    while 0 < len(stack) <= len(todo):
        before, planes, untried = stack[-1]
        depth = len(stack)  # vertices of todo colored once this entry picks
        for k in untried:
            nodes += 1
            if _orderable_with(masks, budgets, before, k):
                alive, grown = before | 1 << k, add(planes, masks[k])
                if not doomed(alive, grown, depth):
                    stack.append((alive, grown, iter(slots[depth])))
                    break
                backtracks += 1
        else:
            stack.pop()
            if stack:
                backtracks += 1

    if stats is not None:
        stats.update(nodes=nodes, backtracks=backtracks)
    if not stack:
        return None
    alive, result = stack[-1][0], {}
    while alive:  # one step per colored vertex, in pair order
        v, c = pairs[(alive & -alive).bit_length() - 1]
        result[v], alive = c, alive & (alive - 1)
    pg = induced_pair_graph(g, h, f, result)
    witness = strictly_degenerate_order(pg)
    if witness is None:
        raise InternalInvariantViolated("search accepted an unorderable coloring")
    return result, witness


def _check_budget(g: SimpleGraph, h: Cover, f: Budget, total: int) -> None:
    """Raise BadBudget unless every budget value is at most 2 and every
    vertex's budget summed over its list is at least `total`.

    The cap is one `max` over every row's values at C level.  A row whose
    colors all lie in the vertex's list, the usual case, sums its values
    at C level too; only another row filters its colors one by one."""
    rows, lists, empty = f._rows, h.lists, frozenset()  # budget rows hold only values >= 1
    if max(chain.from_iterable(map(dict.values, rows.values())), default=0) > 2:
        raise BadBudget("budget values must be capped at 2")
    low = [v for v in g.vertices if total > (
        sum(row.values()) if (row := rows.get(v, {})).keys() <= (lst := lists.get(v, empty))
        else sum(val for i, val in row.items() if i in lst))]
    if low:
        raise BadBudget(f"list-restricted budget total below {total} at {low}")


def solve_planar_dpg52(pg: PlaneGraph, h: Cover, f: Budget) -> tuple[dict[int, int], Order]:
    """Color a plane graph whose budgets total >= 5 per vertex with cap 2.

    The instance is guaranteed colorable; the solver triangulates bounded
    faces, precolors the lexicographically smallest outer edge and extends
    the precoloring step by step.  The output depends only on the graph,
    the cover's matchings on its edges and the budget.  A cover may match
    colors on any vertex pair, but the chords `triangulate_interior` adds
    read no matching: when it adds chords and some matching lies off the
    input's edges, the solve runs on a copy of the cover with only the
    matchings on the input's edges, built once.  Dropping a matching only
    removes pair-graph edges, and the theorem holds on the triangulation
    with empty chords.  Output always passes verification.

    Connectivity is searched once: up front for n <= 2, and otherwise only
    after `triangulate_interior` rejects the input, to report a
    disconnected graph as such.
    """
    g = pg.graph
    _check_budget(g, h, f, 5)
    if g.n <= 2 and g.is_connected():
        # Cannot fail: a vertex has 3 colors of positive budget, a neighbour hits 1.
        r = {}
        return r, _color_greedily(g, h, f, r, g.vertices, {})
    try:
        tpg = triangulate_interior(pg)  # validates the outer cycle, (2-)connectivity, embedding
    except NotTwoConnected:
        if not g.is_connected():
            raise NotTwoConnected("graph must be connected") from None
        raise
    if tpg is not pg and not all(w in g.adj.get(u, ()) for u, w in h._matchings):
        # Some matching lies off g's edges, maybe on a chord, which reads none.
        h = Cover._trusted(h.s, h.lists, {(u, w): m for (u, w), m in h._matchings.items()
                                          if w in g.adj.get(u, ())})

    # Precolor the lexicographically smallest outer edge (v1, vp), greedily:
    # walk the outer cycle from its least vertex v1 towards its larger
    # neighbour, so that the walk ends at vp.
    outer = tpg.outer
    k = outer.index(min(outer))
    walk = outer[k:] + outer[:k]
    if walk[1] < walk[-1]:
        walk = walk[:1] + walk[:0:-1]
    tpg = tpg.with_outer(walk)
    pre = _color_greedily(g, h, f, {}, (walk[0], walk[-1]), {})
    result, order = _extend(tpg, h, f, pre)

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
    deep the construction goes.  The frames edit their tables in place, so
    pg's two dicts and f's table of rows are copied here once, at C level,
    and pg, h and f stay as they are.
    """
    stack = [_step(PlaneGraph._trusted(_OwnedGraph(dict(pg.graph.adj)), dict(pg.rotation), pg.outer),
                   h, Budget._trusted(f.s, f.cap, dict(f._rows)), pre, {}, True)]
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
          pre: tuple[tuple[int, int], tuple[int, int]], names: dict[int, dict[int, int]],
          want: bool | tuple[tuple[int, int], ...]):
    """One frame of `_extend`: a run of bare-triangle cuts and fan steps on
    the frame's own piece, in place, then a base triangle or a chord split.

    The frame owns pg's adjacency and rotation dicts and edits them in
    place, on an outer walk it keeps as a list; no other frame reads them.
    At a chord split it hands them on, and `_split` edits them into the
    larger piece, so the child that solves that piece owns them next.
    pg's graph reads its vertex tuple off the adjacency dict on demand
    (`_OwnedGraph`), so it is never stale and the frame builds none.
    f's table of rows and the name table `names` are the solve's own, one
    of each, and every frame edits them in place: a fan step replaces the
    rows of its pivot's neighbours, and no other vertex's.  A vertex's
    budget row is lowered at most once, while it is inner: the fan step
    puts it on the outer walk, and a vertex on the outer walk stays on the
    walk of every piece that holds it.  A frame yields only at a chord
    split.  When the split or the base case returns, the frame unwinds its
    run last step first: it reinserts each fan pivot and colors each
    stretch of cut vertices, as a frame per step would.

    Most chords cut off a bare triangle vi x vj, where x = outer[i + 1] has
    no other neighbour, and such a chord is never split on.  While the first
    chord is one, the frame deletes x in place (`_cut_run`, which rebuilds
    the hub vi's rows and the walk once per run) and resumes the chord
    scan at i.  A cut vertex is colored when the frame unwinds, last cut
    first, by `_color_greedily`, the base case's greedy placement, and its
    pair is appended to the order with no pair graph: its only neighbours
    at its cut are vi and vj, which the order already holds, and the
    vertices cut before it are colored after it, so its earlier matched
    neighbours are the ones the greedy rule discounts on its row at the
    cut.  Its rows stay as they were at the cut, since only the piece's
    vertices are edited after.

    A fan step deletes the second outer vertex v2 in place, puts its inner
    neighbours U on the walk, renames U's and v3's colors in the name table
    and lowers U's budget rows (`_fan_colors`).  The walk had no chord, so
    every chord now has an end in U, and the scan looks only at positions
    0..|U|.  On the way back it gives v2 a color by name and, if the frame
    wants its whole order, counts earlier matched neighbours over v2's closed
    neighbourhood only (`_reinsertion_valid`), on the rows of N[v2] kept at
    the step (`_neighbourhood`).  `names` maps a vertex to {input color:
    name}; a vertex it lacks, or maps to None, names each color by itself.
    Every choice the construction makes by the lowest color reads the
    lowest name, so each step chooses as it would on a cover renamed by
    the table.

    A split frame solves piece 1, orients piece 2 by the order of the chord
    ends in piece 1's witness and solves it, re-orders piece 2 so that the
    chord pairs head it, and concatenates.  The pieces share only the chord
    ends, whose rows piece 1 leaves as piece 2 reads them: their budget
    rows stay, since they lie on the outer walk, and a name row piece 1
    renames is never read in piece 2, where they are precolored.  A step
    reads a precolored vertex's name row only as v3 of a fan step on a
    triangle, which is case 2.1, where the pivot takes its color named 1
    whatever v3's row says.  When piece 1 is the triangle v1 w vp, the
    frame colors w right after the precolored pair and deletes the degree-2
    end of the outer walk in place: what is left is piece 2, which the
    usual split check covers.  Each frame returns its
    piece's coloring in input colors and, if it wants its whole order, a
    valid order of its piece under the input cover and its own budget; it
    checks only what it built itself, and its children have checked the
    rest.

    `want` says what the caller reads of the returned order, and has three
    values.  True: the whole order, which the root reads, and so does a
    frame that wants True of its piece 1.  False: nothing, which is what
    piece 2 gets, since its split frame re-orders the whole of piece 2.  A
    tuple of watched pairs (x, y): only which vertex of each pair comes
    first.  A split frame whose `want` is not True hands piece 1 its
    watched pairs with both vertices in piece 1 and, if it must ask which
    chord end comes first, the chord ends (vi, vj); the precolored pair
    heads every order, so the answer is fixed when a chord end is v1 or vp.
    An empty tuple reads nothing, as False does.

    A frame that wants no order returns (coloring, None).  A frame that
    watches pairs returns an order that starts with its precolored pair,
    in which each watched pair's two vertices stand as in the whole order;
    the other pairs stand in the coloring's order, which starts with the
    precolored pair too.  Each watched pair stays exact: every pair of s1
    comes before every inner pair of piece 2, the run's vertices are
    placed by the same unwinding as in the whole order, a pair inside piece
    1 is passed down, and a pair with both vertices inside piece 2, neither
    a chord end, makes the frame re-order piece 2 as a frame that wants
    True does.  Only there does a frame whose `want` is not True build a
    pair graph and run `_split_valid`, and it never runs
    `_reinsertion_valid`; every frame checks that piece 2 keeps the chord
    ends' colors.  Such a frame's coloring is checked above it: the nearest
    frame above that wants True is a split frame whose piece 2 holds this
    frame's piece, and it re-orders and checks all of piece 2 on piece 2's
    pair graph under its own budget.  The final check in
    `solve_planar_dpg52` covers the whole input.  A split frame that
    re-orders piece 2 builds piece 2's pair graph once, on piece 2 as it
    was at the split: before it yields piece 2, whose frames edit it, it
    copies piece 2's adjacency dict, with the vertex tuple the pair graph
    numbers its pairs by, and keeps the budget rows of piece 2's inner
    vertices, the only ones those frames lower (`_inner_rows`), and it
    puts them back in the table when piece 2 returns.  It checks that
    piece 2's coloring keeps the chord ends' colors from piece 1, re-orders
    piece 2 on that pair graph (`eliminate_with_prefix`), and checks the
    new order on the same pair graph (`_split_valid`, which gives why piece
    2 alone decides the union).

    A suspended frame keeps its locals alive, so a frame lets go of its
    tables before it yields, and keeps of its run only the cut vertices'
    rows and, if it wants True, N[v2]'s rows for each fan step.  While
    piece 1 is solved it holds only piece 2, and while piece 2 is solved
    only what its pair graph reads, if it re-orders piece 2.  No
    comprehension here reads a local: that would make the local a cell,
    which every frame allocates, split frames included; `_watched` reads
    the watched pairs instead.
    """
    (v1, _), (vp, _) = pre
    g, rotation, outer = pg.graph, pg.rotation, list(pg.outer)
    adj, on_outer = g.adj, set(outer)
    steps = []  # stretches of cut vertices (their rows) and fan steps, in order
    chord = None if len(adj) == 3 else _chord_from(adj, outer, on_outer, 0)
    while len(adj) > 3:
        if chord is None:
            # Chordless outer cycle: delete the second outer vertex and lower
            # budgets along its fan; its pair is reinserted on the way back.
            p = len(outer)
            v2, v3 = outer[1], outer[2]
            fan = fan_neighbors(PlaneGraph._trusted(g, rotation, outer), v2)
            if fan[0] != v1 or fan[-1] != v3:
                raise InternalInvariantViolated("fan does not run from v1 to v3")
            U = fan[1:-1]
            seen = _neighbourhood(adj, f, v2) if want is True else None
            steps.append((v2, v3, p, seen, *_fan_colors(g, h, f, pre, names, v2, U, v3, p)))
            _drop(adj, rotation, v2)
            outer[1:2] = U
            on_outer.discard(v2)
            on_outer.update(U)
            chord = _chord_from(adj, outer, on_outer, 0, len(U) + 1)
        elif chord[1] == chord[0] + 2 and len(adj[outer[chord[0] + 1]]) == 2:  # a bare triangle
            if not steps or type(steps[-1]) is not dict:
                steps.append({})
            _cut_run(adj, rotation, outer, on_outer, chord[0], steps[-1])
            chord = _chord_from(adj, outer, on_outer, chord[0])
        else:
            break

    if len(adj) == 3:  # the base case: outer[1] is adjacent to both precolored vertices
        r = dict(pre)
        order = pre + _color_greedily(g, h, f, r, (outer[1],), names)
    else:
        # The solver splits only near-triangulations it built itself from the
        # validated input, so the split needs no embedding or cycle check.
        i, j = chord
        p = len(outer)
        vi, vj = outer[i], outer[j]
        # Which chord end comes first in piece 1's order is a question only
        # when neither is v1 or vp, which head every order.
        ask = vi != v1 and vj != vp
        # Piece 1 is the bare triangle v1 w vp when the chord cuts off an end
        # of the outer walk that has no other neighbour.
        ear = (p - 1 if chord == (0, p - 2) and len(adj[vp]) == 2 else
               0 if chord == (1, p - 1) and len(adj[v1]) == 2 else None)
        if ear is not None:
            r1 = dict(pre)
            s1 = pre + _color_greedily(g, h, f, r1, (vj if i == 0 else vi,), names)
            _drop(adj, rotation, outer.pop(ear))
        pieces = [PlaneGraph._trusted(g, rotation, tuple(outer))]
        del pg, g, adj, rotation, outer, on_outer
        if ear is None:
            # Piece 1 waits in a list that the yield empties, so that no name
            # of this frame keeps it alive while it is solved.
            pieces = list(_split(pieces.pop(), chord))
            watch = want is True or _watched(want, pieces[0].graph.adj, ()) + ((vi, vj),) * ask
            r1, s1 = yield pieces.pop(0), h, f, pre, names, watch
        pg2 = pieces.pop()
        # Piece 2's outer walk runs from vi to vj; it must start with
        # whichever of the two comes first in s1.
        first, second = vi, vj
        v = vi if vi == v1 else vj
        if ask:
            for v, _ in s1:
                if v == vi or v == vj:
                    break
        if v == vj:
            first, second = vj, vi
            pg2 = pg2.with_outer(pg2.outer[::-1])
        head = ((first, r1[first]), (second, r1[second]))
        rest = [(pg2, h, f, head, names, False)]
        exact = want is True or _watched(want, pg2.graph.adj, (vi, vj))
        if exact:  # piece 2's frames edit its tables and lower its inner rows
            g2 = SimpleGraph._trusted(pg2.graph.vertices, dict(pg2.graph.adj))
            inner = _inner_rows(f, g2.vertices, pg2.outer)
        del pg2
        r2, _ = yield rest.pop()
        if r2[first] != r1[first] or r2[second] != r1[second]:  # a child moved a chord end
            raise InternalInvariantViolated(_SPLIT_FAILED)
        r, order = {**r1, **r2}, None
        if exact:
            f._rows.update(inner)
            pairs = induced_pair_graph(g2, h, f, r2)
            s2p = eliminate_with_prefix(pairs, head)
            if s2p is None:
                raise InternalInvariantViolated("shared chord pair cannot head the order")
            if not _split_valid(pairs, r2, s2p, head):
                raise InternalInvariantViolated(_SPLIT_FAILED)
        if want:  # unwatched pairs in the colorings' order, which starts with their pre
            order = (s1 or tuple(r1.items())) + (s2p if exact else tuple(r2.items()))[2:]

    for step in reversed(steps):
        if type(step) is dict:  # cut vertices, last cut first
            colored = _color_greedily(_OwnedGraph(step), h, f, r, reversed(step), names)
            order = order + colored if want else None
            continue
        v2, v3, p, seen, case21, one, two, one3 = step
        r[v2] = t = one if case21 or r.get(v3) != one3 else two
        if want:
            if order[0] != pre[0] or order[1] != pre[1]:
                raise InternalInvariantViolated("recursive order lost its precolored prefix")
            order = (order + ((v2, t),) if case21 and p > 3 else
                     order[:2] + ((v2, t),) + order[2:])
        if want is True and not _reinsertion_valid(seen[0], h, seen[1], r, order, v2):
            raise InternalInvariantViolated(
                f"reinserting the fan pivot broke the order (p={p}, case21={case21})")
    return r, order if want else None


def _watched(want: bool | tuple[tuple[int, int], ...], adj: dict, ends: tuple[int, ...]
             ) -> tuple[tuple[int, int], ...]:
    """The watched pairs of `want` (none unless it is a tuple) whose two
    vertices are in adj and not in ends."""
    return tuple((x, y) for x, y in want or () if x in adj and y in adj and {x, y}.isdisjoint(ends))


def _neighbourhood(adj: dict[int, frozenset[int]], f: Budget, v: int
                   ) -> tuple[dict[int, frozenset[int]], dict[int, dict[int, int]]]:
    """The adjacency and budget rows of N[v] before a fan step deletes its
    pivot v, which `_reinsertion_valid` reads when v is reinserted."""
    around, rows = (v, *adj[v]), f._rows
    return {x: adj[x] for x in around}, {x: rows.get(x, {}) for x in around}


def _inner_rows(f: Budget, vertices: tuple[int, ...], outer: tuple[int, ...]
                ) -> dict[int, dict[int, int]]:
    """f's rows of the vertices off the outer walk: the only rows the frames
    of a piece with these vertices and this walk lower."""
    rows = f._rows
    return {v: rows[v] for v in set(vertices).difference(outer) if v in rows}


def _fan_colors(g: SimpleGraph, h: Cover, f: Budget,
                pre: tuple[tuple[int, int], tuple[int, int]],
                names: dict[int, dict[int, int]], v2: int, U: tuple[int, ...], v3: int,
                p: int) -> tuple[bool, int, int | None, int]:
    """Rename and lower, in place, for a fan step whose pivot is v2, its fan
    neighbours U and v3, on an outer cycle of length p.

    The construction names colors so that v2's best residual color is 1 (in
    case 2.2 its next one is 2) and each fan neighbour's color matched to
    v2's color named k is named k too.  `names` maps v -> {input color:
    name}; a vertex it lacks names each color by itself.  Every choice
    reads names where a renamed cover would read labels: ties go to the
    lowest name, as on that cover.

    Replaces the name rows of U and v3 and lowers U's budget rows in f's
    table (`_fan_budget`: U's positive entries at the colors named 1, and
    in case 2.2 also 2).  Returns whether the step is case 2.1, v2's colors
    now named 1 and 2 (the second None in case 2.1) and v3's color now
    named 1.  Each fan neighbour's row is read straight off its edge's
    matching dict (`_name_row`): only the colors left unmatched pay for a
    completion.
    """
    s = h.s
    at2 = names.get(v2) or {i: i for i in range(1, s + 1)}
    res2 = {i: val for i, val in residual_at(g, h, f, dict(pre), v2).items()
            if i in h.list_of(v2)}
    if not res2:
        raise InternalInvariantViolated("fan pivot has no residual color")
    best = max(res2.values())
    cstar = min((i for i, val in res2.items() if val == best), key=at2.get)
    case21 = (p == 3) or (best >= 2)
    second = None
    if not case21:
        others = [i for i in res2 if i != cstar]
        if not others:
            raise InternalInvariantViolated("fan pivot lacks a second residual color")
        second = min(others, key=at2.get)
    at2 = _name_row({cstar: 1} if case21 else {cstar: 1, second: 2}, names.get(v2), s)

    # Rename each fan neighbour's fiber so that its matching with v2 pairs
    # equal names; v1 and vp keep theirs unless they sit on the fan.
    for u in (*U, v3):
        names[u] = _name_row({cu: at2[c2] for c2, cu in h._pairs(v2, u)}, names.get(u), s)
    _fan_budget(f, U, names, case21)
    return case21, cstar, second, next(i for i, k in names[v3].items() if k == 1)


def _name_row(row: dict[int, int], at: dict[int, int] | None, s: int) -> dict[int, int]:
    """A vertex's row of a fan step's name table, given `row`, the new names
    of some of its colors, and `at`, its old row (None: each color names
    itself).  The other colors, by old name, take the unused names in
    ascending order.

    `row` must be injective.  v2's best residual colors take 1 and 2, and a
    fan neighbour's colors matched to v2 take v2's new names of their
    partners, which a matching and v2's row keep injective.  The result is
    the old row composed with the completion of the map from old names to
    new ones (`covers.complete_permutation`), built without that map: only
    a row with fewer than s named colors pays for a sort.
    """
    if len(row) < s:
        used = set(row.values())
        row.update(zip(sorted((i for i in range(1, s + 1) if i not in row),
                              key=at.get if at else None),
                       [k for k in range(1, s + 1) if k not in used]))
    return row


def _fan_budget(f: Budget, U: tuple[int, ...], names: dict[int, dict[int, int]],
                case21: bool) -> None:
    """Lower a fan step's budget in f's table, in place, given the renamed
    name table: drop each entry of U named 1 in case 2.1, and lower each
    named 1 or 2 by one in case 2.2.  An entry that reaches 0 is dropped.
    Only U's rows are replaced, unchecked: lowering keeps every value in
    1..cap.

    Every u in U has a row, and it never ends empty: `_check_budget` gives
    every vertex a list-restricted total of at least 5, and a fan step
    lowers a vertex's row once, when the vertex leaves the interior for
    the outer walk, by at most 2 in all.
    """
    lowered, cut = ((1,), 2) if case21 else ((1, 2), 1)  # values are at most 2
    rows = f._rows
    for u in U:
        at = names[u]
        rows[u] = {i: left for i, val in rows[u].items()
                   if (left := val - cut if at.get(i) in lowered else val) > 0}


def _reinsertion_valid(adj: dict[int, frozenset[int]], h: Cover,
                       rows: dict[int, dict[int, int]], r: Coloring, order: Order,
                       v: int) -> bool:
    """The definition check order_is_valid(induced_pair_graph(g, h, f, r),
    order) after v's pair was inserted into a valid order of the rest, on
    the adjacency rows `adj` and budget rows `rows` of v's closed
    neighbourhood N[v] in g and f.

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
    matched = h.matched
    for x in (v, *adj[v]):
        cx, kx = r[x], pos[x]
        earlier = sum(1 for w in adj[x] if pos[w] < kx and matched(x, cx, w, r[w]))
        if earlier >= rows[x].get(cx, 0):
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
    exists, so an absent answer raises TheoremViolation.  The solver
    verifies c0 itself, so c0 is verified here only when the solver would
    stop at its vertex limit first: an invalid precoloring is reported as
    such either way, and verified once.
    """
    g = pg.graph
    faces(pg)  # the family claim is about plane graphs; validate the embedding
    if not check_family(g, FamilyA()):
        raise NotInFamily("graph has pairwise adjacent 3-, 4- and 5-cycles")
    dom = sorted(c0)
    if len(dom) != 3 or not all(g.has_edge(u, v) for u in dom for v in dom if u < v):
        raise InvalidPrecoloring("precolored domain is not a 3-cycle")
    _check_budget(g, h, f, 4)
    if g.n > limit:
        _check_precoloring(g, h, f, c0)
    res = solve_exact(g, h, f, precolored=c0, limit=limit)
    if res is None:
        raise TheoremViolation(
            "a guaranteed-extendable triangle precoloring found no extension")
    return res
