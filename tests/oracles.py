"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the package: order existence is decided
by exhaustive search over orderings, coloring existence by enumerating all
representative sets, and forests by direct cycle detection.  The
exceptions are earlier forms of library code, kept as references for what
the current code must return:

- `scan_eliminate`, the elimination loop in its plain quadratic form;
- `bitmask_orderable`, the whole elimination on a bitmask pair graph,
  which `degeneracy._orderable_with` must answer as;
- `reference_solve_exact`, the exact search that rescans every uncolored
  vertex's candidates at every node to find one with zero residual
  everywhere, and tests each added pair by the whole elimination
  `bitmask_orderable`, so it shares no orderability code with the search
  it checks;
- `flood_split_on_chord` and `flood_find_separating_triangle`, which find
  the sides of a cycle by flooding faces and build their pieces through
  the validating constructors;
- `side`, the search of one side of a cycle that `planar._split` used
  before it searched both sides in lockstep; `side_split`, that old split
  (one side searched, both pieces built by `planar._piece`); and
  `side_find_separating_triangle`, which searches one side of every
  triangle instead of reading the face trace;
- `composed_name_row`, a fan step's new name row as the old row composed
  with the completed map of renamed names (`covers.complete_permutation`);
- `sorted_induced_pair_graph`, which builds the pair graph from the sorted
  edge list through `PairGraph.__init__`;
- `three_check_combine_colorings`, which checks the first coloring, the
  residual one and the union separately;
- `side_trace_faces`, the face trace that keeps a successor and a seen
  set keyed by dart tuples, which `planar.trace_faces` must walk as;
- `canonical_faces`, which finds the outer face by comparing the minimal
  rotation or reflection of every walk of `side_trace_faces`;
- `two_pass_triangulate_checks`, the input checks of
  `triangulate_interior` in their old order: the outer walk, then the
  lowpoint DFS, then the embedding;
- `scan_find_chord`, which tries every pair of outer positions;
- `relabel_extend_over_configuration`, the configuration extension on
  relabeled copies of the cover and budgets, translated back through
  `invert_permutations`, `relabel_coloring` and `relabel_order`;
- `whole_graph_reinsertion_check`, which checks a fan step's reinsertion
  on the pair graph of the whole piece;
- `token_read_graph`, `token_parse_cover`, `token_parse_budget` and
  `token_parse_coloring`, the parsers that read lines through a generator
  and convert every token by its own checked call.
- `reference_enumerate_cycles` and `reference_no_cycle_lengths`, the
  cycle walk that filters directions inside it and the family check that
  lists every cycle before it reads one;
- `listing_check_family`, the `NoAdj34` and `FamilyA` checks that list
  every cycle of length <= 4 or 5 and test every pair of a triangle and a
  4-cycle (and every 5-cycle with such a pair) for shared edges;
- `reference_configuration_conditions`, the configuration conditions with
  condition (iii) checked against the set of every vertex outside K;
- `sample_gen_planar_triangulation`, `sample_gen_random_cover` and
  `sample_gen_random_budget`, the seeded generators written on
  `random.Random`'s `randrange`, `sample` and `choice` (the budget's
  choice among the colors still below cap, sorted again before every
  draw), which the generators' own draws from `getrandbits` must match.

Besides the oracles, it holds the shapes the tests solve (`grid`, `wheel`,
`drawn_shape` and the rest), the graphs the cycle-family tests check
(`windmill`, `pendant_grid`), and `input_tables`, which copies every table
of an input so that a test can tell whether a call changed it.  `polygon`,
`windmill` and `pendant_grid` are the scaling ladder's builders
(`bench/builders.py`), bound to the package.
"""

from __future__ import annotations

import random
import sys
from functools import partial
from itertools import permutations, product

import builders  # bench/builders.py, which conftest.py puts on the path
import dpfcolor
from dpfcolor import (
    Budget,
    Cover,
    NoAdj34,
    PairGraph,
    PlaneGraph,
    SimpleGraph,
    enumerate_cycles,
    gen_planar_triangulation,
    triangulate_interior,
)
from dpfcolor.coloring import _check_precoloring, induced_pair_graph
from dpfcolor.degeneracy import strictly_degenerate_order
from dpfcolor.errors import (
    InfeasibleParameters,
    InternalInvariantViolated,
    InvalidPrecoloring,
    LimitExceeded,
    ParseError,
)
from dpfcolor.solvers import DEFAULT_EXACT_LIMIT


def pair_graph_bits(pg: PairGraph) -> tuple[list[int], list[int]]:
    masks = [0] * pg.n
    for i, nbrs in enumerate(pg.adj):
        for j in nbrs:
            masks[i] |= 1 << j
    return masks, list(pg.budgets)


def order_exists_by_permutations(pg: PairGraph) -> bool:
    """Pure brute force over every ordering (small n only)."""
    assert pg.n <= 7, "permutation brute force capped at 7 elements"
    masks, budgets = pair_graph_bits(pg)
    for perm in permutations(range(pg.n)):
        placed = 0
        for i in perm:
            if (masks[i] & placed).bit_count() >= budgets[i]:
                break
            placed |= 1 << i
        else:
            return True
    return False


def order_exists_by_prefix_search(masks: list[int], budgets: list[int]) -> bool:
    """Complete prefix-extension search with memoized dead prefixes."""
    n = len(masks)
    full = (1 << n) - 1
    dead: set[int] = set()

    def rec(placed: int) -> bool:
        if placed == full:
            return True
        if placed in dead:
            return False
        for i in range(n):
            if not placed >> i & 1 and (masks[i] & placed).bit_count() < budgets[i]:
                if rec(placed | (1 << i)):
                    return True
        dead.add(placed)
        return False

    return rec(0)


def bitmask_orderable(masks: list[int], budgets: list[int], alive: int) -> bool:
    """Greedy elimination on a bitmask pair graph restricted to `alive`;
    True iff fully reducible."""
    while alive:
        progressed = False
        m = alive
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if (masks[i] & alive).bit_count() < budgets[i]:
                alive ^= 1 << i
                progressed = True
        if not progressed:
            return False
    return True


def prefix_order_exists_by_permutations(pg: PairGraph, prefix_idx: set[int]) -> bool:
    """Brute force over orderings whose first block is the prefix set."""
    assert pg.n <= 7
    masks, budgets = pair_graph_bits(pg)
    rest = [i for i in range(pg.n) if i not in prefix_idx]
    for head in permutations(sorted(prefix_idx)):
        for tail in permutations(rest):
            placed = 0
            for i in head + tail:
                if (masks[i] & placed).bit_count() >= budgets[i]:
                    break
                placed |= 1 << i
            else:
                return True
    return False


def scan_eliminate(pg: PairGraph, rng: random.Random | None = None,
                   prefix: frozenset[int] = frozenset()):
    """Reference reverse elimination that rescans every live element per step.

    The library's ready-queue kernel must return the same order: the lowest
    removable element (or `rng.choice` of the sorted removable ones), with
    non-prefix elements taken while any remain.  None when stuck.
    """
    alive = set(range(pg.n))
    deg = [len(a) for a in pg.adj]
    removed: list[int] = []
    while alive:
        pool = alive - prefix if prefix and len(alive) > len(prefix) else alive
        candidates = sorted(i for i in pool if deg[i] < pg.budgets[i])
        if not candidates:
            return None
        i = candidates[0] if rng is None else rng.choice(candidates)
        alive.discard(i)
        for j in pg.adj[i]:
            if j in alive:
                deg[j] -= 1
        removed.append(i)
    return tuple(pg.pairs[i] for i in reversed(removed))


def representative_sets(g: SimpleGraph, h: Cover):
    verts = list(g.vertices)
    lists = [sorted(h.list_of(v)) for v in verts]
    for combo in product(*lists):
        yield dict(zip(verts, combo))


def coloring_exists_by_enumeration(g: SimpleGraph, h: Cover, f: Budget,
                                   precolored: dict | None = None) -> bool:
    """Enumerate every representative set; check each by complete order search."""
    if any(not h.list_of(v) for v in g.vertices):
        return False
    for r in representative_sets(g, h):
        if precolored and any(r[v] != c for v, c in precolored.items()):
            continue
        verts = list(g.vertices)
        idx = {v: i for i, v in enumerate(verts)}
        masks = [0] * len(verts)
        for (u, v) in g.edge_list():
            if h.matched(u, r[u], v, r[v]):
                masks[idx[u]] |= 1 << idx[v]
                masks[idx[v]] |= 1 << idx[u]
        budgets = [f.get(v, r[v]) for v in verts]
        if order_exists_by_prefix_search(masks, budgets):
            return True
    return False


def reference_solve_exact(g: SimpleGraph, h: Cover, f: Budget,
                          precolored: dict | None = None,
                          limit: int = DEFAULT_EXACT_LIMIT,
                          stats: dict | None = None):
    """`solve_exact` as it was when `doomed` rescanned every uncolored
    vertex's candidates at every node, and the pair graph was built from
    `g.edges`, `Cover.matching` and `Budget.get`, with every orderability
    test a whole elimination of the partial set plus the tried pair
    (`bitmask_orderable`).  The library's search must return the same
    coloring, order and `stats`."""
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
                    bitmask_orderable(masks, budgets, alive | 1 << k) for k in slot):
                return True
        return False

    stack = [((1 << len(pre)) - 1, iter(slots[0]))]
    while 0 < len(stack) <= len(todo):
        before, untried = stack[-1]
        depth = len(stack)  # vertices of todo colored once this entry picks
        for k in untried:
            counters["nodes"] += 1
            alive = before | 1 << k
            if bitmask_orderable(masks, budgets, alive):
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


def is_forest(g: SimpleGraph, subset) -> bool:
    sub = g.induced(subset)
    seen: set[int] = set()
    for root in sub.vertices:
        if root in seen:
            continue
        stack = [(root, None)]
        seen.add(root)
        while stack:
            v, parent = stack.pop()
            for w in sub.adj[v]:
                if w == parent:
                    continue
                if w in seen:
                    return False
                seen.add(w)
                stack.append((w, v))
    return True


def list_coloring_exists(g: SimpleGraph, lists: dict) -> bool:
    verts = list(g.vertices)
    for combo in product(*[sorted(lists[v]) for v in verts]):
        r = dict(zip(verts, combo))
        if all(r[u] != r[v] for u, v in g.edge_list()):
            return True
    return False


def forested_coloring_exists(g: SimpleGraph, lists: dict) -> bool:
    verts = list(g.vertices)
    for combo in product(*[sorted(lists[v]) for v in verts]):
        r = dict(zip(verts, combo))
        classes: dict[int, set[int]] = {}
        for v, c in r.items():
            classes.setdefault(c, set()).add(v)
        if all(is_forest(g, members) for members in classes.values()):
            return True
    return False


def random_graph(n: int, p: float, rng: random.Random) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph(n, edges)


# The builders the scaling ladder shares, bound to this package.
polygon = partial(builders.polygon, dpfcolor)
windmill = partial(builders.windmill, dpfcolor)
pendant_grid = partial(builders.pendant_grid, dpfcolor)


def wheel(p: int) -> PlaneGraph:
    edges = [(i, (i + 1) % p) for i in range(p)] + [(i, p) for i in range(p)]
    g = SimpleGraph(p + 1, edges)
    rot = {i: ((i - 1) % p, p, (i + 1) % p) for i in range(p)}
    rot[p] = tuple(reversed(range(p)))
    return PlaneGraph(g, rot, tuple(range(p)))


def grid(k: int, seed: int | None = None) -> PlaneGraph:
    """k x k grid, every bounded face a quadrilateral.

    Vertex (i, j) is i*k + j drawn at (j, -i); with a seed the labels are
    shuffled so that lowest-label tie-breaks land in different places.
    """
    perm = list(range(k * k))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    rotation = {}
    edges = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            # Clockwise: left, up, right, down.
            nbrs = [(i, j - 1), (i - 1, j), (i, j + 1), (i + 1, j)]
            rotation[perm[v]] = tuple(perm[a * k + b] for a, b in nbrs
                                      if 0 <= a < k and 0 <= b < k)
            if j + 1 < k:
                edges.append((perm[v], perm[v + 1]))
            if i + 1 < k:
                edges.append((perm[v], perm[v + k]))
    outer = ([j for j in range(k)] + [i * k + k - 1 for i in range(1, k)]
             + [(k - 1) * k + j for j in range(k - 2, -1, -1)]
             + [i * k for i in range(k - 2, 0, -1)])
    return PlaneGraph(SimpleGraph(k * k, edges), rotation, tuple(perm[v] for v in outer))


def thin_triangulation(pg: PlaneGraph, rng: random.Random) -> PlaneGraph:
    """Remove a random set of interior edges, skipping any whose removal
    would leave the graph without 2-connectivity."""
    from dpfcolor.planar import is_two_connected

    outer_edges = {(min(a, b), max(a, b))
                   for a, b in zip(pg.outer, pg.outer[1:] + pg.outer[:1])}
    removable = [e for e in sorted(pg.graph.edges) if e not in outer_edges]
    rng.shuffle(removable)
    for key in removable[: rng.randint(0, len(removable))]:
        g = SimpleGraph.on_vertices(pg.graph.vertices, pg.graph.edges - {key})
        if is_two_connected(g):
            rot = {w: tuple(x for x in pg.rotation[w] if not (w in key and x in key))
                   for w in g.vertices}
            pg = PlaneGraph(g, rot, pg.outer)
    return pg


def triangulated_polygon(p: int, rng: random.Random) -> PlaneGraph:
    """Convex p-gon with a random triangulation of its interior."""
    edges = {(min(i, (i + 1) % p), max(i, (i + 1) % p)) for i in range(p)}
    stack = [list(range(p))]
    while stack:
        poly = stack.pop()
        if len(poly) < 4:
            continue
        t = rng.randrange(1, len(poly) - 1)
        for u, v in ((poly[0], poly[t]), (poly[t], poly[-1])):
            edges.add((min(u, v), max(u, v)))
        stack += [poly[:t + 1], poly[t:]]
    g = SimpleGraph(p, edges)
    # Clockwise at i in the drawing: i-1 first, then ever smaller labels, i+1 last.
    rot = {i: tuple(sorted(g.adj[i], key=lambda w: (i - w) % p)) for i in range(p)}
    return PlaneGraph(g, rot, tuple(range(p)))


def glued_triangulations(n1: int, n2: int, seed: int) -> PlaneGraph:
    """Two stacked triangulations sharing one vertex, the second drawn in a
    face corner of the first; the outer face is the longest face walk,
    which passes the shared vertex twice."""
    rng = random.Random(seed)
    t1 = gen_planar_triangulation(n1, seed)
    t2 = gen_planar_triangulation(n2, seed + 1)
    x1, x2 = rng.randrange(n1), rng.randrange(n2)
    label = {x2: x1}
    label.update((v, n1 + k) for k, v in enumerate(v for v in t2.graph.vertices if v != x2))
    rotation = dict(t1.rotation)
    rotation.update((label[v], tuple(label[w] for w in rot)) for v, rot in t2.rotation.items())
    r1, r2 = t1.rotation[x1], rotation[x1]
    k1, k2 = rng.randrange(len(r1)), rng.randrange(len(r2))
    rotation[x1] = r1[k1:] + r1[:k1] + r2[k2:] + r2[:k2]
    edges = list(t1.graph.edges) + [(label[u], label[v]) for u, v in t2.graph.edges]
    pg = PlaneGraph(SimpleGraph(n1 + n2 - 1, edges), rotation, ())
    return pg.with_outer(max(side_trace_faces(pg), key=len))


def drawn_shape(kind: str, seed: int) -> PlaneGraph:
    """A plane graph of 4 to 30 vertices of one kind, from a seed: a stacked
    triangulation ("stacked"), one with some edges removed ("thin"), a
    random triangulated polygon ("fanned"), two glued triangulations
    ("glued") or a triangulated grid ("grid")."""
    rng = random.Random(seed)
    n = rng.randint(4, 30)
    return {"stacked": lambda: gen_planar_triangulation(n, seed),
            "thin": lambda: thin_triangulation(gen_planar_triangulation(n, seed), rng),
            "fanned": lambda: triangulated_polygon(n, rng),
            "glued": lambda: glued_triangulations(n // 2 + 2, n // 3 + 2, seed),
            "grid": lambda: triangulate_interior(grid(2 + n // 8, seed=seed))}[kind]()


def input_tables(pg: PlaneGraph, h: Cover, f: Budget):
    """Copies of every table of a plane graph, a cover and a budget, rows
    included, with the rows of each dict in its key order."""
    return ([(v, set(row)) for v, row in pg.graph.adj.items()], pg.graph.vertices,
            list(pg.rotation.items()), pg.outer, [(v, set(cs)) for v, cs in h.lists.items()],
            [(e, dict(m)) for e, m in h._matchings.items()],
            [(v, dict(row)) for v, row in f._rows.items()])


def _face_edges(walk):
    return (tuple(sorted((walk[t], walk[(t + 1) % len(walk)]))) for t in range(len(walk)))


def _edge_faces(fs):
    """Indices of the faces on each side of every edge."""
    edge_faces = {}
    for idx, walk in enumerate(fs.faces):
        for key in _face_edges(walk):
            edge_faces.setdefault(key, []).append(idx)
    return edge_faces


def _region_vertices(fs, edge_faces, start_face, blocked):
    """Flood faces from start_face without crossing a blocked edge.

    Returns (face indices reached, vertices on those faces).
    """
    reached = {start_face}
    stack = [start_face]
    while stack:
        for key in _face_edges(fs.faces[stack.pop()]):
            if key in blocked:
                continue
            for j in edge_faces[key]:
                if j not in reached:
                    reached.add(j)
                    stack.append(j)
    verts = set()
    for idx in reached:
        verts.update(fs.faces[idx])
    return reached, verts


def _flood_restrict(pg: PlaneGraph, keep: set, outer) -> PlaneGraph:
    graph = SimpleGraph.on_vertices(keep, [e for e in pg.graph.edges
                                           if e[0] in keep and e[1] in keep])
    return PlaneGraph(graph, {v: tuple(u for u in pg.rotation[v] if u in keep)
                              for v in graph.vertices}, outer)


def flood_split_on_chord(pg: PlaneGraph, chord):
    """`split_on_chord` by its two bounded chord faces and two face floods."""
    from dpfcolor.errors import NotAChord
    from dpfcolor.planar import faces

    outer = pg.outer
    p = len(outer)
    i, j = chord
    if not (0 <= i < j < p) or j - i < 2 or (i == 0 and j == p - 1):
        raise NotAChord(f"positions {chord} do not name a chord")
    a, b = outer[i], outer[j]
    if not pg.graph.has_edge(a, b):
        raise NotAChord(f"({a},{b}) is not an edge")
    fs = faces(pg)
    f_ab = f_ba = None
    for idx, w in enumerate(fs.faces):
        if idx == fs.outer_index:
            continue
        for t in range(len(w)):
            if w[t] == a and w[(t + 1) % len(w)] == b:
                f_ab = idx
            if w[t] == b and w[(t + 1) % len(w)] == a:
                f_ba = idx
    if f_ab is None or f_ba is None or f_ab == f_ba:
        raise NotAChord(f"({a},{b}) does not separate two bounded regions")
    # Blocking the outer cycle keeps both floods off the outer face.
    edge_faces = _edge_faces(fs)
    blocked = {tuple(sorted((a, b)))} | set(_face_edges(fs.outer))
    reached_ab, verts_ab = _region_vertices(fs, edge_faces, f_ab, blocked)
    _, verts_ba = _region_vertices(fs, edge_faces, f_ba, blocked)
    if f_ba in reached_ab:
        raise NotAChord(f"({a},{b}) does not separate two bounded regions")
    side2, side1 = (verts_ab, verts_ba) if outer[i + 1] in verts_ab else (verts_ba, verts_ab)
    return (_flood_restrict(pg, side1, outer[:i + 1] + outer[j:]),
            _flood_restrict(pg, side2, outer[i:j + 1]))


def flood_find_separating_triangle(pg: PlaneGraph):
    """`find_separating_triangle` by one face flood from the outer face per triangle."""
    from dpfcolor.planar import faces

    g = pg.graph
    fs = faces(pg)
    triangles = sorted((u, v, w) for u, v in g.edge_list()
                       for w in sorted(g.adj[u] & g.adj[v]) if w > v)
    edge_faces = _edge_faces(fs)
    for (u, v, w) in triangles:
        reached, outside_verts = _region_vertices(fs, edge_faces, fs.outer_index,
                                                  {(u, v), (v, w), (u, w)})
        inside_verts = {x for idx, walk in enumerate(fs.faces) if idx not in reached
                        for x in walk}
        corners = {u, v, w}
        if (inside_verts - corners) and (outside_verts - corners):
            return (u, v, w)
    return None


def side_find_separating_triangle(pg: PlaneGraph):
    """`find_separating_triangle` by a search of one side of every triangle:
    it separates when that side and the rest both hold a vertex."""
    from dpfcolor.planar import faces

    g = pg.graph
    faces(pg)  # side() holds only for a valid embedding
    triangles = sorted((u, v, w) for u, v in g.edge_list()
                       for w in sorted(g.adj[u] & g.adj[v]) if w > v)
    for tri in triangles:
        inside = side(pg, tri)
        if inside and len(inside) < g.n - 3:
            return tri
    return None


def side(pg: PlaneGraph, cycle: tuple[int, ...]) -> set[int]:
    """Vertices strictly on one side of a simple cycle of the embedding.

    At each cycle vertex x, with predecessor p and successor q, the
    neighbours strictly clockwise after p and before q, off the cycle,
    leave it on the same side (left of the cycle's direction).  The cycle
    is a closed curve that no edge crosses, so one search of G - cycle from
    those seeds reaches exactly that side.
    """
    on_cycle = set(cycle)
    inside: set[int] = set()
    for p, x, q in zip(cycle[-1:] + cycle[:-1], cycle, cycle[1:] + cycle[:1]):
        rot = pg.rotation[x]
        k = rot.index(p)
        turn = rot[k + 1:] + rot[:k]
        inside.update(y for y in turn[:turn.index(q)] if y not in on_cycle)
    stack = list(inside)
    adj = pg.graph.adj
    while stack:
        for w in adj[stack.pop()]:
            if w not in on_cycle and w not in inside:
                inside.add(w)
                stack.append(w)
    return inside


def side_split(pg: PlaneGraph, chord):
    """The chord split as `planar._split` made it before its lockstep
    search: one search of sub-disk 2's side (`side`), whichever side is
    larger, and a fresh `_piece` for each sub-disk."""
    from dpfcolor.planar import _piece

    outer = pg.outer
    i, j = chord
    # Sub-disk 2 is bounded by outer[i..j] and the chord; outer[i - 1] lies
    # on the other arc, so it tells which side the search returned.
    arc2 = outer[i:j + 1]
    inside2 = side(pg, arc2)
    if outer[i - 1] in inside2:
        inside2 = set(pg.graph.vertices).difference(inside2, arc2)
    side2 = inside2.union(arc2)
    side1 = set(pg.graph.vertices).difference(inside2, outer[i + 1:j])
    ends = (outer[i], outer[j])
    return (_piece(pg, side1, outer[:i + 1] + outer[j:], ends),
            _piece(pg, side2, arc2, ends))


def composed_name_row(row, at, s: int) -> dict[int, int]:
    """A vertex's row of a fan step's name table: its old row `at` composed
    with the map that sends the old name of each color in `row` to that
    color's new name, completed to a bijection of 1..s."""
    from dpfcolor.covers import complete_permutation

    perm = complete_permutation({at[c]: k for c, k in row.items()}, s)
    return {i: perm[k] for i, k in at.items()}


def naive_cycle_lengths(g: SimpleGraph) -> set[int]:
    """All simple cycle lengths via uncapped recursive path search."""
    lengths: set[int] = set()
    verts = list(g.vertices)

    def dfs(start, path, used):
        last = path[-1]
        for nxt in g.adj[last]:
            if nxt == start and len(path) >= 3:
                lengths.add(len(path))
            if nxt <= start or nxt in used:
                continue
            dfs(start, path + [nxt], used | {nxt})

    for s in verts:
        dfs(s, [s], {s})
    return lengths


def reference_enumerate_cycles(g: SimpleGraph, max_len: int) -> dict[int, list[tuple[int, ...]]]:
    """`cycles.enumerate_cycles` before its walk became a generator: the
    direction filter sits in the walk, and every cycle is listed before any
    is read."""
    out: dict[int, list[tuple[int, ...]]] = {}
    if max_len < 3:
        return out
    for start in g.vertices:
        stack: list[tuple[tuple[int, ...], set[int]]] = [((start,), {start})]
        while stack:
            path, used = stack.pop()
            last = path[-1]
            for nxt in sorted(g.adj[last]):
                if nxt <= start:
                    if nxt == start and len(path) >= 3 and path[1] < path[-1]:
                        out.setdefault(len(path), []).append(path)
                    continue
                if nxt in used or len(path) == max_len:
                    continue
                stack.append((path + (nxt,), used | {nxt}))
    for length in out:
        out[length].sort()
    return out


def reference_no_cycle_lengths(g: SimpleGraph, lengths) -> bool:
    """The no-cycle-lengths check on every cycle `reference_enumerate_cycles`
    lists up to the longest forbidden length."""
    cs = reference_enumerate_cycles(g, max(lengths))
    return not any(cs.get(length) for length in lengths)


def cycle_edges(cycle: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    out = set()
    for t in range(len(cycle)):
        u, v = cycle[t], cycle[(t + 1) % len(cycle)]
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


def listing_check_family(g: SimpleGraph, spec) -> bool:
    """`check_family` on `NoAdj34` or `FamilyA` as it was before it read
    each edge's neighbourhoods: list every cycle up to length 4 or 5, then
    test every triangle against every 4-cycle (and 5-cycle) for shared
    edges."""
    if isinstance(spec, NoAdj34):
        cs = enumerate_cycles(g, 4)
        threes = [cycle_edges(c) for c in cs.get(3, [])]
        fours = [cycle_edges(c) for c in cs.get(4, [])]
        return not any(t & q for t in threes for q in fours)
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


def reference_configuration_conditions(g: SimpleGraph, k: int, K) -> bool:
    """`configurations.check_configuration_conditions` on a valid K (k >= 3,
    at least 3 distinct vertices of g) as it was written first: condition
    (iii) intersects each middle vertex's neighbors with the set of the
    vertices before it in K and every vertex outside K."""
    K = tuple(K)
    kset = set(K)
    v1, vm = K[0], K[-1]
    if k - (g.degree(v1) - len(g.adj[v1] & kset)) < 3:
        return False
    if g.degree(vm) > k:
        return False
    if g.adj[vm] & kset != {v1, K[-2]}:
        return False
    outside = set(g.vertices) - kset
    for idx in range(1, len(K) - 1):
        allowed = set(K[:idx]) | outside
        if len(g.adj[K[idx]] & allowed) > k - 1:
            return False
    return True


def fan_configuration_instance(seed: int, k: int):
    """Seeded (g, h, f, K, r0) passing the configuration conditions.

    Builds a cycle v1..vm with optional chords from v1 (never to vm), glues
    it onto a small random base graph with external edges kept inside the
    degree slack of each condition, then colors the base exhaustively.
    """
    import dpfcolor as d

    attempt = seed
    while True:
        rng = random.Random(10_000 * k + attempt)
        attempt += 50_000
        m = rng.randint(3, 7)
        n0 = rng.randint(2, 5)
        base = list(range(n0))
        K = list(range(n0, n0 + m))
        edges = [(u, v) for u in range(n0) for v in range(u + 1, n0)
                 if rng.random() < 0.4]
        for t in range(m - 1):
            edges.append((K[t], K[t + 1]))
        edges.append((K[0], K[-1]))
        earlier = {t: 1 for t in range(1, m - 1)}
        for t in range(2, m - 1):
            if rng.random() < 0.5:
                edges.append((K[0], K[t]))
                earlier[t] = 2
        # external edges within each condition's slack
        def externals(v, limit):
            count = rng.randint(0, max(0, limit))
            for x in rng.sample(base, min(count, n0)):
                edges.append((x, v))
        externals(K[0], k - 3)
        externals(K[-1], k - 2)
        for t in range(1, m - 1):
            externals(K[t], k - 1 - earlier[t])
        g = SimpleGraph(n0 + m, edges)
        s = rng.randint(max(3, (k + 1) // 2), 5)
        list_size = rng.randint((k + 1) // 2, s)
        try:
            from dpfcolor import gen_random_budget, gen_random_cover
            h = gen_random_cover(g, s, list_size, rng.choice([0.4, 0.7, 1.0]),
                                 seed=attempt + 1)
            f = gen_random_budget(g, s, k, 2, seed=attempt + 2, lists=h.lists)
        except Exception:
            continue
        if not d.check_configuration_conditions(g, f, k, K):
            continue
        res = d.solve_exact(g.induced(base), h, f)
        if res is None:
            continue
        return g, h, f, tuple(K), res[0]



def invert_permutations(perms):
    """The inverse of each vertex's renaming {color: new color}."""
    return {v: {d: c for c, d in p.items()} for v, p in perms.items()}


def relabel_coloring(coloring, perms):
    """A coloring with each renamed vertex's color renamed."""
    return {v: (perms[v][c] if v in perms else c) for v, c in coloring.items()}


def relabel_order(order, perms):
    """A witness order with each renamed vertex's color renamed."""
    return tuple((v, perms[v][c] if v in perms else c) for v, c in order)


def relabel_extend_over_configuration(g: SimpleGraph, h: Cover, f: Budget, k: int, K, r0):
    """`extend_over_configuration` as it was written on relabeled copies:
    it renames colors in copies of the cover, the budget and the residual
    budget, colors K on them and translates the coloring and the order
    back through the inverse renaming."""
    from dpfcolor.coloring import (
        _residuals,
        combine_colorings,
        greedy_extend,
        induced_pair_graph,
        verify_on_domain,
    )
    from dpfcolor.configurations import _reduce_to_two, check_configuration_conditions
    from dpfcolor.covers import complete_permutation
    from dpfcolor.degeneracy import order_is_valid
    from dpfcolor.errors import (
        InternalInvariantViolated,
        NoColorAvailable,
        PreconditionViolated,
    )
    K = tuple(K)
    if not check_configuration_conditions(g, f, k, K):
        raise PreconditionViolated("configuration conditions do not hold")
    if f.cap > 2:
        raise PreconditionViolated(f"budget cap {f.cap} exceeds 2")
    low = [v for v in g.vertices if f.total(v) < k]
    if low:
        raise PreconditionViolated(f"budget total below {k} at {low}")
    if set(r0) != set(g.vertices) - set(K):
        raise PreconditionViolated("r0 must color exactly the vertices outside K")
    s0 = verify_on_domain(g, h, f, r0)
    if s0 is None:
        raise PreconditionViolated("r0 fails verification on its domain")

    v1, vm, vm1 = K[0], K[-1], K[-2]
    f_star = _residuals(g, h, f, r0)

    # Residual vector of vm trimmed to total exactly 2 (lowest colors kept);
    # solving under the smaller vector is enough since raising budgets never
    # invalidates an order.
    bm = _reduce_to_two({i: f_star.get(vm, i) for i in f_star.support(vm)})

    # Align the fibers of v1 and v_{m-1} with vm's colors.
    pi1 = complete_permutation({c1: cm for cm, c1 in h.matching(vm, v1)}, h.s)
    pi2 = complete_permutation({c2: cm for cm, c2 in h.matching(vm, vm1)}, h.s)
    b1 = {pi1[i]: f_star.get(v1, i) for i in f_star.support(v1)}
    if sum(b1.values()) < 3:
        raise InternalInvariantViolated("residual of v1 dropped below 3")

    # Pick the color where v1 strictly out-budgets vm and rename it to 1.
    c = min(i for i in range(1, h.s + 1) if b1.get(i, 0) > bm.get(i, 0))
    case_two = bm.get(c, 0) >= 1
    swap = {c: 1}
    if case_two:
        c2 = min(i for i in bm if i != c)
        swap[c2] = 2
    tau = complete_permutation(swap, h.s)

    perms = {
        v1: {i: tau[pi1[i]] for i in pi1},
        vm1: {i: tau[pi2[i]] for i in pi2},
        vm: tau,
    }
    h2 = h.relabel(perms)
    f2 = f.relabel(perms)
    f_star2 = f_star.relabel(perms)

    # Replace vm's residual entries with the trimmed vector.
    updates = {(vm, i): 0 for i in f_star2.support(vm)}
    updates.update({(vm, tau[i]): val for i, val in bm.items()})
    fsub = f_star2.assign(updates)

    gk = g.induced(K)
    if fsub.get(v1, 1) < 1:
        raise InternalInvariantViolated("color 1 of v1 lost its residual")
    partial: dict[int, int] = {v1: 1}
    order = ((v1, 1),)
    try:
        for idx in range(1, len(K) - 1):
            partial, order = greedy_extend(gk, h2, fsub, partial, order, K[idx])
        if case_two:
            t = 2 if partial[vm1] != 2 else 1
            order = ((vm, t),) + order
            partial[vm] = t
        else:
            partial, order = greedy_extend(gk, h2, fsub, partial, order, vm)
    except NoColorAvailable as exc:
        raise InternalInvariantViolated(f"greedy step failed: {exc}") from exc
    if not order_is_valid(induced_pair_graph(gk, h2, fsub, partial), order):
        raise InternalInvariantViolated("constructed configuration order is invalid")

    union, full_order = combine_colorings(g, h2, f2, r0, s0, partial, order)
    inv = invert_permutations(perms)
    result = relabel_coloring(union, inv)
    result_order = relabel_order(full_order, inv)
    if not order_is_valid(induced_pair_graph(g, h, f, result), result_order):
        raise InternalInvariantViolated("final order failed the definition check")
    return result, result_order


def sorted_induced_pair_graph(g: SimpleGraph, h: Cover, f: Budget, r) -> PairGraph:
    """`induced_pair_graph` from the sorted edge list through `PairGraph.__init__`."""
    from dpfcolor.errors import ColorNotInList, PartialColoring

    missing = [v for v in g.vertices if v not in r]
    if missing:
        raise PartialColoring(f"vertices {missing} are uncolored")
    for v in g.vertices:
        if r[v] not in h.list_of(v):
            raise ColorNotInList(f"color {r[v]} not in list of vertex {v}")
    pairs = [(v, r[v]) for v in g.vertices]
    edges = [((u, r[u]), (v, r[v])) for (u, v) in g.edge_list()
             if h.matched(u, r[u], v, r[v])]
    budgets = {(v, r[v]): f.get(v, r[v]) for v in g.vertices}
    return PairGraph(pairs, edges, budgets)


def three_check_combine_colorings(g: SimpleGraph, h: Cover, f: Budget, r1, s1, r2, s2):
    """`combine_colorings` checking r1, the residual coloring and the union apart."""
    from dpfcolor.coloring import _residuals
    from dpfcolor.degeneracy import order_is_valid
    from dpfcolor.errors import DomainOverlap, InternalInvariantViolated, InvalidInput

    overlap = sorted(set(r1) & set(r2))
    if overlap:
        raise DomainOverlap(f"vertices {overlap} colored twice")
    if set(r1) | set(r2) != set(g.vertices):
        raise InvalidInput("combined domains do not cover the graph")
    pg1 = sorted_induced_pair_graph(g.induced(r1.keys()), h, f, r1)
    if not order_is_valid(pg1, s1):
        raise InvalidInput("first coloring's witness order is not valid")
    f_star = _residuals(g, h, f, r1)
    pg2 = sorted_induced_pair_graph(g.induced(r2.keys()), h, f_star, r2)
    if not order_is_valid(pg2, s2):
        raise InvalidInput("second coloring's witness is not valid under the residual budget")
    union = dict(r1)
    union.update(r2)
    order = s1 + s2
    if not order_is_valid(sorted_induced_pair_graph(g, h, f, union), order):
        raise InternalInvariantViolated("combined order failed the definition check")
    return union, order


def _canonical_cycle(seq):
    """Minimal representative over rotations and reflection."""
    if not seq:
        return seq
    return min(cand[k:] + cand[:k] for cand in (seq, tuple(reversed(seq)))
               for k in range(len(cand)))


def side_trace_faces(pg: PlaneGraph) -> list[tuple[int, ...]]:
    """`trace_faces` as a successor table and a set of walked darts, both
    keyed by dart tuples: the same walks, from the same starts, in the
    same order."""
    rotation = pg.rotation
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, rot in rotation.items():
        d = len(rot)
        for k, u in enumerate(rot):
            succ[(u, v)] = (v, rot[(k + 1) % d])
    walks = []
    seen: set[tuple[int, int]] = set()
    for dart in ((u, v) for u in sorted(rotation) for v in sorted(rotation[u])):
        if dart in seen:
            continue
        walk = []
        cur = dart
        while cur not in seen:
            seen.add(cur)
            walk.append(cur[0])
            cur = succ[cur]
        walks.append(tuple(walk))
    return walks


def canonical_faces(pg: PlaneGraph):
    """`faces`, matching the outer cycle by its canonical rotation."""
    from dpfcolor.errors import InvalidEmbedding
    from dpfcolor.planar import FaceSet

    if not pg.graph.is_connected():
        raise InvalidEmbedding("graph is not connected")
    if pg.n == 1 and pg.outer in ((), pg.graph.vertices):
        return FaceSet(((),), 0)
    walks = side_trace_faces(pg)
    if pg.n - pg.graph.m + len(walks) != 2:
        raise InvalidEmbedding(
            f"Euler check failed: {pg.n} - {pg.graph.m} + {len(walks)} != 2")
    target = _canonical_cycle(pg.outer)
    for i, w in enumerate(walks):
        if _canonical_cycle(w) == target:
            return FaceSet(tuple(walks), i)
    raise InvalidEmbedding("designated outer cycle is not a face")


def two_pass_triangulate_checks(pg: PlaneGraph) -> None:
    """Raise what `triangulate_interior` raises on pg, by its checks in the
    order they ran before it read 2-connectivity off the face trace: the
    outer walk is a simple cycle, the lowpoint DFS finds no cut vertex,
    and only then is the embedding checked (by `canonical_faces`)."""
    from dpfcolor.errors import NotTwoConnected
    from dpfcolor.planar import is_two_connected

    if len(set(pg.outer)) != len(pg.outer) or len(pg.outer) < 3:
        raise NotTwoConnected("outer face is not a simple cycle")
    if not is_two_connected(pg.graph):
        raise NotTwoConnected("triangulation needs a 2-connected plane graph")
    canonical_faces(pg)


def scan_find_chord(pg: PlaneGraph):
    """`find_chord` by trying every pair of outer positions in order."""
    outer = pg.outer
    p = len(outer)
    for i in range(p):
        for j in range(i + 2, p):
            if i == 0 and j == p - 1:
                continue
            if pg.graph.has_edge(outer[i], outer[j]):
                return (i, j)
    return None


def whole_graph_reinsertion_check(g: SimpleGraph, h: Cover, f: Budget, r, order) -> bool:
    """The fan step's reinsertion check as the definition check on the pair
    graph of the whole piece, pivot included."""
    from dpfcolor.coloring import induced_pair_graph
    from dpfcolor.degeneracy import order_is_valid

    return order_is_valid(induced_pair_graph(g, h, f, r), order)


def _token_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield no, toks


def _token_int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"{what} must be an integer, got {tok!r}") from None


def token_read_graph(text: str, plane: bool) -> tuple[SimpleGraph,
                                                     dict[int, tuple[int, ...]],
                                                     tuple[int, ...] | None]:
    """Graph, rotation lines and outer line of a graph or (with `plane`) plane graph file.

    Every edge line is checked here, so the graph is built unchecked; the
    rotations are left to `PlaneGraph`.
    """
    n = None
    seen: set[tuple[int, int]] = set()
    rotation: dict[int, tuple[int, ...]] = {}
    outer: tuple[int, ...] | None = None
    for no, toks in _token_lines(text):
        if toks[0] == "graph":
            if n is not None:
                raise ParseError(no, "duplicate graph header")
            if len(toks) != 2:
                raise ParseError(no, "expected: graph <n>")
            n = _token_int(toks[1], no, "vertex count")
            if n < 0:
                raise ParseError(no, "vertex count must be nonnegative")
            if n > sys.maxsize:
                raise ParseError(no, f"vertex count must be at most {sys.maxsize}")
        elif toks[0] == "edge":
            if n is None:
                raise ParseError(no, "edge before graph header")
            if len(toks) != 3:
                raise ParseError(no, "expected: edge <u> <v>")
            u = _token_int(toks[1], no, "endpoint")
            v = _token_int(toks[2], no, "endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"endpoint outside 0..{n - 1}")
            if u == v:
                raise ParseError(no, f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParseError(no, f"duplicate edge ({u},{v})")
            seen.add(key)
        elif plane and toks[0] == "rot":
            if len(toks) < 2:
                raise ParseError(no, "expected: rot <v> <neighbors...>")
            v = _token_int(toks[1], no, "vertex")
            if v in rotation:
                raise ParseError(no, f"duplicate rotation for {v}")
            rotation[v] = tuple(_token_int(t, no, "neighbor") for t in toks[2:])
        elif plane and toks[0] == "outer":
            if outer is not None:
                raise ParseError(no, "duplicate outer line")
            outer = tuple(_token_int(t, no, "vertex") for t in toks[1:])
        else:
            raise ParseError(no, f"unknown directive {toks[0]!r} in graph file")
    if n is None:
        raise ParseError(1, "missing graph header")
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in seen:
        adj[u].add(v)
        adj[v].add(u)
    g = SimpleGraph._trusted(tuple(range(n)), {v: frozenset(ns) for v, ns in adj.items()})
    return g, rotation, outer


def token_parse_cover(text: str) -> Cover:
    """Cover of a cover file; every line is checked once, here."""
    s = None
    lists: dict[int, frozenset[int]] = {}
    # Per edge (u, v): its matching as a map cu -> cv, and the colors of v used.
    matchings: dict[tuple[int, int], tuple[dict[int, int], set[int]]] = {}
    for no, toks in _token_lines(text):
        if toks[0] == "cover":
            if s is not None:
                raise ParseError(no, "duplicate cover header")
            if len(toks) != 2:
                raise ParseError(no, "expected: cover <s>")
            s = _token_int(toks[1], no, "color count")
            if s < 1:
                raise ParseError(no, "need at least one color")
        elif toks[0] == "list":
            if s is None:
                raise ParseError(no, "list before cover header")
            if len(toks) < 2:
                raise ParseError(no, "expected: list <v> <colors...>")
            v = _token_int(toks[1], no, "vertex")
            if v in lists:
                raise ParseError(no, f"duplicate list for {v}")
            colors = tuple(_token_int(t, no, "color") for t in toks[2:])
            if any(not 1 <= c <= s for c in colors):
                raise ParseError(no, f"color outside 1..{s}")
            cs = frozenset(colors)
            if len(cs) != len(colors):
                raise ParseError(no, "repeated color in list")
            lists[v] = cs
        elif toks[0] == "match":
            if s is None:
                raise ParseError(no, "match before cover header")
            if len(toks) != 5:
                raise ParseError(no, "expected: match <u> <v> <cu> <cv>")
            u = _token_int(toks[1], no, "vertex")
            v = _token_int(toks[2], no, "vertex")
            cu = _token_int(toks[3], no, "color")
            cv = _token_int(toks[4], no, "color")
            if u >= v:
                raise ParseError(no, "match lines need u < v")
            if u not in lists or v not in lists:
                raise ParseError(no, "match before both list lines")
            if cu not in lists[u]:
                raise ParseError(no, f"color {cu} not in list of {u}")
            if cv not in lists[v]:
                raise ParseError(no, f"color {cv} not in list of {v}")
            edge = matchings.get((u, v))
            if edge is None:
                edge = matchings[(u, v)] = ({}, set())
            pairs, used_v = edge
            if cu in pairs or cv in used_v:
                raise ParseError(no, f"matching on ({u},{v}) is not a partial bijection")
            pairs[cu] = cv
            used_v.add(cv)
        else:
            raise ParseError(no, f"unknown directive {toks[0]!r} in cover file")
    if s is None:
        raise ParseError(1, "missing cover header")
    return Cover._trusted(s, lists, {e: pairs for e, (pairs, _) in matchings.items()})


def token_parse_budget(text: str) -> Budget:
    """Budget of a budget file; every line is checked once, here."""
    s = cap = None
    values: dict[tuple[int, int], int] = {}
    by_vertex: dict[int, dict[int, int]] = {}
    zeros: set[tuple[int, int]] = set()  # keys given as 0, which `values` omits
    for no, toks in _token_lines(text):
        if toks[0] == "budget":
            if s is not None:
                raise ParseError(no, "duplicate budget header")
            if len(toks) != 3:
                raise ParseError(no, "expected: budget <s> <cap>")
            s = _token_int(toks[1], no, "color count")
            cap = _token_int(toks[2], no, "cap")
            if s < 1 or cap < 0:
                raise ParseError(no, "need s >= 1 and cap >= 0")
        elif toks[0] == "f":
            if s is None:
                raise ParseError(no, "f line before budget header")
            if len(toks) != 4:
                raise ParseError(no, "expected: f <v> <i> <val>")
            v = _token_int(toks[1], no, "vertex")
            i = _token_int(toks[2], no, "color")
            val = _token_int(toks[3], no, "value")
            if not 1 <= i <= s:
                raise ParseError(no, f"color outside 1..{s}")
            if not 0 <= val <= cap:
                raise ParseError(no, f"value outside 0..{cap}")
            key = (v, i)
            if key in values or key in zeros:
                raise ParseError(no, f"duplicate entry for ({v},{i})")
            if val:
                values[key] = val
                by_vertex.setdefault(v, {})[i] = val
            else:
                zeros.add(key)
        else:
            raise ParseError(no, f"unknown directive {toks[0]!r} in budget file")
    if s is None:
        raise ParseError(1, "missing budget header")
    return Budget._trusted(s, cap, by_vertex)


def token_parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for no, toks in _token_lines(text):
        if toks[0] != "color":
            raise ParseError(no, f"unknown directive {toks[0]!r} in coloring file")
        if len(toks) != 3:
            raise ParseError(no, "expected: color <v> <c>")
        v = _token_int(toks[1], no, "vertex")
        c = _token_int(toks[2], no, "color")
        if v in out:
            raise ParseError(no, f"vertex {v} colored twice")
        out[v] = c
    return out


def sample_gen_planar_triangulation(n: int, seed: int) -> PlaneGraph:
    if n < 3:
        raise InfeasibleParameters(f"need n >= 3, got {n}")
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    rotation: dict[int, list[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    outer = (0, 1, 2)
    bounded: list[tuple[int, int, int]] = [(0, 2, 1)]
    for x in range(3, n):
        idx = rng.randrange(len(bounded))
        a, b, c = bounded[idx]
        for u, v in ((a, x), (b, x), (c, x)):
            edges.add((u, v) if u < v else (v, u))
        for corner, pred in ((a, c), (b, a), (c, b)):
            rot = rotation[corner]
            rot.insert(rot.index(pred) + 1, x)
        rotation[x] = [a, c, b]
        bounded[idx:idx + 1] = [(a, b, x), (b, c, x), (c, a, x)]
    graph = SimpleGraph(n, edges)
    return PlaneGraph(graph, {v: tuple(r) for v, r in rotation.items()}, outer)


def sample_gen_random_cover(g: SimpleGraph, s: int, list_size: int, density: float,
                            seed: int) -> Cover:
    if list_size < 1 or list_size > s:
        raise InfeasibleParameters(f"list size {list_size} outside 1..{s}")
    if not 0.0 <= density <= 1.0:
        raise InfeasibleParameters(f"density {density} outside [0, 1]")
    rng = random.Random(seed)
    lists = {v: sorted(rng.sample(range(1, s + 1), list_size)) for v in g.vertices}
    size = round(density * list_size)
    matchings = {(u, v): dict(zip(rng.sample(lists[u], size), rng.sample(lists[v], size)))
                 for u, v in (g.edge_list() if size else ())}
    return Cover._trusted(s, {v: frozenset(cs) for v, cs in lists.items()}, matchings)


def sample_gen_random_budget(g: SimpleGraph, s: int, sum_min: int, cap: int, seed: int,
                             lists=None) -> Budget:
    rng = random.Random(seed)
    values = {}
    for v in g.vertices:
        support = sorted(lists.get(v, ())) if lists is not None else list(range(1, s + 1))
        if sum_min > cap * len(support):
            raise InfeasibleParameters(
                f"cannot reach total {sum_min} with cap {cap} over {len(support)} colors")
        vec = {i: 0 for i in support}
        for _ in range(sum_min):
            i = rng.choice(sorted(c for c in support if vec[c] < cap))
            vec[i] += 1
        for i, val in vec.items():
            if val:
                values[(v, i)] = val
    return Budget(s, cap, values)
