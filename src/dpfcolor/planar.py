"""Plane graphs: rotation systems, faces, triangulation, chords and fans.

A plane graph is a simple graph plus a clockwise cyclic neighbor order per
vertex and a designated outer face.  Faces are traced by following, from
each directed edge (u, v), the dart (v, w) where w is the successor of u
in the rotation at v; this visits every dart exactly once.
`triangulate_interior`, which the planar solver runs on every input,
checks its input from the one trace that `faces` makes: the Euler count
and the outer face, and 2-connectivity too, since a connected plane graph
of at least 3 vertices is 2-connected exactly when every face walk is
simple.  The lowpoint DFS `is_two_connected` runs only on an input whose
embedding check fails.

The planar recursion's pieces rebuild only the rows of vertices that lose
a neighbour and share the rest with the parent.  A chord split (`_split`)
rebuilds only the chord's two ends: the chord and the two outer arcs bound
two closed sub-disks, and an edge from one sub-disk's inside to the
other's would have to cross the chord or the outer face.  When every
vertex lies on the outer walk, each side is its arc and the shorter arc
gives the smaller piece; otherwise it searches the two insides in
lockstep and stops when the smaller is exhausted.  It builds the smaller
piece's dicts from its own vertices in sorted order (`_piece`), and edits
the parent's dicts, which its caller owns, into the larger piece: it
deletes the smaller piece's vertices off the chord.  So a split costs the
smaller piece's size, and copies nothing of the larger.  The pieces'
graphs (`graphs._OwnedGraph`) read their vertex tuple off the adjacency
dict when something asks for it, so no split builds one.

Between splits the solver edits a piece's own tables in place.  A fan
step deletes its pivot with `_drop`, which rebuilds only the pivot's
neighbours' rows, each dropping the pivot by position: O(deg) per
neighbour, with no copy of the dicts (`delete_vertex` is the same
deletion on a copy).  A chord that cuts off a bare triangle builds no
piece at all: `_cut_run` deletes the triangle's degree-2 vertex, and the
next ones that the same hub cuts off, and rebuilds the hub's rows and the
outer walk once per run.  `find_chord` is one scan over outer positions
(`_chord_from`).  After a run the scan resumes at the run's position,
since no earlier position can gain a chord, and after a fan step it looks
only at the positions up to the pivot's inner neighbours, since every new
chord ends at one of them.

`find_separating_triangle` reads one face trace: a triangle separates
exactly when its vertex triple is not a 3-face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidEmbedding,
    NotAChord,
    NotOnOuterCycle,
    NotTwoConnected,
)
from .graphs import SimpleGraph, _OwnedGraph


class PlaneGraph:
    """Simple graph with a clockwise rotation system and an outer face."""

    __slots__ = ("graph", "rotation", "outer")

    def __init__(self, graph: SimpleGraph, rotation: Mapping[int, Iterable[int]],
                 outer: Iterable[int]):
        adj = graph.adj
        rot = {v: tuple(rotation.get(v, ())) for v in graph.vertices}
        for v in graph.vertices:
            row = rot[v]
            nbrs = set(row)
            if len(row) != len(nbrs) or nbrs != adj[v]:
                raise InvalidEmbedding(
                    f"rotation at {v} is not a permutation of its neighbors")
        for v in rotation:
            if v not in adj:
                raise InvalidEmbedding(f"rotation given at {v}, which is not a vertex")
        outer = tuple(outer)
        for v in outer:
            if v not in adj:
                raise InvalidEmbedding(f"outer walk names {v}, which is not a vertex")
        self.graph = graph
        self.rotation = rot
        self.outer = outer

    @property
    def n(self) -> int:
        return self.graph.n

    @classmethod
    def _trusted(cls, graph: SimpleGraph, rotation: dict[int, tuple[int, ...]],
                 outer: tuple[int, ...]) -> "PlaneGraph":
        """Wrap valid tables unchecked: rotation[v] a tuple permuting
        graph.adj[v] for every vertex, keyed in vertex order.  Tables may
        be shared, so none is mutated, but by the planar solver's frames:
        each edits the dicts of the piece it owns, which no other object
        holds, and replaces rows without mutating them, and `_split`
        edits a frame's dicts into the larger of its pieces."""
        pg = cls.__new__(cls)
        pg.graph, pg.rotation, pg.outer = graph, rotation, outer
        return pg

    def with_outer(self, outer: Iterable[int]) -> "PlaneGraph":
        return PlaneGraph._trusted(self.graph, self.rotation, tuple(outer))

    def __repr__(self):
        return f"PlaneGraph(n={self.n}, m={self.graph.m}, outer={self.outer})"


@dataclass(frozen=True)
class FaceSet:
    """All faces of an embedding with the outer face identified."""

    faces: tuple[tuple[int, ...], ...]
    outer_index: int

    @property
    def outer(self) -> tuple[int, ...]:
        return self.faces[self.outer_index]

    @property
    def bounded(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f for i, f in enumerate(self.faces) if i != self.outer_index)


def trace_faces(pg: PlaneGraph) -> list[tuple[int, ...]]:
    """Raw face walks from the rotation system, deterministic order.

    `nxt[v][u]` is the neighbour w such that dart (u, v) is followed by
    (v, w).  Following a dart pops its entry, so a pop marks the dart as
    walked, and each dart is read once, with no set of walked darts.
    Walks start at the darts (u, v) in sorted order, so the walks, their
    starts and their order do not depend on the key order of the tables.
    """
    rotation, faces = pg.rotation, []
    nxt = {v: dict(zip(rot, rot[1:] + rot[:1])) for v, rot in rotation.items()}
    # Each rotation row permutes its vertex's neighbours, so the darts out
    # of u are (u, v) for v in rotation[u]; (u, v) is unwalked while
    # nxt[v] holds u.
    for u in sorted(rotation):
        for v in sorted(rotation[u]):
            if u in nxt[v]:
                walk, a, b = [], u, v
                while (c := nxt[b].pop(a, None)) is not None:
                    walk.append(a)
                    a, b = b, c
                faces.append(tuple(walk))
    return faces


def faces(pg: PlaneGraph) -> FaceSet:
    """All faces with the outer face flagged; validates the embedding.

    Raises InvalidEmbedding when the graph is disconnected, the Euler count
    n - m + #faces != 2, or the designated outer cycle is not a face.  A
    single vertex has one empty face when its outer walk is empty or names
    that vertex; any other walk has no face and fails the Euler count.
    """
    if not pg.graph.is_connected():
        raise InvalidEmbedding("graph is not connected")
    if pg.n == 1 and pg.outer in ((), pg.graph.vertices):
        return FaceSet(((),), 0)
    walks = trace_faces(pg)
    if pg.n - pg.graph.m + len(walks) != 2:
        raise InvalidEmbedding(
            f"Euler check failed: {pg.n} - {pg.graph.m} + {len(walks)} != 2")
    outer_index = next((i for i, w in enumerate(walks) if _same_cycle(w, pg.outer)), None)
    if outer_index is None:
        raise InvalidEmbedding("designated outer cycle is not a face")
    return FaceSet(tuple(walks), outer_index)


def _same_cycle(walk: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """Whether the walk reads as `outer` from some start, either way round.

    Only starts at an occurrence of outer[0] can match, so a walk costs
    O(p) per such occurrence: one for a simple walk, a few for a walk that
    passes a cut vertex more than once.
    """
    if len(walk) != len(outer):
        return False
    head = outer[0]
    for w in (walk, walk[::-1]):
        k = -1
        for _ in range(w.count(head)):
            k = w.index(head, k + 1)
            if w[k:] + w[:k] == outer:
                return True
    return False


def is_two_connected(g: SimpleGraph) -> bool:
    """At least 3 vertices, connected, and no cut vertex.

    One iterative lowpoint DFS (Hopcroft and Tarjan, CACM 1973): a cut
    vertex exists iff the root has more than one DFS child, or some other
    vertex v has a child w with low[w] >= disc[v].  It needs no embedding.
    `triangulate_interior` reads 2-connectivity off its face trace, and
    runs this only on an input whose embedding check fails, to tell a
    graph that is not 2-connected from an embedding fault.
    """
    if g.n < 3:
        return False
    adj = g.adj
    root = g.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    # The tree edge back to the parent may lower low[w] to disc[v]; that
    # leaves the test low[w] >= disc[v] unchanged, so it needs no skipping.
    stack = [(root, iter(adj[root]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, iter(adj[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if u == root:
                root_children += 1
            elif low[v] >= disc[u]:
                return False
            elif low[v] < low[u]:
                low[u] = low[v]
    return len(disc) == g.n and root_children == 1


def triangulate_interior(pg: PlaneGraph) -> PlaneGraph:
    """Add chords until every bounded face is a triangle.

    Each long face is fanned from its lowest-index vertex; when a fan chord
    would duplicate an existing edge the next apex is tried.  The outer
    cycle and all existing edges are kept.

    Faces are traced once and fanned in trace order: a chord changes only
    the face it splits, into triangles, so every later face is still a face
    of the growing graph.  Some apex is always free of conflicts.  In a
    2-connected plane graph a face is a simple cycle, and the other edges
    among its vertices lie outside it without crossing, so together with
    the cycle they form an outerplanar graph; a degree-2 vertex of that
    graph (an ear) has no edge to any non-neighbor on the face.

    The input is checked from that one trace.  After the outer walk is
    found to be a simple cycle, `faces` checks connectivity, the Euler
    count and that the outer walk is a face.  Then the graph is
    2-connected exactly when every face walk is simple: a connected plane
    graph of at least 3 vertices is 2-connected iff every face is bounded
    by a cycle (Diestel, Graph Theory, Prop. 4.2.6).  A smaller graph never
    passes `faces` here: its outer walk has 3 distinct vertices, so it
    names a vertex the graph lacks.  A graph that is not 2-connected is
    reported as such before any embedding fault, so when `faces` raises,
    the lowpoint DFS decides which error to raise: the embedding's only if
    the graph is 2-connected.  So the DFS runs only on an input that fails.
    """
    if len(set(pg.outer)) != len(pg.outer) or len(pg.outer) < 3:
        raise NotTwoConnected("outer face is not a simple cycle")
    try:
        fs = faces(pg)
    except InvalidEmbedding:
        if is_two_connected(pg.graph):
            raise
        fs = None
    if fs is None or any(len(set(w)) != len(w) for w in fs.faces):
        raise NotTwoConnected("triangulation needs a 2-connected plane graph")
    long_faces = [f for f in fs.bounded if len(f) > 3]
    if not long_faces:
        return pg
    adj = dict(pg.graph.adj)
    rotation = dict(pg.rotation)
    for face in long_faces:
        l = len(face)
        for ap in sorted(range(l), key=face.__getitem__):
            cyc = face[ap:] + face[:ap]
            apex = cyc[0]
            if adj[apex].isdisjoint(cyc[2:l - 1]):
                break
        else:
            raise InvalidEmbedding(f"face {face} admits no chord")
        # Chords apex-cyc[t], t = 2..l-2, each splitting one triangle off
        # the face: at each end of a chord the other end lands before that
        # end's successor on the face, so at the apex the new neighbors
        # land, last first, before cyc[1], and at cyc[t] the apex lands
        # before cyc[t + 1].
        rot = rotation[apex]
        k = rot.index(cyc[1])
        rotation[apex] = rot[:k] + cyc[l - 2:1:-1] + rot[k:]
        adj[apex] = adj[apex].union(cyc[2:l - 1])
        for t in range(2, l - 1):
            w = cyc[t]
            adj[w] = adj[w] | {apex}
            k = (rot := rotation[w]).index(cyc[t + 1])
            rotation[w] = rot[:k] + (apex,) + rot[k:]
    # pg's tables were checked on the way in and by faces(), and the chords
    # follow the rotation rule, so the result needs no second check.
    return PlaneGraph._trusted(SimpleGraph._trusted(pg.graph.vertices, adj), rotation, pg.outer)


def find_chord(pg: PlaneGraph) -> tuple[int, int] | None:
    """Positions (i, j) on the outer cycle of its lexicographically first chord."""
    return _chord_from(pg.graph.adj, pg.outer, set(pg.outer), 0)


def _chord_from(adj: Mapping[int, frozenset[int]], outer: Sequence[int],
                on_outer: set[int], start: int, stop: int | None = None
                ) -> tuple[int, int] | None:
    """find_chord's scan from position `start`, when no earlier position of
    `outer` has a chord; `on_outer` is the set of its vertices.  With
    `stop`, the scan ends before that position, when no position from
    there on can start a chord.

    On a simple walk, outer[i]'s neighbours on the walk other than its two
    walk neighbours all lie at positions j >= i + 2, since none before i has
    a chord.  So one set intersection per position tells whether it has a
    chord, and only then a forward walk finds the smallest j.  Each
    position costs O(min(deg, p)) at C level.  A walk that repeats a vertex
    is walked forward at every position.
    """
    p = len(outer)
    simple = len(on_outer) == p
    for i in range(start, p - 2 if stop is None else min(stop, p - 2)):
        near = adj[outer[i]] & on_outer
        if simple and len(near) == (outer[i - 1] in near) + (outer[i + 1] in near):
            continue
        for j in range(i + 2, p - 1 if i == 0 else p):
            if outer[j] in near:
                return i, j
    return None


def _cut_run(adj: dict[int, frozenset[int]], rotation: dict[int, tuple[int, ...]],
             outer: list[int], on_outer: set[int], i: int,
             cut: dict[int, frozenset[int]]) -> None:
    """Delete outer[i + 1] from a piece's own tables, in place, while it is
    the third vertex of a bare triangle outer[i] x outer[i + 2] that the
    first chord cuts off, and record each deleted vertex's adjacency row in
    `cut`.  Call it when the first chord is (i, i + 2) and outer[i + 1] has
    degree 2.

    A deletion changes only the rows of outer[i] and outer[i + 2], so no
    position before i gains a chord, and the next first chord is (i, i + 2)
    again exactly when the new outer[i + 2] is a neighbour of outer[i]
    inside the walk's bounds.  So the run stays at one vertex a, its hub,
    and each further cut costs one membership test.  The hub's rows and the
    outer walk are rebuilt once, when the run ends, so a run of k cuts at a
    hub of degree d on a walk of length p costs O(k + d + p) at C level,
    not O(k·(d + p)).  Until then the hub's adjacency row still holds the
    cut vertices, which no membership test asks for.
    """
    a, k = outer[i], i + 1
    end = len(outer) - 1 if i == 0 else len(outer)  # (0, p - 1) is the walk edge vp v1
    while True:
        cut[outer[k]] = _drop(adj, rotation, outer[k], a)
        k += 1
        # The walk is now outer[:i + 1] + outer[k:]: its position i + 2 holds outer[k + 1].
        if not (k + 1 < end and outer[k + 1] in adj[a] and len(adj[outer[k]]) == 2):
            break
    gone = outer[i + 1:k]
    del outer[i + 1:k]
    on_outer.difference_update(gone)
    adj[a] = adj[a].difference(gone)
    rotation[a] = tuple(filterfalse(set(gone).__contains__, rotation[a]))


def split_on_chord(pg: PlaneGraph, chord: tuple[int, int]) -> tuple[PlaneGraph, PlaneGraph]:
    """Split along an outer-cycle chord into the two closed sub-disks.

    The parts keep original vertex ids; they share exactly the chord edge
    and its endpoints, and their vertex sets union to the whole graph.
    pg is left as it was: `_split` edits the two dicts it is handed into
    the larger part, so it is handed copies.
    """
    outer = pg.outer
    p = len(outer)
    i, j = chord
    if not (0 <= i < j < p) or j - i < 2 or (i == 0 and j == p - 1):
        raise NotAChord(f"positions {chord} do not name a chord")
    a, b = outer[i], outer[j]
    if not pg.graph.has_edge(a, b):
        raise NotAChord(f"({a},{b}) is not an edge")
    faces(pg)  # _split holds only for a valid embedding
    if len(set(outer)) != p:
        raise NotAChord(f"({a},{b}) does not separate two bounded regions")
    return _split(PlaneGraph._trusted(_OwnedGraph(dict(pg.graph.adj)), dict(pg.rotation), outer),
                  chord)


def _split(pg: PlaneGraph, chord: tuple[int, int]) -> tuple[PlaneGraph, PlaneGraph]:
    """split_on_chord without its checks, for a valid embedding whose outer
    cycle is simple and a chord given by valid positions, on tables the
    caller owns: pg's two dicts are edited in place into the larger piece.
    Piece 2's outer walk runs from outer[i] to outer[j].

    When every vertex lies on the outer walk, each side is exactly its arc,
    and the shorter arc's side is the smaller piece.  Otherwise the insides
    of the two sub-disks are searched in lockstep, one vertex per side per
    turn, until one side is exhausted (Even and Shiloach, "An on-line
    edge-deletion problem", J. ACM 28(1), 1981), so the search reads
    O(rows of the smaller piece).  Side 1's search starts from its arc's
    inner vertices outer[j + 1:] + outer[:i], side 2's from
    outer[i + 1:j], and neither enters the outer walk.  Each chord end's
    inner neighbours seed the two searches too, split by its rotation read
    from the other end round: those before the first of its two outer
    neighbours lie on that neighbour's side, those after the second on the
    other's.  These seeds reach inner vertices that touch no arc vertex,
    which a plane graph that is not a near-triangulation may have.

    The smaller piece is built fresh by `_piece`, from pg's rows before
    they are deleted.  Then pg's dicts lose that piece's vertices off the
    chord and have only the chord ends' rows rebuilt, since no other
    vertex of the larger piece has a neighbour in the smaller: they are
    the larger piece.  So a split costs the smaller piece's size, and no
    copy of the parent.  Both pieces equal what `_piece` builds from each
    side, dict key order included, since pg's dicts are keyed in vertex
    order and deleting keys keeps the order of the rest.
    """
    outer, adj, rotation = pg.outer, pg.graph.adj, pg.rotation
    i, j = chord
    ends = a, b = outer[i], outer[j]
    walks = (outer[:i + 1] + outer[j:], outer[i:j + 1])
    arcs = (outer[j + 1:] + outer[:i], outer[i + 1:j])
    if len(adj) == len(outer):  # no inner vertex: each side is its arc
        s, found = int(len(arcs[1]) < len(arcs[0])), ([], [])
    else:
        work, found, seen = (list(arcs[0]), list(arcs[1])), ([], []), set(outer)
        # Index 0 is side 1 and index 1 side 2.  Each arc starts and ends next
        # to the chord ends: a's outer neighbours are arcs[0][-1] on side 1 and
        # arcs[1][0] on side 2, b's are arcs[0][0] and arcs[1][-1].
        for x, y, one, two in ((a, b, arcs[0][-1], arcs[1][0]), (b, a, arcs[0][0], arcs[1][-1])):
            k = rotation[x].index(y)
            turn = rotation[x][k + 1:] + rotation[x][:k]
            m = min(turn.index(one), turn.index(two))
            for s, seeds in ((turn[m] == two, turn[:m]), (turn[m] == one, turn[m + 2:])):
                fresh = [w for w in seeds if w not in seen]
                seen.update(fresh)
                found[s].extend(fresh)
                work[s].extend(fresh)
        while work[0] and work[1]:
            for stack, got in zip(work, found):
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        got.append(w)
                        stack.append(w)
        s = 0 if not work[0] else 1
    gone = set(found[s]).union(arcs[s])
    pieces = [_piece(pg, gone.union(ends), walks[s], ends),
              PlaneGraph._trusted(_OwnedGraph(adj), rotation, walks[1 - s])]
    for v in gone:
        del adj[v], rotation[v]
    for v in ends:
        adj[v] = adj[v] - gone
        rotation[v] = tuple(filterfalse(gone.__contains__, rotation[v]))
    return pieces[s], pieces[1 - s]


def _piece(pg: PlaneGraph, keep: set[int], outer: Iterable[int],
           cut: Iterable[int]) -> PlaneGraph:
    """The plane graph induced on `keep`, with the given outer walk, on
    fresh dicts that the caller owns.

    `cut` must hold every kept vertex with a neighbour outside `keep`:
    only those rows are rebuilt, and every other adjacency and rotation
    row is shared with pg.  The dicts are built from `keep` alone, in
    sorted order, as a SimpleGraph's vertices are, so a piece costs its own
    size, not its parent's, and builds no vertex tuple (`_OwnedGraph`).
    Dropping vertices keeps the induced rotations a plane embedding.
    `_split` builds its smaller piece so, cut at the chord's two ends,
    since the chord and the outer arcs bound two closed sub-disks that no
    other edge joins.
    """
    adj0, rot0, verts = pg.graph.adj, pg.rotation, sorted(keep)
    adj, rotation = {v: adj0[v] for v in verts}, {v: rot0[v] for v in verts}
    for v in cut:
        adj[v] = adj[v] & keep
        rotation[v] = tuple(filter(keep.__contains__, rotation[v]))
    return PlaneGraph._trusted(_OwnedGraph(adj), rotation, tuple(outer))


def _drop(adj: dict[int, frozenset[int]], rotation: dict[int, tuple[int, ...]],
          x: int, hub: int | None = None) -> frozenset[int]:
    """Delete x from a piece's own adjacency and rotation dicts and return
    its adjacency row.  Each neighbour's rows but the hub's are replaced,
    never mutated, by rows without x, which its rotation row drops by
    position: O(deg) per neighbour at C level, however large the graph.
    `_cut_run` rebuilds its hub's rows itself, once per run."""
    del rotation[x]
    row = adj.pop(x)
    for u in row:
        if u != hub:
            adj[u] = adj[u] - {x}
            rot = rotation[u]
            k = rot.index(x)
            rotation[u] = rot[:k] + rot[k + 1:]
    return row


def delete_vertex(pg: PlaneGraph, v: int, outer: tuple[int, ...]) -> PlaneGraph:
    """Remove one vertex, keeping the induced rotations; caller supplies the new outer face.

    Copies the two dicts once (O(n) at C level) and rebuilds only the rows
    of v's neighbours (`_drop`); every other row is shared with pg.
    """
    adj, rotation = dict(pg.graph.adj), dict(pg.rotation)
    _drop(adj, rotation, v)
    return PlaneGraph._trusted(SimpleGraph._trusted(tuple(adj), adj), rotation, tuple(outer))


def fan_neighbors(pg: PlaneGraph, v: int) -> tuple[int, ...]:
    """Neighbors of an outer vertex in rotation order, from its outer
    predecessor around the inside to its outer successor."""
    outer = pg.outer
    if v not in outer:
        raise NotOnOuterCycle(f"vertex {v} is not on the outer cycle")
    pos = outer.index(v)
    prev, nxt = outer[pos - 1], outer[(pos + 1) % len(outer)]
    rot = pg.rotation[v]
    d = len(rot)
    i1 = rot.index(prev)
    if rot[(i1 + 1) % d] == nxt and d > 2:
        return tuple(rot[(i1 - t) % d] for t in range(d))
    if rot[(i1 - 1) % d] == nxt or d == 2:
        return tuple(rot[(i1 + t) % d] for t in range(d))
    raise InvalidEmbedding(f"outer neighbors of {v} are not adjacent in its rotation")


def find_separating_triangle(pg: PlaneGraph) -> tuple[int, int, int] | None:
    """First triangle with vertices strictly inside and strictly outside it.

    A triangle with no vertex on one side bounds a face there, since any
    edge on that side would join two of its own vertices.  So a triangle
    separates exactly when its vertex triple is not a 3-face, and one face
    trace (which also validates the embedding) answers for every triangle.
    """
    g = pg.graph
    bare = {frozenset(w) for w in faces(pg).faces if len(w) == 3}
    triangles = sorted((u, v, w) for u, v in g.edge_list() for w in g.adj[u] & g.adj[v] if w > v)
    return next((tri for tri in triangles if frozenset(tri) not in bare), None)
