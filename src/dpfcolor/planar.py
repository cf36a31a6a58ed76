"""Plane graphs: rotation systems, faces, triangulation, chords and fans.

A plane graph is a simple graph plus a clockwise cyclic neighbor order per
vertex and a designated outer face.  Faces are traced by following, from
each directed edge (u, v), the dart (v, w) where w is the successor of u
in the rotation at v; this visits every dart exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    InvalidEmbedding,
    NotAChord,
    NotOnOuterCycle,
    NotTwoConnected,
)
from .graphs import SimpleGraph


class PlaneGraph:
    """Simple graph with a clockwise rotation system and an outer face."""

    __slots__ = ("graph", "rotation", "outer")

    def __init__(self, graph: SimpleGraph, rotation: Mapping[int, Iterable[int]],
                 outer: Iterable[int]):
        rot = {v: tuple(rotation.get(v, ())) for v in graph.vertices}
        for v in graph.vertices:
            if len(rot[v]) != len(set(rot[v])) or set(rot[v]) != graph.adj[v]:
                raise InvalidEmbedding(
                    f"rotation at {v} is not a permutation of its neighbors")
        self.graph = graph
        self.rotation = rot
        self.outer = tuple(outer)

    @property
    def n(self) -> int:
        return self.graph.n

    @classmethod
    def _trusted(cls, graph: SimpleGraph, rotation: dict[int, tuple[int, ...]],
                 outer: tuple[int, ...]) -> "PlaneGraph":
        """Wrap valid tables unchecked: rotation[v] a tuple permuting
        graph.adj[v] for every vertex, keyed in vertex order.  Tables may
        be shared, so none is ever mutated."""
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
    """Raw face walks from the rotation system, deterministic order."""
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, rot in sorted(pg.rotation.items()):
        d = len(rot)
        for k, u in enumerate(rot):
            succ[(u, v)] = (v, rot[(k + 1) % d])
    faces = []
    seen: set[tuple[int, int]] = set()
    for dart in sorted(succ):
        if dart in seen:
            continue
        walk = []
        cur = dart
        while cur not in seen:
            seen.add(cur)
            walk.append(cur[0])
            cur = succ[cur]
        faces.append(tuple(walk))
    return faces


def faces(pg: PlaneGraph) -> FaceSet:
    """All faces with the outer face flagged; validates the embedding.

    Raises InvalidEmbedding when the graph is disconnected, the Euler count
    n - m + #faces != 2, or the designated outer cycle is not a face.
    """
    if not pg.graph.is_connected():
        raise InvalidEmbedding("graph is not connected")
    if pg.n == 1:
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
    vertex v has a child w with low[w] >= disc[v].
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


def _insert_before(rot: tuple[int, ...], anchor: int, new: int) -> tuple[int, ...]:
    i = rot.index(anchor)
    return rot[:i] + (new,) + rot[i:]


def add_chord(pg: PlaneGraph, face: tuple[int, ...], ai: int, bi: int) -> PlaneGraph:
    """Split a face along the chord between positions ai and bi.

    In the rotation at each endpoint the new neighbor is inserted before
    that endpoint's successor on the face, which keeps both sub-faces
    consistent with the dart-successor rule.
    """
    l = len(face)
    a, b = face[ai], face[bi]
    next_a, next_b = face[(ai + 1) % l], face[(bi + 1) % l]
    if pg.graph.has_edge(a, b):
        raise NotAChord(f"edge ({a},{b}) already exists")
    graph = SimpleGraph.on_vertices(pg.graph.vertices, list(pg.graph.edges) + [(a, b)])
    rotation = dict(pg.rotation)
    rotation[a] = _insert_before(rotation[a], next_a, b)
    rotation[b] = _insert_before(rotation[b], next_b, a)
    return PlaneGraph(graph, rotation, pg.outer)


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
    """
    if len(set(pg.outer)) != len(pg.outer) or len(pg.outer) < 3:
        raise NotTwoConnected("outer face is not a simple cycle")
    if not is_two_connected(pg.graph):
        raise NotTwoConnected("triangulation needs a 2-connected plane graph")
    long_faces = [f for f in faces(pg).bounded if len(f) > 3]
    if not long_faces:
        return pg
    edges = set(pg.graph.edges)
    rotation = dict(pg.rotation)
    for face in long_faces:
        l = len(face)
        for ap in sorted(range(l), key=face.__getitem__):
            cyc = face[ap:] + face[:ap]
            apex = cyc[0]
            if not any(_edge_key(apex, w) in edges for w in cyc[2:l - 1]):
                break
        else:
            raise InvalidEmbedding(f"face {face} admits no chord")
        # Chords apex-cyc[t], t = 2..l-2, each splitting one triangle off
        # the face as add_chord(cur, 0, 2) would: at the apex the new
        # neighbors land, last first, before cyc[1]; at cyc[t] the apex
        # lands before cyc[t + 1].
        rot = rotation[apex]
        k = rot.index(cyc[1])
        rotation[apex] = rot[:k] + cyc[l - 2:1:-1] + rot[k:]
        for t in range(2, l - 1):
            w = cyc[t]
            edges.add(_edge_key(apex, w))
            rotation[w] = _insert_before(rotation[w], cyc[t + 1], apex)
    return PlaneGraph(SimpleGraph.on_vertices(pg.graph.vertices, edges), rotation, pg.outer)


def find_chord(pg: PlaneGraph) -> tuple[int, int] | None:
    """Positions (i, j) on the outer cycle of its lexicographically first chord.

    Scans, for each position i, only the neighbours of outer[i] that lie on
    the outer cycle, so the search costs O(sum of outer degrees).
    """
    outer = pg.outer
    p = len(outer)
    at: dict[int, list[int]] = {}
    for t, v in enumerate(outer):
        at.setdefault(v, []).append(t)
    adj = pg.graph.adj
    for i, v in enumerate(outer):
        js = [j for w in adj.get(v, ()) for j in at.get(w, ())
              if j >= i + 2 and (i, j) != (0, p - 1)]
        if js:
            return (i, min(js))
    return None


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _side(pg: PlaneGraph, cycle: tuple[int, ...]) -> set[int]:
    """Vertices strictly on one side of a simple cycle of the embedding.

    At each cycle vertex x, with predecessor p and successor q, the
    neighbours strictly clockwise after p and before q, off the cycle,
    leave it on the same side (left of the cycle's direction).  The cycle
    is a closed curve that no edge crosses, so one search of G - cycle from
    those seeds reaches exactly that side.
    """
    on_cycle = set(cycle)
    side: set[int] = set()
    for p, x, q in zip(cycle[-1:] + cycle[:-1], cycle, cycle[1:] + cycle[:1]):
        rot = pg.rotation[x]
        k = rot.index(p)
        turn = rot[k + 1:] + rot[:k]
        side.update(y for y in turn[:turn.index(q)] if y not in on_cycle)
    stack = list(side)
    adj = pg.graph.adj
    while stack:
        for w in adj[stack.pop()]:
            if w not in on_cycle and w not in side:
                side.add(w)
                stack.append(w)
    return side


def split_on_chord(pg: PlaneGraph, chord: tuple[int, int]) -> tuple[PlaneGraph, PlaneGraph]:
    """Split along an outer-cycle chord into the two closed sub-disks.

    The parts keep original vertex ids; they share exactly the chord edge
    and its endpoints, and their vertex sets union to the whole graph.
    """
    outer = pg.outer
    p = len(outer)
    i, j = chord
    if not (0 <= i < j < p) or j - i < 2 or (i == 0 and j == p - 1):
        raise NotAChord(f"positions {chord} do not name a chord")
    a, b = outer[i], outer[j]
    if not pg.graph.has_edge(a, b):
        raise NotAChord(f"({a},{b}) is not an edge")
    faces(pg)  # _side holds only for a valid embedding
    if len(set(outer)) != p:
        raise NotAChord(f"({a},{b}) does not separate two bounded regions")
    return _split(pg, chord)


def _split(pg: PlaneGraph, chord: tuple[int, int]) -> tuple[PlaneGraph, PlaneGraph]:
    """split_on_chord without its checks, for a valid embedding whose outer
    cycle is simple and a chord given by valid positions."""
    outer = pg.outer
    i, j = chord
    # Sub-disk 2 is bounded by outer[i..j] and the chord; outer[i - 1] lies
    # on the other arc, so it tells which side _side returned.
    arc2 = outer[i:j + 1]
    inside2 = _side(pg, arc2)
    if outer[i - 1] in inside2:
        inside2 = set(pg.graph.vertices).difference(inside2, arc2)
    side2 = inside2.union(arc2)
    side1 = set(pg.graph.vertices).difference(inside2, outer[i + 1:j])
    return _restrict(pg, side1, outer[:i + 1] + outer[j:]), _restrict(pg, side2, arc2)


def _restrict(pg: PlaneGraph, keep: set[int], outer: tuple[int, ...]) -> PlaneGraph:
    graph = pg.graph.induced(keep)
    rotation = {v: tuple(u for u in pg.rotation[v] if u in keep) for v in graph.vertices}
    return PlaneGraph._trusted(graph, rotation, outer)


def delete_vertex(pg: PlaneGraph, v: int, outer: tuple[int, ...]) -> PlaneGraph:
    """Remove one vertex, keeping the induced rotations; caller supplies the new outer face.

    Only the rows of v's neighbours are rebuilt; every other adjacency and
    rotation row is shared with pg.
    """
    g = pg.graph
    nbrs = g.adj[v]
    adj = dict(g.adj)
    rotation = dict(pg.rotation)
    del adj[v], rotation[v]
    for u in nbrs:
        adj[u] = adj[u] - {v}
        rotation[u] = tuple(w for w in rotation[u] if w != v)
    k = g.vertices.index(v)
    graph = SimpleGraph._trusted(g.vertices[:k] + g.vertices[k + 1:],
                                 g.edges.difference(_edge_key(u, v) for u in nbrs), adj)
    return PlaneGraph._trusted(graph, rotation, tuple(outer))


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
        seq = tuple(rot[(i1 - t) % d] for t in range(d))
    elif rot[(i1 - 1) % d] == nxt or d == 2:
        seq = tuple(rot[(i1 + t) % d] for t in range(d))
    else:
        raise InvalidEmbedding(
            f"outer neighbors of {v} are not adjacent in its rotation")
    return seq


def find_separating_triangle(pg: PlaneGraph) -> tuple[int, int, int] | None:
    """First triangle with vertices strictly inside and strictly outside it."""
    g = pg.graph
    faces(pg)  # _side holds only for a valid embedding
    triangles = sorted(
        (u, v, w)
        for u, v in g.edge_list()
        for w in sorted(g.adj[u] & g.adj[v])
        if w > v
    )
    for tri in triangles:
        side = _side(pg, tri)
        if side and len(side) < g.n - 3:
            return tri
    return None
