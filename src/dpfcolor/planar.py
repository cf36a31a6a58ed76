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


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Minimal representative over rotations and reflection."""
    if not seq:
        return seq
    best = None
    for cand in (seq, tuple(reversed(seq))):
        for k in range(len(cand)):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best


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

    def with_outer(self, outer: Iterable[int]) -> "PlaneGraph":
        return PlaneGraph(self.graph, self.rotation, outer)

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
    target = _canonical_cycle(pg.outer)
    outer_index = None
    for i, w in enumerate(walks):
        if _canonical_cycle(w) == target:
            outer_index = i
            break
    if outer_index is None:
        raise InvalidEmbedding("designated outer cycle is not a face")
    return FaceSet(tuple(walks), outer_index)


def is_two_connected(g: SimpleGraph) -> bool:
    if g.n < 3 or not g.is_connected():
        return False
    return all(g.delete(v).is_connected() for v in g.vertices)


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
    would duplicate an existing edge the next apex is tried, and if every
    apex conflicts a single valid chord splits the face instead.  The outer
    cycle and all existing edges are kept.
    """
    if len(set(pg.outer)) != len(pg.outer) or len(pg.outer) < 3:
        raise NotTwoConnected("outer face is not a simple cycle")
    if not is_two_connected(pg.graph):
        raise NotTwoConnected("triangulation needs a 2-connected plane graph")
    while True:
        fs = faces(pg)
        face = next((f for f in fs.bounded if len(f) > 3), None)
        if face is None:
            return pg
        l = len(face)
        apex_positions = sorted(range(l), key=lambda i: face[i])
        done = False
        for ap in apex_positions:
            targets = [face[(ap + t) % l] for t in range(2, l - 1)]
            if any(pg.graph.has_edge(face[ap], w) for w in targets):
                continue
            # Split triangles off one at a time; after each chord the
            # remaining face is the apex followed by the untouched tail.
            cur = tuple(face[(ap + t) % l] for t in range(l))
            while len(cur) > 3:
                pg = add_chord(pg, cur, 0, 2)
                cur = (cur[0],) + cur[2:]
            done = True
            break
        if done:
            continue
        # Every apex conflicts: make progress with one valid chord.  A face
        # of length >= 4 always has one, since chords drawn outside the face
        # cannot pairwise interleave.
        for ai in range(l):
            for bj in range(ai + 2, l):
                if ai == 0 and bj == l - 1:
                    continue
                if not pg.graph.has_edge(face[ai], face[bj]):
                    pg = add_chord(pg, face, ai, bj)
                    done = True
                    break
            if done:
                break
        if not done:
            raise InvalidEmbedding(f"face {face} admits no chord")


def find_chord(pg: PlaneGraph) -> tuple[int, int] | None:
    """Positions (i, j) on the outer cycle of its lexicographically first chord."""
    outer = pg.outer
    p = len(outer)
    for i in range(p):
        for j in range(i + 2, p):
            if i == 0 and j == p - 1:
                continue
            if pg.graph.has_edge(outer[i], outer[j]):
                return (i, j)
    return None


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _face_edges(walk: tuple[int, ...]):
    return (_edge_key(walk[t], walk[(t + 1) % len(walk)]) for t in range(len(walk)))


def _edge_faces(fs: FaceSet) -> dict[tuple[int, int], list[int]]:
    """Indices of the faces on each side of every edge."""
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for idx, walk in enumerate(fs.faces):
        for key in _face_edges(walk):
            edge_faces.setdefault(key, []).append(idx)
    return edge_faces


def _region_vertices(fs: FaceSet, edge_faces: dict[tuple[int, int], list[int]],
                     start_face: int,
                     blocked: set[tuple[int, int]]) -> tuple[set[int], set[int]]:
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
    blocked = {_edge_key(a, b)} | set(_face_edges(fs.outer))
    reached_ab, verts_ab = _region_vertices(fs, edge_faces, f_ab, blocked)
    _, verts_ba = _region_vertices(fs, edge_faces, f_ba, blocked)
    if f_ba in reached_ab:
        raise NotAChord(f"({a},{b}) does not separate two bounded regions")

    outer1 = outer[:i + 1] + outer[j:]
    outer2 = outer[i:j + 1]
    arc2 = outer[i + 1]
    side2, side1 = (verts_ab, verts_ba) if arc2 in verts_ab else (verts_ba, verts_ab)
    return _restrict(pg, side1, outer1), _restrict(pg, side2, outer2)


def _restrict(pg: PlaneGraph, keep: set[int], outer: tuple[int, ...]) -> PlaneGraph:
    graph = pg.graph.induced(keep)
    rotation = {v: tuple(u for u in pg.rotation[v] if u in keep) for v in graph.vertices}
    return PlaneGraph(graph, rotation, outer)


def delete_vertex(pg: PlaneGraph, v: int, outer: tuple[int, ...]) -> PlaneGraph:
    """Remove one vertex, keeping the induced rotations; caller supplies the new outer face."""
    return _restrict(pg, set(pg.graph.vertices) - {v}, outer)


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
    fs = faces(pg)
    triangles = sorted(
        (u, v, w)
        for u, v in g.edge_list()
        for w in sorted(g.adj[u] & g.adj[v])
        if w > v
    )
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
