import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfcolor import (
    PlaneGraph,
    SimpleGraph,
    cycle_graph,
    gen_random_budget,
    gen_random_cover,
    faces,
    fan_neighbors,
    find_chord,
    find_separating_triangle,
    gen_planar_triangulation,
    path_graph,
    solve_planar_dpg52,
    split_on_chord,
    triangulate_interior,
)
from dpfcolor.errors import (
    InvalidEmbedding,
    NotAChord,
    NotOnOuterCycle,
    NotTwoConnected,
)
from dpfcolor.graphs import _OwnedGraph
from dpfcolor.planar import FaceSet, _split, is_two_connected, trace_faces

from strategies import SHAPE_KINDS

from oracles import (
    canonical_faces,
    drawn_shape,
    flood_find_separating_triangle,
    flood_split_on_chord,
    glued_triangulations,
    grid,
    polygon,
    random_graph,
    scan_find_chord,
    side_find_separating_triangle,
    side_split,
    side_trace_faces,
    thin_triangulation,
    triangulated_polygon,
    two_pass_triangulate_checks,
    wheel,
)


def triangle_pg():
    g = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    return PlaneGraph(g, {0: (1, 2), 1: (2, 0), 2: (0, 1)}, (0, 1, 2))


class TestFaces:
    def test_triangle_two_faces(self):
        fs = faces(triangle_pg())
        assert len(fs.faces) == 2
        assert all(len(f) == 3 for f in fs.faces)

    def test_k4_four_triangles(self):
        pg = gen_planar_triangulation(4, seed=0)
        assert pg.graph == SimpleGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        fs = faces(pg)
        assert len(fs.faces) == 4
        assert all(len(f) == 3 for f in fs.faces)

    def test_inconsistent_rotation_rejected(self):
        pg = gen_planar_triangulation(5, seed=1)
        rot = dict(pg.rotation)
        r0 = rot[0]
        rot[0] = (r0[1], r0[0]) + r0[2:]  # swap two neighbors
        scrambled = PlaneGraph(pg.graph, rot, pg.outer)
        with pytest.raises(InvalidEmbedding):
            faces(scrambled)

    def test_rotation_must_match_adjacency(self):
        g = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidEmbedding):
            PlaneGraph(g, {0: (1,), 1: (2, 0), 2: (0, 1)}, (0, 1, 2))

    @pytest.mark.parametrize("rotation, outer, message", [
        ({0: (1, 2), 1: (2, 0), 2: (0, 1), 7: (1, 2)}, (0, 1, 2),
         "rotation given at 7, which is not a vertex"),
        ({0: (1, 2), 1: (2, 0), 2: (0, 1)}, (0, 1, 9), "outer walk names 9, which is not a vertex"),
    ], ids=["rotation-key", "outer-vertex"])
    def test_embedding_names_only_vertices_of_the_graph(self, rotation, outer, message):
        g = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidEmbedding, match=f"^{message}$"):
            PlaneGraph(g, rotation, outer)

    def test_disconnected_rejected(self):
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        pg = PlaneGraph(g, {0: (1,), 1: (0,), 2: (3,), 3: (2,)}, (0, 1))
        with pytest.raises(InvalidEmbedding):
            faces(pg)

    def test_outer_must_be_a_face(self):
        pg = gen_planar_triangulation(6, seed=2)
        with pytest.raises(InvalidEmbedding):
            faces(pg.with_outer((0, 1, 2, 3)))


class TestTriangulate:
    def test_quadrilateral_gets_one_chord(self):
        out = triangulate_interior(polygon(4))
        assert out.graph.m == 5
        fs = faces(out)
        assert sorted(len(f) for f in fs.faces) == [3, 3, 4]

    def test_already_triangulated_is_identity(self):
        pg = gen_planar_triangulation(7, seed=3)
        out = triangulate_interior(pg)
        assert out.graph == pg.graph
        assert out.rotation == pg.rotation

    def test_pentagon_two_chords_from_lowest_apex(self):
        out = triangulate_interior(polygon(5))
        assert out.graph.m == 7
        assert out.graph.has_edge(0, 2) and out.graph.has_edge(0, 3)
        fs = faces(out)
        assert sorted(len(f) for f in fs.faces) == [3, 3, 3, 5]

    def test_outer_cycle_unchanged_and_edges_superset(self):
        for p in (4, 5, 6, 8):
            pg = polygon(p)
            out = triangulate_interior(pg)
            assert out.outer == pg.outer
            assert pg.graph.edges <= out.graph.edges
            fs = faces(out)
            assert all(len(f) == 3 for f in fs.bounded)

    def test_disk_edge_count(self):
        # disk with p outer and q inner vertices: m = 3(p+q) - 3 - p
        pg = wheel(6)
        out = triangulate_interior(pg)
        p, q = 6, 1
        assert out.graph.m == 3 * (p + q) - 3 - p
        assert out.graph.m == pg.graph.m  # wheel is already a near-triangulation

    def test_not_two_connected_rejected(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        pg = PlaneGraph(g, {0: (1,), 1: (0, 2), 2: (1,)}, (0, 1, 2, 1))
        with pytest.raises(NotTwoConnected):
            triangulate_interior(pg)
        # `with_outer` does not check that its walk names vertices; on one
        # vertex such a walk fails the Euler count, and one vertex is not
        # 2-connected.
        lone = PlaneGraph(SimpleGraph(1), {}, (0,)).with_outer((0, 1, 2))
        with pytest.raises(NotTwoConnected, match="^triangulation needs a 2-connected plane graph$"):
            triangulate_interior(lone)


class TestChords:
    def test_wheel_has_no_outer_chord(self):
        assert find_chord(wheel(5)) is None

    def test_square_with_diagonal(self):
        pg = triangulate_interior(polygon(4))
        assert find_chord(pg) == (0, 2)

    def test_triangle_has_no_chord(self):
        assert find_chord(triangle_pg()) is None

    def test_split_square_into_triangles(self):
        pg = triangulate_interior(polygon(4))
        part1, part2 = split_on_chord(pg, (0, 2))
        assert {part1.graph.n, part2.graph.n} == {3}
        shared = set(part1.graph.vertices) & set(part2.graph.vertices)
        assert shared == {0, 2}
        assert set(part1.graph.vertices) | set(part2.graph.vertices) == {0, 1, 2, 3}
        assert part1.graph.edges & part2.graph.edges == {(0, 2)}

    def test_split_pentagon_into_triangle_and_quad(self):
        pg = polygon(5)
        fs = faces(pg)
        inner = fs.bounded[0]
        ai, bi = sorted((inner.index(0), inner.index(2)))
        pg2 = triangulate_interior(polygon(5))
        # chord (0, 2) splits off triangle 0,1,2 leaving quad 0,2,3,4
        part1, part2 = split_on_chord(pg2, (0, 2))
        sizes = sorted((part1.graph.n, part2.graph.n))
        assert sizes == [3, 4]
        assert set(part1.graph.vertices) & set(part2.graph.vertices) == {0, 2}

    def test_non_chord_rejected(self):
        pg = triangulate_interior(polygon(4))
        with pytest.raises(NotAChord):
            split_on_chord(pg, (1, 3))
        with pytest.raises(NotAChord):
            split_on_chord(pg, (0, 1))

    def test_split_parts_union_to_whole(self):
        pg = triangulate_interior(polygon(7))
        chord = find_chord(pg)
        part1, part2 = split_on_chord(pg, chord)
        assert set(part1.graph.vertices) | set(part2.graph.vertices) == set(pg.graph.vertices)
        assert part1.graph.edges | part2.graph.edges == pg.graph.edges
        assert len(part1.graph.edges & part2.graph.edges) == 1
        faces(part1), faces(part2)  # both parts stay valid embeddings


class TestFans:
    def test_wheel_outer_vertex_fans_over_hub(self):
        pg = wheel(5)
        assert fan_neighbors(pg, 0) == (4, 5, 1)

    def test_triangle_vertex_has_empty_fan_interior(self):
        fan = fan_neighbors(triangle_pg(), 1)
        assert fan == (0, 2)

    def test_interior_vertex_rejected(self):
        with pytest.raises(NotOnOuterCycle):
            fan_neighbors(wheel(5), 5)

    def test_fan_covers_all_neighbors(self):
        for seed in range(5):
            pg = gen_planar_triangulation(9, seed=seed)
            for v in pg.outer:
                fan = fan_neighbors(pg, v)
                assert set(fan) == set(pg.graph.adj[v])
                pos = pg.outer.index(v)
                assert fan[0] == pg.outer[pos - 1]
                assert fan[-1] == pg.outer[(pos + 1) % len(pg.outer)]


class TestSeparatingTriangles:
    def test_k4_has_none(self):
        assert find_separating_triangle(gen_planar_triangulation(4, seed=0)) is None

    def test_stacked_five_vertex_has_one(self):
        pg = gen_planar_triangulation(5, seed=0)
        tri = find_separating_triangle(pg)
        assert tri == tuple(sorted(pg.rotation[4]))

    def test_tree_has_none(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        pg = PlaneGraph(g, {0: (1,), 1: (0, 2), 2: (1,)}, (0, 1, 2, 1))
        assert find_separating_triangle(pg) is None

    def test_wheel_has_none(self):
        assert find_separating_triangle(wheel(6)) is None

    def test_matches_networkx_on_stacked_triangulations(self):
        # In a triangulation a triangle has vertices on both sides exactly
        # when deleting its corners disconnects the graph.
        nx = pytest.importorskip("networkx")
        separated = 0
        for n in range(4, 40):
            for seed in range(6):
                pg = gen_planar_triangulation(n, seed)
                nxg = nx.Graph(pg.graph.edge_list())
                triangles = sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(nxg)
                                   if len(c) == 3)
                expected = next((t for t in triangles
                                 if not nx.is_connected(nxg.subgraph(set(nxg) - set(t)))),
                                None)
                separated += expected is not None
                assert find_separating_triangle(pg) == expected, (n, seed)
        assert separated == 210


def test_triangulate_apex_fallback_when_fan_chord_exists():
    # Theta graph (two hubs joined by three paths) plus the hub chord drawn
    # in a different region: the quad face's lowest apexes both conflict
    # with the existing hub edge, so the fan must fall back to another apex.
    g = SimpleGraph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (0, 1)])
    pg = PlaneGraph(g, {0: (1, 3, 2, 4), 1: (0, 4, 2, 3),
                        2: (0, 1), 3: (0, 1), 4: (0, 1)}, (0, 2, 1, 4))
    fs = faces(pg)
    assert sorted(len(f) for f in fs.bounded) == [3, 3, 4]
    out = triangulate_interior(pg)
    assert out.graph.has_edge(2, 3)  # the only non-conflicting quad chord
    assert out.graph.m == g.m + 1
    assert all(len(f) == 3 for f in faces(out).bounded)


def test_triangulate_recovers_randomly_degraded_triangulations():
    for trial in range(40):
        rng = random.Random(trial)
        pg = thin_triangulation(gen_planar_triangulation(rng.randint(5, 12), seed=trial), rng)
        out = triangulate_interior(pg)
        fs = faces(out)
        assert all(len(f) == 3 for f in fs.bounded)
        assert out.outer == pg.outer
        assert pg.graph.edges <= out.graph.edges
        assert out.graph.m == 3 * out.graph.n - 3 - len(pg.outer)


def _chord_shapes():
    for t in range(40):
        rng = random.Random(f"chords/{t}")
        stacked = gen_planar_triangulation(rng.randint(4, 14), t)
        fanned = triangulated_polygon(rng.randint(4, 14), rng)
        yield from (stacked, thin_triangulation(stacked, rng),
                    fanned, thin_triangulation(fanned, rng),
                    glued_triangulations(rng.randint(4, 7), rng.randint(4, 7), t))
    yield from (wheel(p) for p in range(3, 9))
    for k in range(2, 5):
        yield from (grid(k, seed=k), triangulate_interior(grid(k, seed=k)))


def _outcome(fn):
    """What fn returns, or the type of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


def _plane_tables(pg):
    return pg.graph.vertices, pg.graph.edges, pg.graph.adj, pg.rotation, pg.outer


class CountingRows(dict):
    """An adjacency dict that counts its `__getitem__` calls, which a
    C-level `dict(rows)` copy does not make."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return dict.__getitem__(self, v)


def _owned(pg, rows=dict):
    """pg on copies of its two dicts, the adjacency one of type `rows`,
    which `_split` may edit in place."""
    return PlaneGraph._trusted(_OwnedGraph(rows(pg.graph.adj)), dict(pg.rotation), pg.outer)


def _outer_chords(pg):
    outer = pg.outer
    p = len(outer)
    return [(i, j) for i in range(p) for j in range(i + 2, p)
            if (i, j) != (0, p - 1) and pg.graph.has_edge(outer[i], outer[j])]


class TestSideSearchMatchesFaceFlood:
    """`split_on_chord` searches the two sides of a chord in lockstep, and
    `find_separating_triangle` reads one face trace; the face-flood forms
    in `oracles` are the reference.  Every face of each shape is taken as
    the outer face in turn, both ways round, so non-simple outer walks
    occur too."""

    def test_split_on_chord(self):
        seen = Counter()
        for pg in _chord_shapes():
            for walk in trace_faces(pg):
                for outer in (walk, walk[::-1]):
                    q = pg.with_outer(outer)
                    p = len(outer)
                    for chord in _outer_chords(q):
                        got = _outcome(lambda: [_plane_tables(part)
                                                for part in split_on_chord(q, chord)])
                        expected = _outcome(lambda: [_plane_tables(part)
                                                     for part in flood_split_on_chord(q, chord)])
                        assert got == expected, (outer, chord)
                        if isinstance(got, list):  # the solver's unchecked core agrees
                            assert got == [_plane_tables(part)
                                           for part in _split(_owned(q), chord)]
                        seen[isinstance(got, list), len(set(outer)) == p] += 1
        # A chord splits exactly when the outer walk is a simple cycle.
        assert set(seen) == {(True, True), (False, False)}, seen

    def test_find_separating_triangle(self):
        found = Counter()
        for pg in _chord_shapes():
            for walk in trace_faces(pg):
                q = pg.with_outer(walk)
                got = find_separating_triangle(q)
                assert got == flood_find_separating_triangle(q), walk
                found[got is not None] += 1
        assert set(found) == {True, False}


def _keyed_tables(pg):
    """A plane graph's tables, with the key order of its two dicts."""
    return (*_plane_tables(pg), list(pg.graph.adj), list(pg.rotation))


class TestSplitSearchesTheSmallerSide:
    """`_split` edits the two dicts it is handed into the larger piece and
    builds only the smaller piece, by `_piece`: with no search when every
    vertex lies on the outer walk, and otherwise after a lockstep search of
    the two sub-disks.  The split it replaced (`oracles.side_split`: one
    side searched, both pieces built fresh by `_piece`) is the reference,
    on the untouched original, on every table and on the key order of both
    dicts.  Each split reads at most 4 parent rows per vertex of its
    smaller piece, and a split of a piece with no vertex off its outer walk
    at most one per vertex of its smaller piece, plus the chord ends'."""

    @staticmethod
    def _check_split(q, chord):
        """Split an owned copy of q's tables on the chord, check where its
        pieces live and how many parent rows it read, and return the pieces
        and that count."""
        owned = _owned(q, CountingRows)
        adj, rotation = owned.graph.adj, owned.rotation
        pieces = _split(owned, chord)
        small, large = sorted(pieces, key=lambda part: part.graph.adj is adj)
        assert large.graph.adj is adj and large.rotation is rotation
        assert small.graph.adj is not adj and small.rotation is not rotation
        assert small.n <= large.n
        assert adj.reads <= 4 * small.n, (q.outer, chord, adj.reads)
        if q.n == len(q.outer):
            assert adj.reads <= small.n + 2, (q.outer, chord, adj.reads)
        return pieces, adj.reads

    def _check_every_chord(self, pg, walks):
        """Split on every chord of each simple walk, both ways round; the
        parent's tables stay as they were."""
        splits = 0
        for walk in walks:
            if len(set(walk)) != len(walk):
                continue
            for outer in (walk, walk[::-1]):
                q = pg.with_outer(outer)
                before = _keyed_tables(q)
                for chord in _outer_chords(q):
                    pieces, _ = self._check_split(q, chord)
                    assert [_keyed_tables(part) for part in pieces] == \
                        [_keyed_tables(part) for part in side_split(q, chord)], (outer, chord)
                    assert _keyed_tables(q) == before
                    splits += 1
        return splits

    def test_matches_side_split_on_seeded_shapes(self):
        assert sum(self._check_every_chord(pg, trace_faces(pg)) for pg in _chord_shapes()) > 900

    @given(kind=SHAPE_KINDS, seed=st.integers(0, 10 ** 6), data=st.data())
    def test_matches_side_split(self, kind, seed, data):
        pg = drawn_shape(kind, seed)
        self._check_every_chord(pg, [data.draw(st.sampled_from(trace_faces(pg)))])

    def test_reads_rows_of_the_smaller_piece_only(self):
        """On a triangulated 2000-gon, where no piece has a vertex off its
        outer walk, every chord split reads at most one adjacency row of the
        parent per vertex of its smaller piece plus the two chord ends', so
        at most 4 per vertex of its smaller piece."""
        pg = triangulated_polygon(2000, random.Random("smaller-side"))
        worst = 0.0
        for i, x in enumerate(pg.outer):  # on this polygon, outer[k] == k
            for j in sorted(w for w in pg.graph.adj[x] if w > i + 1 and (i, w) != (0, 1999)):
                pieces, reads = self._check_split(pg, (i, j))
                small = min(part.n for part in pieces)
                assert reads <= small + 2, (i, j, reads)
                worst = max(worst, reads / small)
        assert 0 < worst <= 4, worst


def _separating_shapes():
    """Seeded shapes with and without separating triangles: stacked and
    thinned triangulations, triangulated polygons, glued triangulations
    (whose glued corner face is no longer a face), wheels and grids."""
    yield from _chord_shapes()
    for t in range(20):
        rng = random.Random(f"separating/{t}")
        yield gen_planar_triangulation(rng.randint(20, 60), t)
        yield glued_triangulations(rng.randint(3, 12), rng.randint(3, 12), t)
    for k in range(5, 9):
        yield triangulate_interior(grid(k, seed=k))


class TestSeparatingTrianglesFromOneFaceTrace:
    """`find_separating_triangle` reads the face trace once: a triangle
    separates exactly when its vertex triple is not a 3-face.  The side
    search it replaced (`oracles.side_find_separating_triangle`) is the
    reference, with every face taken as the outer face in turn."""

    def test_matches_side_search_on_seeded_shapes(self):
        found = Counter()
        for pg in _separating_shapes():
            for walk in trace_faces(pg):
                q = pg.with_outer(walk)
                got = find_separating_triangle(q)
                assert got == side_find_separating_triangle(q), walk
                found[got is not None] += 1
        assert found[True] > 500 and found[False] > 500, found

    @given(kind=SHAPE_KINDS, seed=st.integers(0, 10 ** 6), data=st.data())
    def test_matches_side_search(self, kind, seed, data):
        pg = drawn_shape(kind, seed)
        q = pg.with_outer(data.draw(st.sampled_from(trace_faces(pg))))
        assert find_separating_triangle(q) == side_find_separating_triangle(q)

    def test_rejects_an_invalid_embedding_as_the_side_search_does(self):
        pg = gen_planar_triangulation(6, seed=1)
        bad = pg.with_outer(pg.outer[:2])  # not a face
        assert _outcome(lambda: find_separating_triangle(bad)) == _outcome(
            lambda: side_find_separating_triangle(bad)) == InvalidEmbedding


def test_split_pieces_are_plane_graphs_by_networkx():
    """Both pieces of every chord split of every simple face walk of the
    corpus, through `split_on_chord` and through the solver's `_split`, are
    planar by networkx's check_planarity, and their rotation systems pass
    PlanarEmbedding.check_structure."""
    nx = pytest.importorskip("networkx")
    pieces = 0
    for pg in _chord_shapes():
        for walk in trace_faces(pg):
            if len(set(walk)) != len(walk):
                continue
            for outer in (walk, walk[::-1]):
                q = pg.with_outer(outer)
                for chord in _outer_chords(q):
                    for part in (*split_on_chord(q, chord), *_split(_owned(q), chord)):
                        nxg = nx.Graph(part.graph.edge_list())
                        assert nx.check_planarity(nxg)[0], (outer, chord)
                        emb = nx.PlanarEmbedding()
                        emb.set_data({v: list(rot) for v, rot in part.rotation.items()})
                        emb.check_structure()
                        pieces += 1
    assert pieces > 1000, pieces


def _rotations(walk):
    for w in (walk, walk[::-1]):
        for k in range(len(w)):
            yield w[k:] + w[:k]


def _error_outcome(fn):
    """What fn returns, or the class and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def test_split_on_chord_keeps_its_checks():
    """The solver splits through `_split`, which skips the embedding and
    simple-cycle checks; the public `split_on_chord` keeps both."""
    pg = triangulate_interior(polygon(6))
    chord = find_chord(pg)
    v = pg.outer[chord[0]]
    rot = dict(pg.rotation)
    rot[v] = rot[v][1::-1] + rot[v][2:]
    with pytest.raises(InvalidEmbedding):
        split_on_chord(PlaneGraph(pg.graph, rot, pg.outer), chord)
    rejected = 0
    for pg in _chord_shapes():
        for walk in trace_faces(pg):
            if len(set(walk)) != len(walk):
                for chord in _outer_chords(pg.with_outer(walk)):
                    with pytest.raises(NotAChord, match="does not separate"):
                        split_on_chord(pg.with_outer(walk), chord)
                    rejected += 1
    assert rejected > 0


def test_split_on_chord_keeps_its_input():
    """`_split` edits the tables it is handed into the larger piece, so
    `split_on_chord` hands it copies: after a split on every chord of every
    simple face walk of the seeded shapes, the caller's adjacency and
    rotation dicts are the same objects, with the same rows in the same key
    order."""
    splits = 0
    for pg in _chord_shapes():
        adj, rotation = pg.graph.adj, pg.rotation
        before = list(adj.items()), list(rotation.items())
        for walk in trace_faces(pg):
            if len(set(walk)) != len(walk):
                continue
            q = pg.with_outer(walk)
            for chord in _outer_chords(q):
                split_on_chord(q, chord)
                assert q.graph.adj is adj and q.rotation is rotation
                assert (list(adj.items()), list(rotation.items())) == before, (walk, chord)
                splits += 1
    assert splits > 450, splits


class TestOuterFaceMatch:
    """`faces` finds the outer face by cyclic comparison; the canonical-form
    search in `oracles` is the reference.  Every face is taken as the outer
    one, both ways round and from a random start."""

    def test_same_outer_index_or_same_error(self):
        seen = Counter()
        for t, pg in enumerate(_chord_shapes()):
            rng = random.Random(f"outer-match/{t}")
            walks = trace_faces(pg)
            candidates = []
            for w in walks:
                k = rng.randrange(len(w))
                candidates += [w, w[::-1], w[k:] + w[:k], (w[k:] + w[:k])[::-1]]
            # Cycles that are not faces: triangles around stacked vertices,
            # face walks with a corner changed or cut short, and no walk.
            candidates += [tuple(sorted(pg.graph.adj[v])) for v in pg.graph.vertices[:4]
                           if pg.graph.degree(v) == 3]
            for w in rng.sample(walks, min(3, len(walks))):
                k = rng.randrange(len(w))
                candidates.append(w[:k] + (rng.choice(pg.graph.vertices),) + w[k + 1:])
                candidates.append(w[:-1])
            candidates.append(())
            for outer in candidates:
                q = pg.with_outer(outer)
                got = _error_outcome(lambda: faces(q).outer_index)
                assert got == _error_outcome(lambda: canonical_faces(q).outer_index), outer
                seen[isinstance(got, int), len(set(outer)) == len(outer)] += 1
        assert set(seen) == {(a, b) for a in (True, False) for b in (True, False)}, seen

    def test_broken_embeddings_give_the_same_error(self):
        pg = gen_planar_triangulation(8, seed=4)
        rot = dict(pg.rotation)
        rot[0] = rot[0][1::-1] + rot[0][2:]
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        for q in (PlaneGraph(pg.graph, rot, pg.outer),
                  PlaneGraph(g, {0: (1,), 1: (0,), 2: (3,), 3: (2,)}, (0, 1)),
                  PlaneGraph(SimpleGraph(1), {}, (0,)),
                  PlaneGraph(SimpleGraph(1), {}, (0,)).with_outer((0, 1, 2))):
            got = _error_outcome(lambda: faces(q).outer_index)
            assert got == _error_outcome(lambda: canonical_faces(q).outer_index)

    def test_one_vertex_has_a_face_only_for_its_own_outer_walk(self):
        lone = PlaneGraph(SimpleGraph(1), {}, (0,))
        for outer in ((), (0,)):
            assert faces(lone.with_outer(outer)) == FaceSet(((),), 0)
        for outer in ((0, 1, 2), (1,), (0, 0)):
            with pytest.raises(InvalidEmbedding, match="^Euler check failed: 1 - 0 \\+ 0 != 2$"):
                faces(lone.with_outer(outer))


def test_find_chord_matches_pairwise_scan():
    found = Counter()
    for pg in _chord_shapes():
        for walk in trace_faces(pg):
            for outer in _rotations(walk):
                got = find_chord(pg.with_outer(outer))
                assert got == scan_find_chord(pg.with_outer(outer)), outer
                found[got is not None] += 1
    assert set(found) == {True, False}


class TestTwoConnected:
    """`is_two_connected` against networkx, which shares no code with it."""

    def test_matches_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        seen = set()
        for t in range(1200):
            rng = random.Random(f"biconnected/{t}")
            n = 1 + t % 12
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.9]), rng)
            nxg = nx.Graph(g.edge_list())
            nxg.add_nodes_from(g.vertices)
            expected = n >= 3 and nx.is_biconnected(nxg)
            assert is_two_connected(g) == expected, (t, g.edge_list())
            seen.add(expected)
        assert seen == {True, False}

    def test_matches_networkx_on_plane_shapes(self):
        nx = pytest.importorskip("networkx")
        shapes = [gen_planar_triangulation(n, seed) for n in range(3, 30) for seed in range(3)]
        shapes += [wheel(p) for p in range(3, 20)] + [polygon(p) for p in range(3, 20)]
        shapes += [grid(k) for k in range(2, 8)]
        for pg in shapes:
            g = pg.graph
            assert is_two_connected(g) == nx.is_biconnected(nx.Graph(g.edge_list()))
            assert is_two_connected(g)
            for v in g.vertices[:3]:
                h = g.delete(v)
                assert is_two_connected(h) == (h.n >= 3 and nx.is_biconnected(
                    nx.Graph(h.edge_list())))

    def test_deep_graphs_need_no_recursion(self):
        n = 5000
        assert is_two_connected(cycle_graph(n))
        assert not is_two_connected(path_graph(n))
        # Cycles 0..half-1 and 0, half..n-1, sharing only vertex 0.
        half = n // 2
        edges = [(i, i + 1) for i in range(half - 1)] + [(half - 1, 0)]
        edges += [(0, half)] + [(i, i + 1) for i in range(half, n - 1)] + [(n - 1, 0)]
        g = SimpleGraph(n, edges)
        assert g.degree(0) == 4 and all(g.degree(v) == 2 for v in range(1, n))
        assert not is_two_connected(g)


class TestOneFaceTrace:
    """`trace_faces` walks as the dart-tuple trace in `oracles` does, and
    `triangulate_interior` reads 2-connectivity off its walks: a connected
    plane graph of at least 3 vertices is 2-connected exactly when every
    face walk is simple."""

    def test_matches_side_trace_on_seeded_shapes(self):
        through_cut_vertex = 0
        for pg in _chord_shapes():
            walks = trace_faces(pg)
            assert walks == side_trace_faces(pg)
            through_cut_vertex += any(len(set(w)) != len(w) for w in walks)
        assert through_cut_vertex >= 40, through_cut_vertex  # the glued shapes

    @given(kind=SHAPE_KINDS, seed=st.integers(0, 10 ** 6), data=st.data())
    def test_matches_side_trace(self, kind, seed, data):
        """On a drawn shape, and on it with one rotation row scrambled, which
        is no longer a plane embedding but still has a face trace."""
        pg = drawn_shape(kind, seed)
        assert trace_faces(pg) == side_trace_faces(pg)
        v = data.draw(st.sampled_from(pg.graph.vertices))
        rotation = dict(pg.rotation)
        rotation[v] = tuple(data.draw(st.permutations(rotation[v])))
        scrambled = PlaneGraph(pg.graph, rotation, pg.outer)
        assert trace_faces(scrambled) == side_trace_faces(scrambled)

    @staticmethod
    def _embeddings(nx):
        """(networkx graph, plane graph) for seeded planar graphs of 3 to 14
        vertices in networkx's embedding, both ways round.  A third are a
        random tree plus random edges, so connected, mostly with bridges; a
        third are a stacked triangulation with random edges removed, which
        may leave it 2-connected, with bridges, or disconnected; a third
        are two such triangulations on vertices 0..a-1 and a-1..n-1, which
        share the cut vertex a - 1 and often no bridge."""
        for t in range(600):
            rng = random.Random(f"face-rule/{t}")
            n = 3 + t % 12
            if t % 3 == 0:
                p = rng.choice([0.0, 0.1, 0.25, 0.5])
                edges = {(rng.randrange(v), v) for v in range(1, n)}
                edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
            else:
                a = rng.randint(3, n - 2) if t % 3 == 2 and n >= 5 else n
                keep = rng.choice([0.5, 0.65, 0.8, 1.0] if a == n else [0.8, 1.0, 1.0])
                parts = [gen_planar_triangulation(a, t).graph.edges]
                if a < n:
                    second = gen_planar_triangulation(n - a + 1, t + 1).graph.edges
                    parts.append({(u + a - 1, v + a - 1) for u, v in second})
                edges = {e for part in parts for e in part if rng.random() < keep}
            nxg = nx.Graph(edges)
            nxg.add_nodes_from(range(n))
            planar, emb = nx.check_planarity(nxg)
            if planar:
                g = SimpleGraph(n, edges)
                cw = {v: tuple(emb.neighbors_cw_order(v)) for v in range(n)}
                for rotation in (cw, {v: row[::-1] for v, row in cw.items()}):
                    yield nxg, PlaneGraph(g, rotation, ())

    def test_face_walks_are_simple_exactly_when_biconnected(self):
        """Diestel, Graph Theory, Prop. 4.2.6, on every seeded embedding
        where the Euler count holds: networkx's, and each with one
        rotation row reversed."""
        nx = pytest.importorskip("networkx")
        seen = Counter()
        for nxg, pg in self._embeddings(nx):
            if not nx.is_connected(nxg):
                continue
            v = max(pg.graph.vertices, key=pg.graph.degree)
            rotation = {**pg.rotation, v: pg.rotation[v][::-1]}
            for q in (pg, PlaneGraph(pg.graph, rotation, ())):
                walks = trace_faces(q)
                if q.n - q.graph.m + len(walks) != 2:
                    assert q is not pg
                    continue
                simple = all(len(set(w)) == len(w) for w in walks)
                assert simple == nx.is_biconnected(nxg), (nxg.edges, q.rotation)
                seen[simple, any(nx.bridges(nxg))] += 1
        # (simple, has a bridge): 2-connected, cut vertices but no bridge, bridges
        assert sum(seen.values()) > 1200 and min(
            seen[True, False], seen[False, False], seen[False, True]) > 200, seen

    @staticmethod
    def _input_class(nx, nxg, pg) -> str:
        """The class of an input by the checks in their old order, told by
        networkx and the dart-tuple trace."""
        if len(set(pg.outer)) != len(pg.outer) or len(pg.outer) < 3:
            return "outer walk not simple"
        if not nx.is_connected(nxg):
            return "disconnected"
        kind = "2-connected" if nx.is_biconnected(nxg) else "cut vertex"
        walks = side_trace_faces(pg)
        if pg.n - pg.graph.m + len(walks) != 2:
            return f"{kind}, Euler count fails"
        if not any(w in _rotations(pg.outer) for w in walks):
            return f"{kind}, outer walk not a face"
        return f"{kind}, valid embedding"

    def test_errors_come_in_the_old_order(self):
        """Every input gets the type and message of the old order of checks
        (`oracles.two_pass_triangulate_checks`), from `triangulate_interior`
        and from `solve_planar_dpg52`, which reports a disconnected graph
        itself.  The inputs are the seeded embeddings and each with one
        rotation row reversed, each with every face walk as its outer walk,
        and with three vertices that need not bound a face."""
        nx = pytest.importorskip("networkx")
        seen = Counter()
        for t, (nxg, pg) in enumerate(self._embeddings(nx)):
            rng = random.Random(f"error-order/{t}")
            v = rng.choice(pg.graph.vertices)
            rotation = {**pg.rotation, v: pg.rotation[v][::-1]}
            h = gen_random_cover(pg.graph, 5, 5, 1.0, t)
            f = gen_random_budget(pg.graph, 5, 5, 2, t, lists=h.lists)
            for embedded in (pg, PlaneGraph(pg.graph, rotation, ())):
                for outer in side_trace_faces(embedded) + [tuple(rng.sample(pg.graph.vertices, 3))]:
                    q = embedded.with_outer(outer)
                    expected = _error_outcome(lambda: two_pass_triangulate_checks(q) or "ok")
                    got = _error_outcome(lambda: triangulate_interior(q) and "ok")
                    assert got == expected, (nxg.edges, q.rotation, outer)
                    if not nx.is_connected(nxg):
                        expected = NotTwoConnected, "graph must be connected"
                    got = _error_outcome(lambda: solve_planar_dpg52(q, h, f) and "ok")
                    assert got == expected, (nxg.edges, q.rotation, outer)
                    seen[self._input_class(nx, nxg, q), got] += 1
        classes = Counter(kind for kind, _ in seen.elements())
        assert {kind for kind, count in classes.items() if count >= 100} == {
            "outer walk not simple", "disconnected",
            *(f"{kind}, {case}" for kind in ("2-connected", "cut vertex")
              for case in ("Euler count fails", "outer walk not a face", "valid embedding"))
        }, classes
        assert {got for kind, got in seen if kind == "cut vertex, valid embedding"} == {
            (NotTwoConnected, "triangulation needs a 2-connected plane graph")}
        assert {got for kind, got in seen if kind == "2-connected, valid embedding"} == {"ok"}
