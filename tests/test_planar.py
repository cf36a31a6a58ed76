import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfcolor import (
    PlaneGraph,
    SimpleGraph,
    cycle_graph,
    faces,
    fan_neighbors,
    find_chord,
    find_separating_triangle,
    gen_planar_triangulation,
    path_graph,
    split_on_chord,
    triangulate_interior,
)
from dpfcolor.errors import (
    InvalidEmbedding,
    NotAChord,
    NotOnOuterCycle,
    NotTwoConnected,
)
from dpfcolor.planar import _split, is_two_connected, trace_faces

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
    thin_triangulation,
    triangulated_polygon,
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
                            assert got == [_plane_tables(part) for part in _split(q, chord)]
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
    """`_split` searches the two sub-disks in lockstep, builds the piece of
    the side exhausted first by `_piece` and the other from a copy of the
    parent's dicts.  The split it replaced (`oracles.side_split`: one side
    searched, both pieces built by `_piece`) is the reference, on every
    table and on the key order of both dicts, and the parent's tables stay
    as they were."""

    @staticmethod
    def _check_every_chord(pg, walks):
        """Split on every chord of each simple walk, both ways round."""
        splits = 0
        for walk in walks:
            if len(set(walk)) != len(walk):
                continue
            for outer in (walk, walk[::-1]):
                q = pg.with_outer(outer)
                before = _keyed_tables(q)
                for chord in _outer_chords(q):
                    got = [_keyed_tables(part) for part in _split(q, chord)]
                    assert got == [_keyed_tables(part) for part in side_split(q, chord)], \
                        (outer, chord)
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
        """On a triangulated 2000-gon, every chord split reads at most 4
        adjacency rows of the parent per vertex of its smaller piece.  The
        rows are counted by a dict that counts `__getitem__`, which a
        C-level `dict(rows)` copy does not call."""

        class CountingRows(dict):
            reads = 0

            def __getitem__(self, v):
                self.reads += 1
                return dict.__getitem__(self, v)

        pg = triangulated_polygon(2000, random.Random("smaller-side"))
        rows = CountingRows(pg.graph.adj)
        q = PlaneGraph._trusted(SimpleGraph._trusted(pg.graph.vertices, rows), pg.rotation,
                                pg.outer)
        worst = 0.0
        for i, x in enumerate(q.outer):  # on this polygon, outer[k] == k
            for j in sorted(w for w in pg.graph.adj[x] if w > i + 1 and (i, w) != (0, 1999)):
                rows.reads = 0
                pieces = _split(q, (i, j))
                worst = max(worst, rows.reads / min(part.n for part in pieces))
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
                    for part in (*split_on_chord(q, chord), *_split(q, chord)):
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
                  PlaneGraph(SimpleGraph(1), {}, (0,))):
            got = _error_outcome(lambda: faces(q).outer_index)
            assert got == _error_outcome(lambda: canonical_faces(q).outer_index)


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
