import pytest

from dpfcolor import (
    PlaneGraph,
    SimpleGraph,
    faces,
    fan_neighbors,
    find_chord,
    find_separating_triangle,
    gen_planar_triangulation,
    split_on_chord,
    triangulate_interior,
)
from dpfcolor.errors import (
    InvalidEmbedding,
    NotAChord,
    NotOnOuterCycle,
    NotTwoConnected,
)

from oracles import polygon, wheel


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


def _remove_edge(pg, u, v):
    key = (u, v) if u < v else (v, u)
    g2 = SimpleGraph.on_vertices(pg.graph.vertices, pg.graph.edges - {key})
    rot = {w: tuple(x for x in pg.rotation[w]
                    if not (w in key and x in key and w != x))
           for w in g2.vertices}
    return PlaneGraph(g2, rot, pg.outer)


def test_triangulate_recovers_randomly_degraded_triangulations():
    import random
    from dpfcolor.planar import is_two_connected

    for trial in range(40):
        rng = random.Random(trial)
        pg = gen_planar_triangulation(rng.randint(5, 12), seed=trial)
        outer_edges = {(min(a, b), max(a, b))
                       for a, b in zip(pg.outer, pg.outer[1:] + pg.outer[:1])}
        removable = [e for e in sorted(pg.graph.edges) if e not in outer_edges]
        rng.shuffle(removable)
        for e in removable[: rng.randint(0, len(removable))]:
            if e in pg.graph.edges:
                cand = _remove_edge(pg, *e)
                if is_two_connected(cand.graph):
                    pg = cand
        out = triangulate_interior(pg)
        fs = faces(out)
        assert all(len(f) == 3 for f in fs.bounded)
        assert out.outer == pg.outer
        assert pg.graph.edges <= out.graph.edges
        assert out.graph.m == 3 * out.graph.n - 3 - len(pg.outer)
