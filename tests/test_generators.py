import random

import pytest

import oracles
from dpfcolor import (
    SimpleGraph,
    complete_graph,
    faces,
    gen_planar_triangulation,
    gen_random_budget,
    gen_random_cover,
    path_graph,
)
from dpfcolor.errors import InfeasibleParameters


class TestTriangulations:
    def test_n3_is_triangle(self):
        pg = gen_planar_triangulation(3, seed=0)
        assert pg.graph.m == 3 and pg.graph.n == 3

    def test_n4_is_k4_for_any_seed(self):
        for seed in (0, 1, 99):
            pg = gen_planar_triangulation(4, seed=seed)
            assert pg.graph == complete_graph(4)

    def test_n10_seed7_edge_count(self):
        assert gen_planar_triangulation(10, seed=7).graph.m == 24

    def test_embedding_valid_and_edge_count_up_to_50(self):
        for n in (3, 5, 8, 13, 21, 34, 50):
            for seed in (0, 1, 2):
                pg = gen_planar_triangulation(n, seed=seed)
                assert pg.graph.m == 3 * n - 6
                fs = faces(pg)
                assert len(fs.faces) == 2 * n - 4
                assert all(len(f) == 3 for f in fs.faces)

    def test_deterministic(self):
        a = gen_planar_triangulation(12, seed=5)
        b = gen_planar_triangulation(12, seed=5)
        assert a.graph == b.graph and a.rotation == b.rotation and a.outer == b.outer

    def test_too_small_rejected(self):
        with pytest.raises(InfeasibleParameters):
            gen_planar_triangulation(2, seed=0)


class TestCovers:
    def test_density_zero_all_empty(self):
        g = complete_graph(5)
        h = gen_random_cover(g, s=3, list_size=2, density=0.0, seed=1)
        assert not h.matching_items()

    def test_density_one_matches_whole_smaller_list(self):
        g = complete_graph(5)
        h = gen_random_cover(g, s=4, list_size=3, density=1.0, seed=2)
        for (u, v), pairs in h.matching_items():
            assert len(pairs) == 3

    def test_lists_have_requested_size(self):
        g = path_graph(6)
        h = gen_random_cover(g, s=5, list_size=4, density=0.5, seed=3)
        assert all(len(h.list_of(v)) == 4 for v in g.vertices)

    def test_deterministic(self):
        g = complete_graph(5)
        assert gen_random_cover(g, 4, 3, 0.7, seed=9) == gen_random_cover(g, 4, 3, 0.7, seed=9)

    def test_bad_parameters(self):
        g = complete_graph(3)
        with pytest.raises(InfeasibleParameters):
            gen_random_cover(g, s=3, list_size=4, density=0.5, seed=0)
        with pytest.raises(InfeasibleParameters):
            gen_random_cover(g, s=3, list_size=2, density=1.5, seed=0)


class TestBudgets:
    def test_totals_and_cap(self):
        g = complete_graph(6)
        f = gen_random_budget(g, s=5, sum_min=5, cap=2, seed=4)
        for v in g.vertices:
            assert f.total(v) == 5
            assert all(f.get(v, i) <= 2 for i in range(1, 6))

    def test_support_respects_lists(self):
        g = complete_graph(5)
        h = gen_random_cover(g, s=5, list_size=3, density=0.0, seed=5)
        f = gen_random_budget(g, s=5, sum_min=4, cap=2, seed=6, lists=h.lists)
        for v in g.vertices:
            assert set(f.support(v)) <= set(h.list_of(v))

    def test_infeasible_total(self):
        g = complete_graph(3)
        h = gen_random_cover(g, s=3, list_size=2, density=0.0, seed=0)
        with pytest.raises(InfeasibleParameters):
            gen_random_budget(g, s=3, sum_min=5, cap=2, seed=0, lists=h.lists)

    def test_deterministic(self):
        g = complete_graph(4)
        assert gen_random_budget(g, 4, 4, 2, seed=8) == gen_random_budget(g, 4, 4, 2, seed=8)


# -- the draws against the standard library's --------------------------------
#
# The generators draw from `getrandbits` alone; `oracles.sample_gen_*` are
# the same generators written on `Random.randrange`, `.sample` and
# `.choice`, run on this interpreter.  Every table is compared in its key
# order, and an error by its type and message.

def plane_tables(pg):
    return (pg.graph.vertices, [(v, sorted(row)) for v, row in pg.graph.adj.items()],
            list(pg.rotation.items()), pg.outer)


def cover_tables(h):
    return (h.s, [(v, sorted(cs)) for v, cs in h.lists.items()],
            [(e, list(m.items())) for e, m in h._matchings.items()])


def budget_tables(f):
    return f.s, f.cap, [(v, list(row.items())) for v, row in f._rows.items()]


def outcome(tables, build, *args, **kwargs):
    """The tables of what `build` returns, or the type and message of what it raises."""
    try:
        return tables(build(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


GRAPHS = {
    "stacked": gen_planar_triangulation(40, seed=3).graph,
    "k6": complete_graph(6),
    "path": path_graph(7),
    "lone": SimpleGraph(1),
}


@pytest.mark.parametrize("n", [0, 2, 3, 4, 5, 9, 64, 300])
def test_triangulations_draw_as_randrange(n):
    for seed in range(12):
        assert (outcome(plane_tables, gen_planar_triangulation, n, seed)
                == outcome(plane_tables, oracles.sample_gen_planar_triangulation, n, seed))


@pytest.mark.parametrize("s, list_size, density", [
    (5, 5, 1.0), (5, 3, 0.5), (5, 2, 0.0), (1, 1, 1.0), (4, 4, 0.5),  # list_size == s
    (30, 4, 0.5),  # lists sampled by redrawing taken positions: s > 21, k <= 5
    (30, 6, 1.0),  # a pool again: s <= 21 + 4 ** ceil(log(18, 4)) = 85
    (50, 6, 0.5),  # a pool, which a bound from log(6, 4) instead of log(18, 4) would miss
    (200, 7, 0.6),  # redrawing with k > 5: 200 > 21 + 64
    (60, 30, 0.1),  # each matching redraws: 3 of 30
    (100, 100, 0.06),  # each matching redraws, k > 5: 6 of 100
    (40, 30, 1.0),  # each matching from a pool of 30, k > 5
    (5, 0, 0.5), (5, 6, 0.5), (5, 3, -0.1), (5, 3, 1.5), (0, 1, 0.5),  # errors
])
def test_covers_draw_as_sample(s, list_size, density):
    for name, g in GRAPHS.items():
        for seed in range(5):
            assert (outcome(cover_tables, gen_random_cover, g, s, list_size, density, seed)
                    == outcome(cover_tables, oracles.sample_gen_random_cover,
                               g, s, list_size, density, seed)), (name, seed)


@pytest.mark.parametrize("s, sum_min, cap", [
    (5, 5, 2), (5, 0, 2), (5, 5, 1), (5, 10, 2), (3, 6, 2), (8, 5, 3), (30, 9, 1),
    (5, 0, 0), (5, 1, 0), (5, 11, 2), (0, 0, 2), (0, 1, 2),  # errors among them
])
@pytest.mark.parametrize("lists", ["none", "cover", "above s", "some missing"])
def test_budgets_draw_as_choice(s, sum_min, cap, lists):
    for name, g in GRAPHS.items():
        for seed in range(5):
            given = None
            if lists != "none":
                h = gen_random_cover(g, max(s, 7), min(max(s, 1), 4), 0.0, seed + 50)
                given = dict(h.lists)
                if lists == "above s":  # colors up to max(s, 7), beyond s = 5
                    given = {v: cs | {s + 2} for v, cs in given.items()}
                elif lists == "some missing":
                    given = {v: cs for v, cs in given.items() if v % 3}
            got = outcome(budget_tables, gen_random_budget, g, s, sum_min, cap, seed, lists=given)
            assert got == outcome(budget_tables, oracles.sample_gen_random_budget,
                                  g, s, sum_min, cap, seed, lists=given), (name, seed)
            if s < 1:
                assert got == (InfeasibleParameters, f"need s >= 1, got {s}"), (name, seed)
            elif lists == "above s":  # every list holds s + 2
                assert got == (InfeasibleParameters,
                               f"list of {g.vertices[0]} has colors outside 1..{s}"), (name, seed)


@pytest.mark.parametrize("s, lists, message", [
    (5, {0: {1, 2}, 1: {3, 7}, 2: {6}}, "list of 1 has colors outside 1..5"),
    (5, {0: {0, 1}}, "list of 0 has colors outside 1..5"),
    (0, {}, "need s >= 1, got 0"),
    (0, None, "need s >= 1, got 0"),
    (-2, None, "need s >= 1, got -2"),
])
def test_colors_outside_1_to_s_rejected_before_any_draw(monkeypatch, s, lists, message):
    """A list color outside 1..s is an infeasible parameter, found before any
    draw: the budget's rows are then valid by construction."""
    monkeypatch.setattr(random.Random, "getrandbits", refuse)
    with pytest.raises(InfeasibleParameters, match=f"^{message}$"):
        gen_random_budget(complete_graph(3), s, 5, 2, seed=0, lists=lists)


def test_lists_of_vertices_outside_the_graph_are_not_read():
    f = gen_random_budget(complete_graph(3), 5, 5, 2, seed=0,
                          lists={v: frozenset({1, 2, 3}) for v in range(3)} | {9: frozenset({8})})
    assert f == oracles.sample_gen_random_budget(complete_graph(3), 5, 5, 2, 0,
                                                 lists={v: {1, 2, 3} for v in range(3)})


def refuse(*args, **kwargs):
    raise AssertionError("a generator called a patched method of random.Random")


def test_generators_call_no_sampling_method_of_random(monkeypatch):
    for method in ("sample", "choice", "randrange", "_randbelow"):
        monkeypatch.setattr(random.Random, method, refuse)
    pg = gen_planar_triangulation(50, seed=1)
    for s, list_size, density in ((5, 5, 1.0), (30, 4, 0.5), (100, 100, 0.06)):
        h = gen_random_cover(pg.graph, s, list_size, density, seed=2)
        assert h.matching_items() or density < 0.1
        f = gen_random_budget(pg.graph, s, 5, 2, seed=3, lists=h.lists)
        assert all(f.total(v) == 5 for v in pg.graph.vertices)
    assert gen_random_budget(pg.graph, 5, 5, 2, seed=4).total(0) == 5


@pytest.mark.parametrize("sum_min, cap, message", [
    (-1, 2, "need sum_min >= 0, got -1"),
    (-3, -1, "need sum_min >= 0, got -3"),
    (0, -1, "need cap >= 0, got -1"),
    (4, -2, "need cap >= 0, got -2"),
])
def test_negative_total_or_cap_rejected_before_any_draw(monkeypatch, sum_min, cap, message):
    monkeypatch.setattr(random.Random, "getrandbits", refuse)
    with pytest.raises(InfeasibleParameters, match=message):
        gen_random_budget(complete_graph(3), 5, sum_min, cap, seed=0)
