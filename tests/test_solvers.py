import random
import sys
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfcolor import (
    Budget,
    Cover,
    PlaneGraph,
    SimpleGraph,
    budget_list,
    complete_graph,
    cycle_graph,
    extend_over_configuration,
    extend_precolored_triangle,
    gen_planar_triangulation,
    gen_random_budget,
    gen_random_cover,
    identity_cover,
    induced_pair_graph,
    order_is_valid,
    solve_exact,
    solve_planar_dpg52,
    triangulate_interior,
    verify_coloring,
)
from dpfcolor.errors import (
    BadBudget,
    InternalInvariantViolated,
    InvalidEmbedding,
    InvalidInput,
    InvalidPrecoloring,
    LimitExceeded,
    NotInFamily,
    NotTwoConnected,
)
from dpfcolor import coloring, planar, solvers
from dpfcolor.cycles import FamilyA, check_family
from dpfcolor.degeneracy import _orderable_with
from dpfcolor.graphs import _OwnedGraph
from dpfcolor.planar import delete_vertex, fan_neighbors

from probe import Probe
from strategies import SHAPE_KINDS

from oracles import (
    coloring_exists_by_enumeration,
    composed_name_row,
    drawn_shape,
    fan_configuration_instance,
    grid,
    input_tables,
    polygon,
    random_graph,
    reference_solve_exact,
    scan_find_chord,
    three_check_combine_colorings,
    triangulated_polygon,
    wheel,
    whole_graph_reinsertion_check,
)


def identity_instance(g, colors, value=1, cap=None):
    lists = {v: set(colors) for v in g.vertices}
    h = identity_cover(g, lists, s=max(colors))
    f = Budget(max(colors), cap or value,
               {(v, c): value for v in g.vertices for c in colors})
    return h, f


def _cover_and_budget(pg, seed, budget_seed, list_size=5, density=1.0):
    """A random cover of 5 colors and a budget of total 5 and cap 2 on pg."""
    h = gen_random_cover(pg.graph, 5, list_size, density, seed=seed)
    return h, gen_random_budget(pg.graph, 5, 5, 2, seed=budget_seed, lists=h.lists)


def disk(n, seed):
    pg = gen_planar_triangulation(n, seed)
    fan = fan_neighbors(pg, 0)
    return delete_vertex(pg, 0, (1, 2) + fan[1:-1])


class TestSolveExact:
    def test_k3_two_colors_unit_budgets_absent(self):
        g = complete_graph(3)
        h, f = identity_instance(g, (1, 2))
        assert solve_exact(g, h, f) is None

    def test_k3_two_colors_budget_two_found(self):
        g = complete_graph(3)
        h, f = identity_instance(g, (1, 2), value=2)
        res = solve_exact(g, h, f)
        assert res is not None
        assert coloring_exists_by_enumeration(g, h, f)
        assert order_is_valid(induced_pair_graph(g, h, f, res[0]), res[1])

    def test_k5_four_colors_absent(self):
        g = complete_graph(5)
        h, f = identity_instance(g, (1, 2, 3, 4))
        assert solve_exact(g, h, f) is None

    def test_limit(self):
        g = complete_graph(4)
        h, f = identity_instance(g, (1, 2, 3, 4))
        with pytest.raises(LimitExceeded):
            solve_exact(g, h, f, limit=3)

    def test_empty_graph(self):
        g = SimpleGraph(0)
        h = Cover(1, {})
        f = Budget(1, 1, {})
        assert solve_exact(g, h, f) == ({}, ())

    def test_precoloring_respected(self):
        g = cycle_graph(4)
        h, f = identity_instance(g, (1, 2))
        res = solve_exact(g, h, f, precolored={0: 2})
        assert res is not None and res[0][0] == 2

    def test_invalid_precoloring_rejected(self):
        g = complete_graph(2)
        h, f = identity_instance(g, (1,))
        with pytest.raises(InvalidPrecoloring):
            solve_exact(g, h, f, precolored={0: 1, 1: 1})
        with pytest.raises(InvalidPrecoloring):
            solve_exact(g, h, f, precolored={7: 1})

    def test_agrees_with_enumeration_on_seeded_instances(self):
        rng = random.Random(12345)
        found = absent = 0
        for _ in range(120):
            n = rng.randint(1, 6)
            g = random_graph(n, rng.random(), rng)
            s = rng.randint(1, 3)
            list_size = rng.randint(1, s)
            h = gen_random_cover(g, s, list_size,
                                 rng.choice([0.0, 0.5, 1.0]), seed=rng.randrange(10**6))
            f = gen_random_budget(g, s, rng.randint(0, 2 * list_size), 2,
                                  seed=rng.randrange(10**6), lists=h.lists)
            stats = {}
            got = solve_exact(g, h, f, stats=stats)
            expected = coloring_exists_by_enumeration(g, h, f)
            assert (got is not None) == expected
            assert stats["nodes"] >= 0
            if got is not None:
                found += 1
                assert verify_coloring(g, h, f, got[0]) is not None
            else:
                absent += 1
        assert found and absent  # the sample must exercise both verdicts

    def test_verdict_is_invariant_under_vertex_renumbering(self):
        """Renumbering the vertices is a graph isomorphism, so the verdict
        cannot change, and a renumbered answer verifies on the renumbered
        instance."""
        verdicts = set()
        for t in range(150):
            rng = random.Random(f"renumber/{t}")
            n = rng.randint(1, 7)
            g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng)
            s = rng.randint(1, 4)
            list_size = rng.randint(1, s)
            h = gen_random_cover(g, s, list_size, rng.choice([0.5, 1.0]),
                                 seed=rng.randrange(10**6))
            f = gen_random_budget(g, s, rng.randint(1, 2 * list_size), 2,
                                  seed=rng.randrange(10**6), lists=h.lists)
            new_ids = rng.sample(range(3 * n), n)
            pi = dict(zip(g.vertices, new_ids))
            g2 = SimpleGraph.on_vertices(new_ids, [(pi[u], pi[v]) for u, v in g.edges])
            h2 = Cover(s, {pi[v]: cs for v, cs in h.lists.items()},
                       {(pi[u], pi[v]): pairs for (u, v), pairs in h.matching_items()})
            f2 = Budget(s, f.cap, {(pi[v], i): val for (v, i), val in f.items()})
            got, got2 = solve_exact(g, h, f), solve_exact(g2, h2, f2)
            assert (got is None) == (got2 is None), t
            if got2 is not None:
                assert verify_coloring(g2, h2, f2, got2[0]) is not None
            verdicts.add(got is None)
        assert verdicts == {True, False}

    def test_deterministic_output(self):
        g = cycle_graph(5)
        h, f = identity_instance(g, (1, 2, 3))
        assert solve_exact(g, h, f) == solve_exact(g, h, f)

    def test_search_depth_needs_no_python_stack(self):
        """The search goes one level deeper per vertex; its levels wait on
        an explicit stack, so a depth past the recursion limit solves.  No
        pair of an edgeless graph has a neighbour, so none can reach zero
        residual and the zero-residual test watches no vertex: a node does
        no work per uncolored vertex, and n = 2,200 makes n nodes."""
        n = 2200
        g = SimpleGraph(n)
        h, f = identity_instance(g, (1,))
        stats = {}
        r, order = solve_exact(g, h, f, limit=n, stats=stats)
        assert verify_coloring(g, h, f, r) is not None
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)
        assert stats == {"nodes": n, "backtracks": 0}

    def test_deep_path_search(self):
        """A path of n = 2,200 vertices, an identity cover of 2 colors and
        every budget 1 ask for a proper 2-coloring.  Every vertex is
        watched, since each of its pairs can reach zero residual, and every
        other vertex first tries the color of its colored neighbour, a probe
        that fails on a component of two pairs.  The search makes 3n/2
        nodes and never backtracks."""
        n = 2200
        g = SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])
        h, f = identity_instance(g, (1, 2))
        stats = {}
        r, order = solve_exact(g, h, f, limit=n, stats=stats)
        assert verify_coloring(g, h, f, r) is not None
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)
        assert stats == {"nodes": 3300, "backtracks": 0}

    def test_agrees_with_the_rescanning_search(self):
        """The residual counters carried on the search stack must steer the
        search exactly as rescanning every uncolored vertex's candidates at
        every node did: the same coloring, order and `stats` on seeded
        instances, a third of them precolored.  Caps up to 3 need up to
        three counter planes."""
        absent = backtracked = cap_3 = precolored = 0
        for t in range(2400):
            rng = random.Random(f"counter-planes/{t}")
            n = rng.randint(0, 11)
            g = random_graph(n, rng.random(), rng)
            s, cap = rng.randint(1, 4), rng.randint(1, 3)
            list_size = rng.randint(1, s)
            h = gen_random_cover(g, s, list_size, rng.choice([0.5, 1.0]),
                                 seed=rng.randrange(10**6))
            f = gen_random_budget(g, s, rng.randint(1, cap * list_size), cap,
                                  seed=rng.randrange(10**6), lists=h.lists)
            pre = None
            if n and rng.random() < 1 / 3:
                chosen = rng.sample(g.vertices, rng.randint(1, min(n, 3)))
                pre = {v: rng.choice(sorted(h.list_of(v))) for v in chosen}
            answers = []
            for solve in (solve_exact, reference_solve_exact):
                stats = {}
                try:
                    answers.append((solve(g, h, f, precolored=pre, stats=stats), stats))
                except InvalidPrecoloring as exc:
                    answers.append((str(exc), stats))
            assert answers[0] == answers[1], t
            got, stats = answers[0]
            if isinstance(got, tuple):  # `==` on dicts ignores their key order
                assert list(got[0].items()) == list(answers[1][0][0].items()), t
            absent += got is None
            backtracked += stats["backtracks"] > 0
            cap_3 += cap == 3
            precolored += pre is not None and not isinstance(got, str)
        assert absent > 200 and backtracked > 200 and cap_3 > 300 and precolored > 400

    def test_covers_wider_than_the_graph(self):
        """The cover and the budget may span a larger graph G than g: g is
        an induced subgraph of G, with some of its edges dropped in half the
        cases, so the cover has vertices outside g and matchings on edges
        that g lacks.  The search must read only g's, returning what the
        rescanning search returns (coloring, key order, order and `stats`)
        and what it returns itself on the cover restricted to g."""
        outside = dropped = absent = precolored = 0
        for t in range(300):
            rng = random.Random(f"wide-cover/{t}")
            big = random_graph(rng.randint(2, 14), rng.uniform(0.2, 1.0), rng)
            keep = rng.sample(big.vertices, rng.randint(0, min(big.n - 1, 11)))
            g = big.induced(keep)
            if rng.random() < 1 / 2:
                g = SimpleGraph.on_vertices(keep, [e for e in g.edges if rng.random() < 0.6])
            s, cap = rng.randint(1, 4), rng.randint(1, 2)
            list_size = rng.randint(1, s)
            h = gen_random_cover(big, s, list_size, rng.choice([0.5, 1.0]),
                                 seed=rng.randrange(10**6))
            f = gen_random_budget(big, s, rng.randint(1, cap * list_size), cap,
                                  seed=rng.randrange(10**6),
                                  lists=rng.choice([h.lists, None]))
            narrow = Cover(s, {v: h.lists[v] for v in g.vertices},
                           {(u, v): h.matching(u, v) for u, v in g.edges})
            pre = None
            if g.n and rng.random() < 1 / 3:
                chosen = rng.sample(g.vertices, rng.randint(1, min(g.n, 3)))
                pre = {v: rng.choice(sorted(h.list_of(v))) for v in chosen}
            answers = []
            for solve, cover in ((solve_exact, h), (reference_solve_exact, h),
                                 (solve_exact, narrow)):
                stats = {}
                try:
                    got = solve(g, cover, f, precolored=pre, stats=stats)
                except InvalidPrecoloring as exc:
                    got = str(exc)
                keys = list(got[0]) if isinstance(got, tuple) else None
                answers.append((got, keys, stats))
            assert answers[0] == answers[1] == answers[2], t
            matched = {e for e in h._matchings if set(e) & set(keep)}
            outside += any(not set(e) <= set(keep) for e in matched)
            dropped += any(set(e) <= set(keep) and not g.has_edge(*e) for e in matched)
            absent += answers[0][0] is None
            precolored += pre is not None and isinstance(answers[0][0], tuple)
        assert outside > 150 and dropped > 30 and absent > 40 and precolored > 30, (
            outside, dropped, absent, precolored)

    def test_set_up_never_iterates_the_whole_matching_table(self):
        """On a 12-vertex g whose cover spans a 20,000-edge supergraph, the
        set-up looks up g's edges and never walks the cover's table: a table
        that refuses iteration changes nothing."""

        class Unlistable(dict):
            def _refuse(self, *args):
                raise AssertionError("the whole matching table was iterated")
            __iter__ = keys = values = items = _refuse

        rng = random.Random("wide-table")
        pairs = [(u, v) for u in range(300) for v in range(u + 1, 300)]
        big = SimpleGraph(300, rng.sample(pairs, 20_000))
        h = gen_random_cover(big, 4, 4, 1.0, seed=rng.randrange(10**6))
        f = gen_random_budget(big, 4, 6, 2, seed=rng.randrange(10**6), lists=h.lists)
        guarded = Cover._trusted(h.s, h.lists, Unlistable(h._matchings))
        with pytest.raises(AssertionError):
            list(guarded._matchings.items())
        g = big.induced(range(12))
        pre = {0: min(c for c in h.lists[0] if f.get(0, c))}
        stats, guarded_stats = {}, {}
        found = solve_exact(g, h, f, precolored=pre, stats=stats)
        assert found is not None and g.m > 20
        assert solve_exact(g, guarded, f, precolored=pre, stats=guarded_stats) == found
        assert guarded_stats == stats

    def test_probes_only_uncolored_slots_wholly_at_zero_residual(self, monkeypatch):
        """Every orderability test the search makes is either a node's, on a
        candidate of the next vertex to color, or a probe of a later vertex
        all of whose candidates are at zero residual.  Each call's `alive`
        holds one pair of each colored vertex, so the test finds the depth
        and the residuals from the call alone, with its own numbering of
        the pairs."""
        calls = []

        def recording(masks, budgets, alive, k):
            calls.append((alive, k))
            return _orderable_with(masks, budgets, alive, k)

        monkeypatch.setattr(solvers, "_orderable_with", recording)
        later = 0
        for t in range(300):
            rng = random.Random(f"probes/{t}")
            n = rng.randint(2, 11)
            g = random_graph(n, rng.random(), rng)
            s = rng.randint(2, 4)
            list_size = rng.randint(2, s)
            h = gen_random_cover(g, s, list_size, 1.0, seed=rng.randrange(10**6))
            f = gen_random_budget(g, s, rng.randint(1, 2 * list_size), 2,
                                  seed=rng.randrange(10**6), lists=h.lists)
            calls.clear()
            solve_exact(g, h, f)
            todo = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
            pairs = [(v, c) for v in todo for c in sorted(h.list_of(v)) if f.get(v, c) >= 1]
            slot_of = [todo.index(v) for v, _ in pairs]

            def count(alive, i):
                v, c = pairs[i]
                return sum(alive >> j & 1 for j, (w, d) in enumerate(pairs)
                           if w in g.adj[v] and h.matched(v, c, w, d))

            for alive, k in calls:
                colored = {slot_of[i] for i in range(len(pairs)) if alive >> i & 1}
                depth = len(colored)
                assert colored == set(range(depth)), t
                if slot_of[k] == depth:
                    continue  # a node's try, or a probe of the next vertex
                assert slot_of[k] > depth, t
                slot = [i for i in range(len(pairs)) if slot_of[i] == slot_of[k]]
                assert all(count(alive, i) >= f.get(*pairs[i]) for i in slot), t
                later += 1
        assert later > 400, later

    def test_pair_graph_is_built_from_the_tables(self, monkeypatch):
        """The search builds its pair graph from the cover's matchings and
        the budget's rows directly: it asks no `Cover.matching`, and asks
        `Budget.get` only for the final witness's n pairs."""
        calls = Counter()

        def counting(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(Cover, "matching", counting("matching", Cover.matching))
        monkeypatch.setattr(Budget, "get", counting("get", Budget.get))
        verdicts = set()
        for t in range(10):
            rng = random.Random(f"tables/{t}")
            g = random_graph(10, 0.4, rng)
            h = gen_random_cover(g, 3, 3, 1.0, rng.randrange(10**6))
            f = gen_random_budget(g, 3, 3, 1, rng.randrange(10**6), lists=h.lists)
            calls.clear()
            found = solve_exact(g, h, f)
            assert calls["matching"] == 0
            assert calls["get"] == (g.n if found is not None else 0)
            verdicts.add(found is None)
        assert verdicts == {True, False}

    def test_matchings_are_read_once_per_call(self, monkeypatch):
        """The search reads the cover only through masks built once per
        call, so `Cover.matched` is called at most 2·m·s² + m times (the
        final witness costs m) however many nodes the search visits."""
        calls = Counter()
        matched = Cover.matched

        def counting(self, *args):
            calls["matched"] += 1
            return matched(self, *args)

        monkeypatch.setattr(Cover, "matched", counting)
        n, m, s = 12, 32, 3
        most_nodes = 0
        for t in range(20):
            rng = random.Random(f"matched-locality/{t}")
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = SimpleGraph(n, rng.sample(pairs, m))
            h = gen_random_cover(g, s, s, 1.0, rng.randrange(10**6))
            f = gen_random_budget(g, s, s, 1, rng.randrange(10**6), lists=h.lists)
            calls.clear()
            stats = {}
            solve_exact(g, h, f, stats=stats)
            assert calls["matched"] <= 2 * m * s * s + m, (t, stats)
            most_nodes = max(most_nodes, stats["nodes"])
        assert most_nodes > 100  # deep enough that a per-node lookup would pass the bound


class TestSolvePlanar:
    def test_triangle_identity_five_colors(self):
        g = cycle_graph(3)
        pg = PlaneGraph(g, {0: (1, 2), 1: (2, 0), 2: (0, 1)}, (0, 1, 2))
        h, f = identity_instance(g, (1, 2, 3, 4, 5))
        r, order = solve_planar_dpg52(pg, h, f)
        assert len({r[0], r[1], r[2]}) == 3
        assert verify_coloring(g, h, f, r) is not None

    def test_k4_random_cover_seed1(self):
        pg = gen_planar_triangulation(4, seed=1)
        h, f = _cover_and_budget(pg, 1, 1)
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert solve_exact(pg.graph, h, f) is not None

    def test_stacked_n12_seed3(self):
        pg = gen_planar_triangulation(12, seed=3)
        h, f = _cover_and_budget(pg, 3, 3)
        r, order = solve_planar_dpg52(pg, h, f)
        assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)

    def test_wheels_with_unit_budgets_give_proper_colorings(self):
        for p in (4, 5, 6, 7, 8):
            pg = wheel(p)
            h, f = identity_instance(pg.graph, (1, 2, 3, 4, 5))
            r, order = solve_planar_dpg52(pg, h, f)
            assert all(r[u] != r[v] for u, v in pg.graph.edge_list())
            assert verify_coloring(pg.graph, h, f, r) is not None

    def test_disks_and_polygons(self):
        for seed in range(12):
            pg = disk(5 + seed % 7, seed)
            h, f = _cover_and_budget(pg, seed + 40, seed + 80, list_size=4)
            r, order = solve_planar_dpg52(pg, h, f)
            assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
        for p in (4, 5, 7, 9):
            pg = polygon(p)
            h, f = identity_instance(pg.graph, (1, 2, 3, 4, 5))
            r, order = solve_planar_dpg52(pg, h, f)
            assert all(r[u] != r[v] for u, v in pg.graph.edge_list())

    def test_matchings_on_non_edges_leave_the_output_valid_on_the_input(self):
        """A cover may match colors on any vertex pair, but the chords that
        `triangulate_interior` adds read no matching.  On seeded n-gons
        with a full 5x5 matching on every vertex pair, each solve succeeds,
        its coloring verifies on the polygon, and its output is the solve
        on the cover restricted to the polygon's edges."""
        for seed in range(300):
            rng = random.Random(seed)
            n = 4 + seed % 8
            pg = polygon(n)
            lists = {v: range(1, 6) for v in pg.graph.vertices}
            h = Cover(5, lists, {(u, v): list(zip(range(1, 6), rng.sample(range(1, 6), 5)))
                                 for u in range(n) for v in range(u + 1, n)})
            f = budget_list(lists)
            r, order = solve_planar_dpg52(pg, h, f)
            assert verify_coloring(pg.graph, h, f, r) is not None, seed
            on_edges = Cover(5, lists, {e: h.matching(*e) for e in pg.graph.edge_list()})
            r_edges, order_edges = solve_planar_dpg52(pg, on_edges, f)
            assert (list(r.items()), order) == (list(r_edges.items()), order_edges), seed

    def test_budget_over_fewer_colors_than_the_cover(self):
        # Budget s=4 under a 5-color cover: color 5 simply carries budget 0.
        # Fan steps rename by bijections of the cover's 1..5, which used to
        # raise "color 5 outside 1..4" from Budget.relabel.
        for seed in range(20):
            pg = gen_planar_triangulation(30, seed)
            h = gen_random_cover(pg.graph, 5, 5, 1.0, seed + 100)
            f = gen_random_budget(pg.graph, 4, 5, 2, seed + 200)
            r, order = solve_planar_dpg52(pg, h, f)
            assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
            assert verify_coloring(pg.graph, h, f, r) is not None
            assert f.s == 4

    def test_order_starts_with_precolored_pair(self):
        pg = gen_planar_triangulation(9, seed=11)
        h, f = _cover_and_budget(pg, 11, 11)
        r, order = solve_planar_dpg52(pg, h, f)
        assert order[0][0] == 0 and order[1][0] == 1  # smallest outer edge is (0, 1)

    def test_small_graphs_without_embedding(self):
        g = SimpleGraph(2, [(0, 1)])
        pg = PlaneGraph(g, {0: (1,), 1: (0,)}, (0, 1))
        h, f = identity_instance(g, (1, 2, 3), value=2)
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(g, h, f, r) is not None

    def test_budget_below_five_rejected(self):
        pg = gen_planar_triangulation(5, seed=0)
        h, f = identity_instance(pg.graph, (1, 2), value=2)
        with pytest.raises(BadBudget):
            solve_planar_dpg52(pg, h, f)

    def test_cap_above_two_rejected(self):
        pg = gen_planar_triangulation(5, seed=0)
        h, f = identity_instance(pg.graph, (1, 2), value=3)
        with pytest.raises(BadBudget):
            solve_planar_dpg52(pg, h, f)

    def test_budget_messages_name_the_fault(self):
        """Both BadBudget messages, with the low vertices in vertex order.
        A budget entry at a color outside a vertex's list does not count
        towards its total, and a value above 2 is named before any total."""
        pg = gen_planar_triangulation(8, seed=2)
        lists = {v: {1, 2, 3, 4, 5} for v in pg.graph.vertices}
        lists[6] = {1, 2, 3, 4}
        h = identity_cover(pg.graph, lists, s=6)
        values = {(v, c): 1 for v in pg.graph.vertices for c in lists[v]}
        values[6, 6] = 2
        del values[5, 5], values[2, 1]
        f = Budget(6, 2, values)
        with pytest.raises(BadBudget,
                           match=r"^list-restricted budget total below 5 at \[2, 5, 6\]$"):
            solve_planar_dpg52(pg, h, f)
        with pytest.raises(BadBudget, match="^budget values must be capped at 2$"):
            solve_planar_dpg52(pg, h, Budget(6, 3, {**values, (3, 1): 3}))
        with pytest.raises(BadBudget, match=r"^list-restricted budget total below 5 at \[0, 1, "):
            solve_planar_dpg52(pg, h, Budget(6, 2))  # no row at all: no value to cap
        k4 = gen_planar_triangulation(4, seed=0)
        lists = {v: {1, 2, 3, 4} for v in k4.graph.vertices}
        values = {(v, c): 1 for v in k4.graph.vertices for c in lists[v]}
        del values[3, 2], values[1, 4]
        with pytest.raises(BadBudget,
                           match=r"^list-restricted budget total below 4 at \[1, 3\]$"):
            extend_precolored_triangle(k4, identity_cover(k4.graph, lists),
                                       Budget(4, 1, values), {0: 1, 1: 2, 2: 3})

    def test_cut_vertex_rejected(self):
        # two triangles glued at a vertex
        g = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        rot = {0: (1, 2), 1: (2, 0), 2: (0, 1, 4, 3), 3: (2, 4), 4: (3, 2)}
        pg = PlaneGraph(g, rot, (0, 1, 2, 3, 4, 2))
        h, f = identity_instance(g, (1, 2, 3), value=2)
        with pytest.raises(NotTwoConnected):
            solve_planar_dpg52(pg, h, f)

    def test_disconnected_rejected_as_not_two_connected(self, tmp_path, capsys):
        """A disconnected graph fails the solver's 2-connectivity
        precondition, not its budget one.  The CLI exits 2, an input error."""
        import json

        from dpfcolor.cli import main
        from dpfcolor.formats import emit_budget, emit_cover, emit_plane

        # two disjoint triangles
        g = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        rot = {0: (1, 2), 1: (2, 0), 2: (0, 1), 3: (4, 5), 4: (5, 3), 5: (3, 4)}
        pg = PlaneGraph(g, rot, (0, 1, 2))
        h, f = identity_instance(g, (1, 2, 3), value=2)
        with pytest.raises(NotTwoConnected, match="^graph must be connected$"):
            solve_planar_dpg52(pg, h, f)
        paths = []
        for name, text in [("plane", emit_plane(pg)), ("cover", emit_cover(h)),
                           ("budget", emit_budget(f))]:
            paths += [f"--{name}", str(tmp_path / name)]
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["solve-planar", *paths, "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == ["NotTwoConnected: graph must be connected"]

    @pytest.mark.parametrize("outer", [(), (0, 1), (1, 0)])
    def test_two_separate_vertices_rejected_as_not_connected(self, outer):
        """Graphs of at most 2 vertices skip the triangulation, so the
        solver checks their connectivity before coloring them."""
        g = SimpleGraph(2, [])
        h, f = identity_instance(g, (1, 2, 3), value=2)
        with pytest.raises(NotTwoConnected, match="^graph must be connected$"):
            solve_planar_dpg52(PlaneGraph(g, {}, outer), h, f)

    def test_always_succeeds_on_mixed_random_instances(self):
        rng = random.Random(999)
        for trial in range(40):
            n = rng.randint(4, 12)
            if trial % 3 == 0:
                pg = gen_planar_triangulation(n, seed=trial)
            elif trial % 3 == 1:
                pg = disk(max(n, 5), trial)
            else:
                pg = wheel(max(4, n - 1))
            list_size = rng.choice([3, 4, 5])
            h = gen_random_cover(pg.graph, 5, list_size, rng.choice([0.0, 0.5, 1.0]),
                                 seed=trial * 7)
            f = gen_random_budget(pg.graph, 5, 5, 2, seed=trial * 13, lists=h.lists)
            r, order = solve_planar_dpg52(pg, h, f)
            assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)


def _with_non_edge_matchings(g, h, rng):
    """h with a random matching added on about half of the vertex pairs
    that are not edges of g, each as large as the smaller list allows; the
    matchings come in edge order, as a parsed cover file gives them."""
    matchings = dict(h.matching_items())
    for u, v in combinations(g.vertices, 2):
        if not g.has_edge(u, v) and rng.random() < 0.5:
            lu, lv = sorted(h.list_of(u)), sorted(h.list_of(v))
            size = min(len(lu), len(lv))
            matchings[u, v] = list(zip(rng.sample(lu, size), rng.sample(lv, size)))
    return Cover(h.s, h.lists, dict(sorted(matchings.items())))


def _items(x):
    """x with each dict, at any depth in tuples, as its list of items, so
    that comparing two results compares their item order too."""
    if isinstance(x, dict):
        return [(k, _items(v)) for k, v in x.items()]
    return tuple(map(_items, x)) if isinstance(x, tuple) else x


def _ear_polygon(p):
    """The p-cycle with the chord 0-2: a triangle beside a (p - 1)-cycle,
    so for p >= 7 a plane graph of FamilyA with a triangle to precolor."""
    rot = {i: ((i - 1) % p, (i + 1) % p) for i in range(p)}
    rot[0], rot[2] = (p - 1, 2, 1), (1, 0, 3)
    g = SimpleGraph(p, [(i, (i + 1) % p) for i in range(p)] + [(0, 2)])
    return PlaneGraph(g, rot, tuple(range(p)))


@given(seed=st.integers(0, 10**6), kind=SHAPE_KINDS)
def test_matchings_on_non_edges_change_no_output(seed, kind):
    """Metamorphic: what a public solver or the verifier returns is a
    function of the graph, the cover on its edges and the budget.  Random
    matchings added on vertex pairs that are not edges leave every output,
    errors included, the same item for item: the planar solve (whose
    chords are such pairs), the exact search with its counters, the
    triangle extension, the configuration extension and verification."""
    rng = random.Random(seed)
    pg = drawn_shape(kind, seed)
    h, f = _cover_and_budget(pg, seed, seed + 1, list_size=rng.randint(3, 5),
                             density=rng.choice([0.5, 1.0]))
    g = random_graph(rng.randint(2, 7), 0.5, rng)
    hx = gen_random_cover(g, 4, 3, 1.0, seed)
    fx = gen_random_budget(g, 4, rng.randint(1, 4), 2, seed + 1, lists=hx.lists)
    ear = _ear_polygon(rng.randint(7, 12))
    ht = gen_random_cover(ear.graph, 5, 4, 1.0, seed)
    ft = gen_random_budget(ear.graph, 5, 4, 2, seed + 1, lists=ht.lists)
    c0s = (dict(enumerate(cs)) for cs in product(*(sorted(ht.lists[v]) for v in (0, 1, 2))))
    c0 = next(c for c in c0s if verify_coloring(ear.graph.induced((0, 1, 2)), ht, ft, c))
    k = rng.randint(3, 4)
    gc, hc, fc, K, r0 = fan_configuration_instance(seed % 50, k)
    found = solve_exact(g, hx, fx)
    r = found[0] if found else {v: min(hx.lists[v]) for v in g.vertices}

    def exact(h):
        stats = {}
        return solve_exact(g, h, fx, stats=stats), stats

    for call, graph, cover in [
            (lambda h: solve_planar_dpg52(pg, h, f), pg.graph, h), (exact, g, hx),
            (lambda h: extend_precolored_triangle(ear, h, ft, c0), ear.graph, ht),
            (lambda h: extend_over_configuration(gc, h, fc, k, K, r0), gc, hc),
            (lambda h: verify_coloring(g, h, fx, r), g, hx)]:
        outcomes = []
        for given_cover in (cover, _with_non_edge_matchings(graph, cover, rng)):
            try:
                outcomes.append(_items(call(given_cover)))
            except Exception as exc:  # an error must be the same one too
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]


class TestExtendTriangle:
    def k4_instance(self):
        pg = gen_planar_triangulation(4, seed=0)
        h, f = identity_instance(pg.graph, (1, 2, 3, 4))
        return pg, h, f

    def test_k4_triangle_extends(self):
        pg, h, f = self.k4_instance()
        c0 = {0: 1, 1: 2, 2: 3}
        r, order = extend_precolored_triangle(pg, h, f, c0)
        assert all(r[v] == c for v, c in c0.items())
        assert verify_coloring(pg.graph, h, f, r) is not None

    def test_house_graph_not_in_family(self):
        # The 5-cycle with the chord 0-2: a triangle beside a 4-cycle.
        pg = PlaneGraph(SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
                        {0: (4, 2, 1), 1: (0, 2), 2: (1, 0, 3), 3: (2, 4), 4: (3, 0)},
                        (0, 1, 2, 3, 4))
        h, f = identity_instance(pg.graph, (1, 2, 3, 4))
        with pytest.raises(NotInFamily):
            extend_precolored_triangle(pg, h, f, {0: 1, 1: 2, 2: 3})

    def test_invalid_precoloring_rejected(self):
        pg, h, f = self.k4_instance()
        with pytest.raises(InvalidPrecoloring):
            extend_precolored_triangle(pg, h, f, {0: 1, 1: 1, 2: 3})
        with pytest.raises(InvalidPrecoloring):
            extend_precolored_triangle(pg, h, f, {0: 1, 1: 2})

    @staticmethod
    def record_verifications(monkeypatch):
        """The precolorings `verify_on_domain` is called on, in call order."""
        calls = []
        verify = coloring.verify_on_domain

        def recording(g, h, f, r):
            calls.append(r)
            return verify(g, h, f, r)

        monkeypatch.setattr(coloring, "verify_on_domain", recording)
        return calls

    def test_precoloring_is_verified_once(self, monkeypatch):
        """The solver verifies the precolored triangle, so extending it
        verifies it once, not once more beforehand."""
        calls = self.record_verifications(monkeypatch)
        pg, h, f = self.k4_instance()
        extend_precolored_triangle(pg, h, f, {0: 1, 1: 2, 2: 3})
        assert calls == [{0: 1, 1: 2, 2: 3}]

    @staticmethod
    def chorded_13_cycle():
        """The 13-cycle with the chord 0-2: one triangle and no 4- or
        5-cycle, so it is in family A, and past the default exact limit."""
        pg = _ear_polygon(13)
        return (pg, *identity_instance(pg.graph, (1, 2, 3, 4)))

    def test_errors_past_the_limit_stay_as_they_were(self, monkeypatch):
        """Each public function reports what it reported when both verified
        the precoloring: an invalid triangle past the vertex limit is an
        invalid precoloring to `extend_precolored_triangle` and past the
        limit to `solve_exact`, and a valid one past the limit is past the
        limit to both.  Past the limit the precoloring is verified once."""
        calls = self.record_verifications(monkeypatch)
        pg, h, f = self.chorded_13_cycle()
        assert check_family(pg.graph, FamilyA())
        bad, good = {0: 1, 1: 1, 2: 3}, {0: 1, 1: 2, 2: 3}
        invalid = "^precoloring fails verification on its domain$"
        past = "^13 vertices exceed the exact-solver limit 12$"
        with pytest.raises(InvalidPrecoloring, match=invalid):
            extend_precolored_triangle(pg, h, f, bad, limit=12)
        assert calls == [bad]
        with pytest.raises(LimitExceeded, match=past):
            solve_exact(pg.graph, h, f, precolored=bad, limit=12)
        with pytest.raises(LimitExceeded, match=past):
            extend_precolored_triangle(pg, h, f, good, limit=12)
        with pytest.raises(InvalidPrecoloring, match="^color 9 not in list of vertex 0$"):
            extend_precolored_triangle(pg, h, f, {0: 9, 1: 2, 2: 3}, limit=12)
        for pre in (bad, {0: 9, 1: 2, 2: 3}):
            with pytest.raises(InvalidPrecoloring) as via_extension:
                extend_precolored_triangle(pg, h, f, pre, limit=13)
            with pytest.raises(InvalidPrecoloring) as via_search:
                solve_exact(pg.graph, h, f, precolored=pre, limit=13)
            assert str(via_extension.value) == str(via_search.value)
        r, order = extend_precolored_triangle(pg, h, f, good, limit=13)
        assert verify_coloring(pg.graph, h, f, r) is not None

    def test_low_budget_rejected(self):
        pg, _, _ = self.k4_instance()
        h, f = identity_instance(pg.graph, (1, 2, 3))
        with pytest.raises(BadBudget):
            extend_precolored_triangle(pg, h, f, {0: 1, 1: 2, 2: 3})

    def test_random_family_instances_extend(self):
        rng = random.Random(606)
        for seed in range(10):
            pg = gen_planar_triangulation(4, seed=seed)  # K4 is in the family
            h = gen_random_cover(pg.graph, 4, 4, 1.0, seed=seed)
            f = gen_random_budget(pg.graph, 4, 4, 2, seed=seed, lists=h.lists)
            tri = (0, 1, 2)
            pre = solve_exact(pg.graph.induced(tri), h, f)
            if pre is None:
                continue
            r, order = extend_precolored_triangle(pg, h, f, pre[0])
            assert verify_coloring(pg.graph, h, f, r) is not None


def test_precolored_color_outside_list_raises_invalid_precoloring():
    g = cycle_graph(4)
    h, f = identity_instance(g, (1, 2))
    with pytest.raises(InvalidPrecoloring):
        solve_exact(g, h, f, precolored={0: 9})


def test_planar_solver_scales_past_the_exact_limit():
    pg = gen_planar_triangulation(25, seed=25)
    h, f = _cover_and_budget(pg, 26, 27)
    r, order = solve_planar_dpg52(pg, h, f)
    assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)


def test_triangle_precoloring_outside_lists_raises_invalid_precoloring():
    pg = gen_planar_triangulation(4, seed=0)
    h, f = identity_instance(pg.graph, (1, 2, 3, 4))
    with pytest.raises(InvalidPrecoloring):
        extend_precolored_triangle(pg, h, f, {0: 9, 1: 2, 2: 3})


def test_corrupted_step_order_is_caught_at_the_step(monkeypatch):
    """A chord split checks its combined order itself: an order corrupted
    inside one split fails there, not only in the final check.  The first
    re-ordered piece 2 that some swap of two adjacent inner pairs makes
    invalid gets the last such swap."""
    original = solvers.eliminate_with_prefix
    corrupted = []

    def swap_two(pairs, prefix):
        order = original(pairs, prefix)
        if not corrupted and order is not None:
            for k in range(len(order) - 2, 1, -1):
                swapped = order[:k] + (order[k + 1], order[k]) + order[k + 2:]
                if not order_is_valid(pairs, swapped):
                    corrupted.append(swapped)
                    return swapped
        return order

    pg = triangulated_polygon(40, random.Random(0))
    h, f = _cover_and_budget(pg, 0, 1)
    solve_planar_dpg52(pg, h, f)  # solves when nothing is corrupted
    monkeypatch.setattr(solvers, "eliminate_with_prefix", swap_two)
    with pytest.raises(InternalInvariantViolated, match="^chord combination failed: second "
                       "coloring's witness is not valid under the residual budget$"):
        solve_planar_dpg52(pg, h, f)
    assert len(corrupted) == 1


def test_greedy_fault_names_its_vertex(fail_last_greedy_placement):
    """A greedy placement that finds no residual color stops the solve with
    InternalInvariantViolated naming that vertex.  The fault is injected
    into the last placement of a solve that has base cases, runs of cut
    triangles and fan steps."""
    pg = gen_planar_triangulation(30, seed=2)
    h, f = _cover_and_budget(pg, 2, 2)
    placed = fail_last_greedy_placement(lambda: solve_planar_dpg52(pg, h, f))
    assert len(placed) > 2  # the first two color the precolored outer edge
    with pytest.raises(InternalInvariantViolated,
                       match=f"^greedy step failed: no residual color for vertex {placed[-1]}$"):
        solve_planar_dpg52(pg, h, f)


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@pytest.mark.parametrize("shape", ["fanned-400", "grid-20"])
def test_deep_instances_need_no_deep_python_stack(shape):
    """A fanned polygon splits on chord after chord and a grid peels one fan
    pivot per step, so the construction runs hundreds of steps deep; its
    frames wait on a work stack, not on the Python stack."""
    pg = triangulate_interior(polygon(400)) if shape == "fanned-400" else grid(20)
    h, f = _cover_and_budget(pg, 4, 5)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
    finally:
        sys.setrecursionlimit(limit)
    assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)


def _chord_only_instances():
    """A fanned 1000-gon, each of whose splits cuts off one bare triangle,
    and a random triangulated 1000-gon, whose splits cut pieces of every
    size.  Neither takes a fan step."""
    shapes = [triangulate_interior(polygon(1000)),
              triangulated_polygon(1000, random.Random("chords/1000"))]
    for t, pg in enumerate(shapes):
        h, f = _cover_and_budget(pg, t, t + 10)
        yield pg, h, f


def _run_instances():
    """`_chord_only_instances`, wheels and fanned polygons: shapes whose
    construction cuts off runs of bare triangles at many positions."""
    yield from _chord_only_instances()
    shapes = [wheel(p) for p in (4, 5, 9, 40, 300)]
    shapes += [triangulate_interior(polygon(p)) for p in (4, 5, 9, 40, 300)]
    for t, pg in enumerate(shapes):
        h, f = _cover_and_budget(pg, t + 20, t + 30)
        yield pg, h, f


def test_resumed_chord_scan_matches_pairwise_scan():
    """A frame edits its piece in place and resumes the chord scan: after a
    run of bare triangles cut off at position i, at i, since the positions
    before it keep their rows and so gain no chord, and its row lost the
    deleted vertices; after a fan step, at 0 and only up to position |U|,
    since every new chord ends in U.  Every scan must start and stop there
    and find the chord that the scan of every pair of outer positions finds
    on the current piece, and every run must cut off exactly the vertices
    that pairwise scans, one deletion at a time, cut off.  The probe keeps
    each scan's tables and each run's before and after."""
    def pairwise(adj, outer):
        return scan_find_chord(PlaneGraph._trusted(SimpleGraph._trusted(tuple(adj), adj), {},
                                                   tuple(outer)))

    runs, fans = [], 0
    for pg, h, f in list(_run_instances()) + list(_fan_instances())[:12]:
        with Probe("scans", "cuts", "drops", tables=True) as probe:
            r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        expected = None  # where the next scan starts and stops, if not at (0, None)
        for event in probe.events:
            if event.kind == "scan":  # `before` holds the piece's adjacency and its walk
                assert (event.start, event.stop) == (expected or (0, None))
                assert event.on_outer == set(event.before.outer)
                assert event.chord == scan_find_chord(event.before), (event.start, event.stop)
                expected = None
            elif event.kind == "cut":
                i, before, (after,) = event.at, event.before, event.after
                ref_adj, ref_outer, cuts = dict(before.graph.adj), list(before.outer), []
                while (pairwise(ref_adj, ref_outer) == (i, i + 2)
                       and len(ref_adj[ref_outer[i + 1]]) == 2):
                    x = ref_outer.pop(i + 1)
                    cuts.append(x)
                    for u in ref_adj.pop(x):
                        ref_adj[u] = ref_adj[u] - {x}
                assert list(event.removed) == cuts, (i, cuts)
                assert after.outer == tuple(ref_outer) and after.graph.adj == ref_adj, (i, cuts)
                runs.append(len(cuts))
                assert expected is None, (event.kind, expected)
                expected = i, None
            elif event.kind == "pivot":  # its neighbours but v1 and v3 join the walk
                assert expected is None, (event.kind, expected)
                expected = 0, len(next(iter(event.removed.values()))) - 1
                fans += 1
        assert expected is None
    assert sum(1 for k in runs if k >= 2) > 90, Counter(runs).most_common(5)
    assert fans > 100, fans


@pytest.mark.parametrize("shape", ["fanned", "wheel"])
def test_deep_fans_cut_their_triangles_in_linear_scans(shape):
    """A fanned 5000-gon and a wheel of 5000 vertices solve and verify.
    Their constructions are runs of triangles cut off at one hub, the
    wheel's after one fan step, each run taken in place in one frame that
    tests one position per cut and resumes its chord scan where the last
    chord was: the scans visit at most 4·n outer positions over the whole
    solve, in at most 10 frames (one on each shape).  Counts, not wall
    time, are bounded."""
    pg = triangulate_interior(polygon(5000)) if shape == "fanned" else wheel(4999)
    h, f = _cover_and_budget(pg, 6, 7)
    with Probe("scans", "cuts", "frames") as probe:
        r, order = solve_planar_dpg52(pg, h, f)
    assert pg.n == 5000
    assert verify_coloring(pg.graph, h, f, r) is not None
    assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
    # one position tested per cut
    visited = probe.counts["scan_positions"] + probe.counts["cut_vertices"]
    assert visited <= 4 * pg.n, visited
    assert probe.counts["frames"] <= 10, probe.counts["frames"]


def test_no_split_builds_a_bare_triangle():
    """A chord that cuts off a bare triangle deletes the triangle's third
    vertex in place: no split builds a 3-vertex piece, no ear leaves one as
    piece 2, and no split frame builds a 3-vertex pair graph.  Each
    triangle cut off in place counts as a piece towards the floor.  Neither
    instance takes a fan step, so every piece is a split's or an ear's."""
    for pg, h, f in _chord_only_instances():
        with Probe("splits", "drops", "cuts", "pairs", graph=pg.graph) as probe:
            r, _ = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        pieces, pairs = probe.pieces, probe.pair_sizes
        assert sum(pieces.values()) + probe.counts["cut_vertices"] > 500
        assert probe.counts["fan_pivots"] == 0
        assert pieces[3] == 0 and pairs[3] == 0, (sorted(pieces.items())[:4], sorted(pairs)[:4])


def test_split_frames_release_what_they_no_longer_read(monkeypatch):
    """A frame waiting on piece 1 holds only piece 2 and the chord ends, so
    however deep the construction goes, few large pieces are alive at once.
    Every graph `planar` and `solvers` build is weakly referenced: the
    pieces, the tables a frame owns and edits in place, and the copies a
    split frame keeps of piece 2.  At each build the live ones with more
    than n/10 vertices are counted, by their distinct adjacency dicts,
    which a frame edits in place and a split hands on as its larger piece.  The pieces that waiting frames hold and the piece
    being split have disjoint insides, so at most 10 of them are that
    large; the input's triangulation and the two pieces of the split under
    way make 13.  Besides the chord-only instances, a random triangulated
    4000-gon nests its splits deep enough that a frame which kept piece 2
    while piece 2 is solved would hold 15."""
    import weakref

    import dpfcolor.planar as planar
    refs, peak = [], [0]

    def track(g):
        live = [x for ref in refs if (x := ref()) is not None] + [g]
        refs[:] = map(weakref.ref, live)
        peak[0] = max(peak[0], len({id(x.adj) for x in live if 10 * len(x.adj) > n}))

    class Tracked(SimpleGraph):
        __slots__ = ("__weakref__",)

        @classmethod
        def _trusted(cls, vertices, adj):
            g = super()._trusted(vertices, adj)
            track(g)
            return g

    class TrackedOwned(_OwnedGraph):
        __slots__ = ("__weakref__",)

        def __init__(self, adj):
            super().__init__(adj)
            track(self)

    instances = list(_chord_only_instances())
    deep = triangulated_polygon(4000, random.Random("chords/4000"))
    h = gen_random_cover(deep.graph, 5, 5, 1.0, seed=1)
    instances.append((deep, h, gen_random_budget(deep.graph, 5, 5, 2, seed=11, lists=h.lists)))
    monkeypatch.setattr(planar, "SimpleGraph", Tracked)
    monkeypatch.setattr(solvers, "SimpleGraph", Tracked)
    monkeypatch.setattr(planar, "_OwnedGraph", TrackedOwned)
    monkeypatch.setattr(solvers, "_OwnedGraph", TrackedOwned)
    for pg, h, f in instances:
        n, peak[0] = pg.n, 0
        r, _ = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert 0 < peak[0] <= 13, peak


def _fan_instances():
    """Seeded instances whose construction takes fan steps of both cases,
    more than 100 of them in frames that want their order."""
    shapes = [gen_planar_triangulation(20 + 10 * seed, seed) for seed in range(6)]
    shapes += [grid(k, seed=k) for k in (3, 4, 5, 6, 7, 8)]
    shapes += [wheel(p) for p in (4, 5, 7, 9)]
    shapes += [gen_planar_triangulation(20, seed) for seed in range(6, 36)]
    shapes += [grid(10, seed=seed) for seed in range(10)]
    for t, pg in enumerate(shapes):
        h, f = _cover_and_budget(pg, t, t + 50, (5, 4)[t % 2], (1.0, 0.5)[t % 3 == 2])
        yield pg, h, f


def _reinsertion_checks(probe):
    """The inputs and verdict of every fan-step reinsertion check the probe
    saw, each with the probe's copies of the whole piece and of its budget
    at the step, taken before the pivot is deleted and its fan lowered."""
    at, checks = {}, []
    for event in probe.events:
        if event.kind == "fan":
            at[event.pivot] = event.graph, event.budget
        elif event.kind == "reinsertion":
            checks.append((event.args, at[event.pivot], event.verdict))
    return checks


def _other_colors_and_places(h, r, order, v):
    """The pivot given each other color of its list, and the pivot moved to
    the other place the fan step may put it (third, or last)."""
    k = next(t for t, (u, _) in enumerate(order) if u == v)
    for c in sorted(h.list_of(v) - {r[v]}):
        yield {**r, v: c}, order[:k] + ((v, c),) + order[k + 1:]
    rest = order[:k] + order[k + 1:]
    moved = rest + (order[k],) if k == 2 else rest[:2] + (order[k],) + rest[2:]
    if moved != order:
        yield r, moved


def _solve_with_unlowered_budget(monkeypatch, pg, h, f, step, rng):
    """Solve with one U budget entry of the given fan step left unlowered,
    restored in the solve's budget table right after `_fan_budget` lowers
    it for the step's child.  Steps are counted over the fan frames that
    want their order, the ones that check their reinsertion.

    Returns the InternalInvariantViolated raised (or None), the corrupted
    step's pivot, outer length and case, and the recorded checks
    (`_reinsertion_checks`).
    """
    lower, fault = solvers._fan_budget, {}

    def lower_all_but_one(f, U, names, case21):
        old = Budget._trusted(f.s, f.cap, {u: f._rows[u] for u in U if u in f._rows})
        lower(f, U, names, case21)
        if not probe.stack[-1].want:
            return
        fault["calls"] = fault.get("calls", 0) + 1
        lowered = sorted((u, i) for u in U for i in old.support(u) if f.get(u, i) < old.get(u, i))
        if fault["calls"] == step + 1 and lowered:
            fault["kept"] = (u, i) = rng.choice(lowered)
            fault["step"] = probe.counts["fan_steps"]  # the steps done before this one
            f._rows[u] = {**f._rows.get(u, {}), i: old.get(u, i)}

    with Probe("frames", "fans", "reinsertions", tables=True) as probe:
        monkeypatch.setattr(solvers, "_fan_budget", lower_all_but_one)
        try:
            solve_planar_dpg52(pg, h, f)
            raised = None
        except InternalInvariantViolated as exc:
            raised = exc
        finally:
            monkeypatch.undo()
    if "kept" in fault:
        corrupted = [event for event in probe.events if event.kind == "fan"][fault["step"]]
        fault.update(case21=corrupted.case21, pivot=corrupted.pivot, p=corrupted.p)
    return raised, fault, _reinsertion_checks(probe)


def _first_broken_reinsertion(monkeypatch):
    for t, (pg, h, f) in enumerate(_fan_instances()):
        for step in range(12):
            raised, fault, calls = _solve_with_unlowered_budget(
                monkeypatch, pg, h, f, step, random.Random(f"fault/{t}/{step}"))
            if raised is not None and str(raised).startswith("reinserting"):
                return pg, h, f, raised, fault, calls
    pytest.fail("no unlowered budget broke a reinsertion")


class TestLocalReinsertionCheck:
    """A fan step checks only its pivot's neighbourhood after reinserting
    the pivot.  On real reinsertions from seeded solver runs, and on
    variants corrupted in the step's own parts, that verdict must equal the
    definition check on the pair graph of the whole piece."""

    def test_matches_whole_graph_check(self):
        check = solvers._reinsertion_valid
        with Probe("fans", "reinsertions", tables=True) as probe:
            for pg, h, f in _fan_instances():
                solve_planar_dpg52(pg, h, f)
        calls, verdicts = _reinsertion_checks(probe), Counter()
        for (adj, h, rows, r, order, v), (g, f), verdict in calls:
            assert verdict and whole_graph_reinsertion_check(g, h, f, r, order)
            for r2, order2 in _other_colors_and_places(h, r, order, v):
                got = check(adj, h, rows, r2, order2, v)
                assert got == whole_graph_reinsertion_check(g, h, f, r2, order2), (order2, v)
                verdicts[got] += 1
        assert len(calls) > 100
        assert verdicts[True] > 100 and verdicts[False] > 100, verdicts

    def test_matches_whole_graph_check_after_unlowered_budget(self, monkeypatch):
        outcomes = Counter()
        for t, (pg, h, f) in enumerate(_fan_instances()):
            rng = random.Random(f"unlowered/{t}")
            for step in range(0, 40, 2):
                raised, _, calls = _solve_with_unlowered_budget(monkeypatch, pg, h, f, step, rng)
                for (_, h2, _, r, order, _), (g, f2), verdict in calls:
                    assert verdict == whole_graph_reinsertion_check(g, h2, f2, r, order)
                    outcomes[verdict] += 1
                outcomes[type(raised).__name__] += 1
        assert outcomes[False] > 10 and outcomes[True] > 1000, outcomes

    def test_fault_in_one_fan_step_is_caught_at_that_step(self, monkeypatch):
        pg, h, f, raised, fault, calls = _first_broken_reinsertion(monkeypatch)
        assert str(raised) == ("reinserting the fan pivot broke the order "
                               f"(p={fault['p']}, case21={fault['case21']})")
        (_, h2, _, r, order, v), (g, f2), verdict = calls[-1]
        assert v == fault["pivot"] and not verdict
        assert not whole_graph_reinsertion_check(g, h2, f2, r, order)
        assert solve_planar_dpg52(pg, h, f)  # the same instance solves without the fault


class TestFanNames:
    """A fan step renames colors in a table of names, not in the cover:
    every frame reads the caller's cover and returns input colors."""

    def test_name_rows_match_the_composed_completion(self):
        """`_name_row` against the old row composed with the completed map of
        renamed names, on random name rows: a fan neighbour's rows from
        lists shorter than s and matching densities from 0 to 1, and the
        pivot's rows with its best colors named 1 (and 2), each with and
        without an old row."""
        rng = random.Random("fan rows")
        completed = Counter()
        for trial in range(3000):
            s = rng.randint(1, 8)
            at2 = dict(zip(range(1, s + 1), rng.sample(range(1, s + 1), s)))
            at = dict(zip(range(1, s + 1), rng.sample(range(1, s + 1), s)))
            if trial % 10 == 9:  # the pivot: one or two best colors
                row = dict(zip(rng.sample(range(1, s + 1), min(s, rng.randint(1, 2))), (1, 2)))
            else:  # a fan neighbour: its colors matched to the pivot
                full = trial % 5 == 0  # whole lists, as in the benchmark's covers
                list2 = rng.sample(range(1, s + 1), s if full else rng.randint(0, s))
                listu = rng.sample(range(1, s + 1), s if full else rng.randint(0, s))
                density = (1.0 if full or trial % 4 == 1 else 0.0 if trial % 4 == 2
                           else rng.random())
                row = {cu: at2[c2] for c2, cu in zip(list2, listu) if rng.random() < density}
            old = None if trial % 3 == 0 else at
            identity = {i: i for i in range(1, s + 1)}
            expected = composed_name_row(row, old or identity, s)
            assert solvers._name_row(dict(row), old, s) == expected, (s, row, old)
            completed[len(row) < s] += 1
        assert completed[True] > 2000 and completed[False] > 100, completed

    def test_frames_read_the_input_cover_and_return_input_colors(self):
        fan_steps = 0
        for pg, h, f in _fan_instances():
            lists, rows = dict(h.lists), {v: dict(row) for v, row in f._rows.items()}
            matchings = {e: dict(m) for e, m in h._matchings.items()}
            with Probe("frames", "fans") as probe:
                solve_planar_dpg52(pg, h, f)
            assert probe.frames and all(frame.h is h for frame in probe.frames)
            assert h.lists == lists and h._matchings == matchings and f._rows == rows
            for frame in probe.frames:
                bad = {v: c for v, c in frame.result[0].items() if c not in h.list_of(v)}
                assert not bad, bad
            fan_steps += probe.counts["fan_steps"]
        assert fan_steps > 100


class TestOneOwnedInstance:
    """The root frame copies the caller's tables once, and every frame edits
    its piece, the solve's budget table and its name table in place."""

    @given(kind=SHAPE_KINDS, seed=st.integers(0, 10 ** 6),
           density=st.sampled_from([0.0, 0.5, 1.0]))
    def test_caller_input_stays_unchanged(self, kind, seed, density):
        """Every table of the plane graph, cover and budget, rows included,
        is as it was after the solve, and the output verifies.  Glued
        shapes share a cut vertex, so they are rejected, and must be left
        unchanged too."""
        pg = drawn_shape(kind, seed)
        h, f = _cover_and_budget(pg, seed, seed + 1, density=density)
        before = input_tables(pg, h, f)
        try:
            r, order = solve_planar_dpg52(pg, h, f)
        except NotTwoConnected:
            assert kind == "glued"
            r = None
        assert input_tables(pg, h, f) == before
        if r is not None:
            assert verify_coloring(pg.graph, h, f, r) is not None
            assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)

    def test_one_budget_table_per_solve(self):
        """A stacked n = 2000 solve hands at most 3·n budget rows to
        `Budget._trusted`, the root's copy of the table among them.  Fan
        steps lower rows in the solve's one table, and a split frame keeps
        piece 2's inner rows in a dict, not in a Budget of its own.  A
        budget copied at every fan step handed it 669·n rows."""
        pg = gen_planar_triangulation(2000, 1)
        h, f = _cover_and_budget(pg, 2, 3)
        with Probe("budgets") as probe:
            r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert 0 < probe.counts["budget_rows"] <= 3 * pg.n, probe.counts


def test_a_valid_solve_traces_faces_once_and_runs_no_lowpoint_dfs(monkeypatch):
    """The solve validates its input from one face trace: on seeded shapes
    of every 2-connected drawn kind, on polygons that it triangulates, a
    wheel, a grid and a stacked n = 500, it calls `trace_faces` once,
    `SimpleGraph.is_connected` once and `is_two_connected` never.  The
    lowpoint DFS runs only on an input that already fails, to tell a cut
    vertex from an embedding fault."""
    calls = Counter()

    def counted(fn):
        def count(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return count

    monkeypatch.setattr(planar, "trace_faces", counted(planar.trace_faces))
    monkeypatch.setattr(planar, "is_two_connected", counted(planar.is_two_connected))
    monkeypatch.setattr(SimpleGraph, "is_connected", counted(SimpleGraph.is_connected))
    shapes = [drawn_shape(kind, seed) for kind in ("stacked", "thin", "fanned", "grid")
              for seed in range(8)]
    shapes += [polygon(5), polygon(9), wheel(7), grid(5, seed=5), gen_planar_triangulation(500, 1)]
    for t, pg in enumerate(shapes):
        h, f = _cover_and_budget(pg, t, t + 1)
        before = calls.copy()
        r, _ = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert calls - before == Counter(trace_faces=1, is_connected=1), (t, calls - before)
    pg = gen_planar_triangulation(8, 4)
    rotation = {**pg.rotation, 0: pg.rotation[0][1::-1] + pg.rotation[0][2:]}
    before = calls.copy()
    with pytest.raises(InvalidEmbedding, match="^Euler check failed"):
        solve_planar_dpg52(PlaneGraph(pg.graph, rotation, pg.outer), *_cover_and_budget(pg, 1, 2))
    assert calls - before == Counter(trace_faces=1, is_two_connected=1, is_connected=1)


def _split_instances():
    """Seeded instances whose construction takes many chord splits, more
    than 100 of them in frames that want their whole order, and some in
    frames that watch pairs of their order and re-eliminate piece 2 for
    them (the grids of 100 and 144 vertices)."""
    shapes = [triangulated_polygon(12 + 8 * t, random.Random(f"splits/{t}")) for t in range(6)]
    shapes += [gen_planar_triangulation(20 + 10 * seed, seed) for seed in range(3)]
    shapes += [grid(k, seed=k) for k in (4, 6)]
    shapes += [wheel(p) for p in (6, 9)]
    shapes += [triangulated_polygon(60 + 8 * t, random.Random(f"splits/{t}")) for t in range(6, 14)]
    shapes += [gen_planar_triangulation(100 + 10 * seed, seed) for seed in range(3, 8)]
    shapes += [grid(k, seed=k) for k in (10, 12)]
    for t, pg in enumerate(shapes):
        h, f = _cover_and_budget(pg, t, t + 70, (5, 4)[t % 2], (1.0, 0.5)[t % 3 == 2])
        yield pg, h, f


def _split_checks(pg, h, f):
    """Solve, and yield every chord split check of the solve: copies of the
    split piece's graph and of the solve's budget at the split, piece 1's
    solution, the check's inputs and verdict, and whether the split frame
    wants its whole order, which makes piece 1's order a valid one.  A
    split frame that re-orders piece 2 checks it on the pair graph it
    re-orders.  Piece 2 comes from `_split`, or from `_drop` deleting an
    end of the outer walk when piece 1 is the bare triangle there: the
    frame colors that triangle's third vertex, a chord end, right after
    its precolored pair, so piece 1's solution is read off the frame's."""
    with Probe("frames", "splits", "drops", "orders", tables=True) as probe:
        solve_planar_dpg52(pg, h, f)
    for event in [event for event in probe.events if event.kind == "order"]:
        frame, pairs, head, s2p = event.frame, event.pairs, event.prefix, event.order
        split, r2 = frame.split, frame.children[-1].result[0]
        if split.kind == "split":
            r1, s1 = frame.children[0].result
        else:  # piece 1 is the triangle of the precolored pair and a chord end
            (w,) = set(split.ends).difference(dict(frame.pre))
            s1 = frame.pre + ((w, frame.result[0][w]),)
            r1 = dict(s1)
        verdict = solvers._split_valid(pairs, r2, s2p, head)
        yield ((split.before.graph, split.after[-1].graph, h, split.budget, r1, s1,
                dict(r2), s2p, head), verdict, frame.want is True)


def _split_variants(h, r2, s2p, rng):
    """s2p with two inner pairs swapped, an inner color changed within its
    list, a chord pair moved out of the first two places, a pair dropped and
    a pair repeated (appended, or over an inner pair); each with the coloring
    it claims."""
    n = len(s2p)
    for _ in range(3):
        if n > 3:
            k, m = sorted(rng.sample(range(2, n), 2))
            yield r2, s2p[:k] + (s2p[m],) + s2p[k + 1:m] + (s2p[k],) + s2p[m + 1:]
    for k in rng.sample(range(2, n), min(2, n - 2)):
        v, c = s2p[k]
        for c2 in sorted(h.list_of(v) - {c}):
            yield {**r2, v: c2}, s2p[:k] + ((v, c2),) + s2p[k + 1:]
    k = rng.randrange(2, n)
    chord = rng.randrange(2)
    rest = s2p[:chord] + s2p[chord + 1:]
    yield r2, rest[:k] + (s2p[chord],) + rest[k:]
    k = rng.randrange(n)
    yield r2, s2p[:k] + s2p[k + 1:]
    yield r2, s2p + (s2p[k],)
    m = rng.randrange(2, n)
    if m != k:
        yield r2, s2p[:m] + (s2p[k],) + s2p[m + 1:]


def _union_verdict(g, h, f, r1, s1, r2, s2p, head):
    """Whether s1 + s2p[2:] is valid on the union of both pieces, by the
    three-check oracle of `combine_colorings`."""
    ends = {v for v, _ in head}
    inner = {v: c for v, c in r2.items() if v not in ends}
    try:
        three_check_combine_colorings(g, h, f, r1, s1, inner, s2p[2:])
    except (InvalidInput, InternalInvariantViolated):
        return False
    return True


class TestLocalSplitCheck:
    """A chord split checks piece 2's re-ordered witness on piece 2 alone.
    On every split of seeded solves, and on variants corrupted in the
    split's own parts, that verdict must equal the definition check on
    piece 2's pair graph (for an order that starts with the chord pairs) and
    the check of the concatenated order on the union of both pieces."""

    def test_matches_piece_and_union_checks(self):
        """A split frame that only watches pairs checks piece 2 as well, but
        its piece 1 returns an order valid only at the watched pairs, or
        none: its checks are held to the piece check alone."""
        check = solvers._split_valid
        calls = [call for pg, h, f in _split_instances() for call in _split_checks(pg, h, f)]
        verdicts = Counter()
        for t, ((g, g2, h, f, r1, s1, r2, s2p, head), verdict, whole) in enumerate(calls):
            assert verdict and (not whole or _union_verdict(g, h, f, r1, s1, r2, s2p, head))
            rng = random.Random(f"split/{t}")
            for r2x, s2x in _split_variants(h, r2, s2p, rng):
                got = check(induced_pair_graph(g2, h, f, r2x), r2x, s2x, head)
                on_piece = (set(s2x[:2]) == set(head)
                            and order_is_valid(induced_pair_graph(g2, h, f, r2x), s2x))
                assert got == on_piece, (s2x, head)
                if whole:
                    assert got == _union_verdict(g, h, f, r1, s1, r2x, s2x, head), (s2x, head)
                    verdicts[got] += 1
        assert sum(whole for *_, whole in calls) > 100 and not all(whole for *_, whole in calls)
        assert verdicts[True] > 100 and verdicts[False] > 100, verdicts

    def test_pair_graphs_are_built_on_pieces_and_once_on_the_input(self):
        """Every pair graph but the final check's is built on piece 2 of a
        split whose frame reads piece 2's order, as piece 2 was at the
        split: its frames edit it in place, so the split frame builds it on
        a copy.  A frame reads piece 2's order if it wants its whole order,
        or if it watches a pair with both vertices in piece 2 and neither a
        chord end.  The probe counts the builds made through
        `dpfcolor.coloring`'s name too."""
        splits = 0
        for pg, h, f in _split_instances():
            with Probe("frames", "splits", "drops", "pairs", tables=True) as probe:
                solve_planar_dpg52(pg, h, f)
            pieces = {}
            for split in probe.events:
                if split.kind in ("split", "ear"):
                    piece, want = split.after[-1].graph, split.frame.want
                    inside = set(piece.adj) - set(split.ends)
                    if want is True or any(x in inside and y in inside for x, y in want or ()):
                        pieces[piece.vertices] = piece.adj
            built = probe.builds
            assert [g is pg.graph for g in built].count(True) == 1
            assert built[-1] is pg.graph
            assert sorted(g.vertices for g in built[:-1]) == sorted(pieces)
            assert all(g.adj == pieces[g.vertices] for g in built[:-1])
            splits += len(pieces)
        assert splits > 100

    def test_split_without_a_prefix_first_order_is_caught(self, monkeypatch):
        """On the first instance whose solve re-eliminates two piece 2s."""
        for pg, h, f in _split_instances():
            with Probe("orders") as probe:
                solve_planar_dpg52(pg, h, f)
            if probe.counts["orders"] >= 2:
                break
        else:
            pytest.fail("no solve re-eliminates two piece 2s")
        original, calls = solvers.eliminate_with_prefix, []

        def none_at_the_second(pairs, prefix):
            calls.append(pairs)
            return None if len(calls) == 2 else original(pairs, prefix)

        monkeypatch.setattr(solvers, "eliminate_with_prefix", none_at_the_second)
        with pytest.raises(InternalInvariantViolated,
                           match="^shared chord pair cannot head the order$"):
            solve_planar_dpg52(pg, h, f)
        assert len(calls) == 2

    def test_piece_coloring_that_moves_a_chord_end_is_an_internal_fault(
            self, monkeypatch, tmp_path, capsys):
        """Piece 2's solution must keep the chord ends' colors from piece 1.
        A child that changes one (to another color of its list) is a fault
        of the program: the split raises InternalInvariantViolated with the
        combination message, and the CLI exits 3, not 2 (an input error)."""
        import json

        from dpfcolor.cli import main
        from dpfcolor.formats import emit_budget, emit_cover, emit_plane

        step, moved = solvers._step, []

        def move_a_chord_end(pg, h, f, pre, names, want):
            r, order = yield from step(pg, h, f, pre, names, want)
            if not moved and want is False:  # only a piece 2 is handed False
                v, c = pre[0]
                r = {**r, v: min(h.list_of(v) - {c})}
                moved.append(v)
            return r, order

        pg, h, f = next(_split_instances())
        solve_planar_dpg52(pg, h, f)  # solves when nothing is moved
        monkeypatch.setattr(solvers, "_step", move_a_chord_end)
        with pytest.raises(InternalInvariantViolated, match="^chord combination failed: second "
                           "coloring's witness is not valid under the residual budget$"):
            solve_planar_dpg52(pg, h, f)
        assert len(moved) == 1

        paths = []
        for name, text in [("plane", emit_plane(pg)), ("cover", emit_cover(h)),
                           ("budget", emit_budget(f))]:
            paths += [f"--{name}", str(tmp_path / name)]
            (tmp_path / name).write_text(text, encoding="utf-8")
        moved.clear()
        assert main(["solve-planar", *paths, "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "theorem-violation"
        assert payload["diagnostics"][0].startswith(
            "InternalInvariantViolated: chord combination failed")
        assert len(moved) == 1

    def test_invalid_final_order_is_caught(self, monkeypatch):
        """The final definition check stays: an order the steps let through
        broken still fails on the whole input."""
        original, swapped = solvers._extend, []

        def swap_two(pg, h, f, pre):
            r, order = original(pg, h, f, pre)
            pairs = induced_pair_graph(pg.graph, h, f, r)
            for k in range(2, len(order)):
                for m in range(k + 1, len(order)):
                    bad = order[:k] + (order[m],) + order[k + 1:m] + (order[k],) + order[m + 1:]
                    if not order_is_valid(pairs, bad):
                        swapped.append(bad)
                        return r, bad
            return r, order

        pg, h, f = next(_split_instances())
        monkeypatch.setattr(solvers, "_extend", swap_two)
        with pytest.raises(InternalInvariantViolated,
                           match="^planar construction produced an invalid order$"):
            solve_planar_dpg52(pg, h, f)
        assert len(swapped) == 1


class TestOrdersOnDemand:
    """Only the root and the frames whose whole order some caller reads
    build a valid order.  Piece 2 of a split is re-ordered whole by its
    split frame, so no frame inside it checks a reinsertion.  A split there
    that asks which chord end comes first in its piece 1 hands piece 1 the
    chord ends as a watched pair: piece 1 returns an order in which only
    its watched pairs stand as in the whole order, and re-eliminates a
    piece 2 of its own only where a watched pair lies inside it.  A fault
    there is still caught by the nearest split frame that wants its whole
    order."""

    @pytest.mark.parametrize("k, seed", [(45, 45), (50, 50), (70, 70), (50, 1), (50, 5), (50, 10)],
                             ids=["45", "50", "70", "50-seed1", "50-seed5", "50-seed10"])
    def test_grid_pair_graphs_stay_linear(self, k, seed):
        """The pair graphs the split frames build sum to at most 15·n
        vertices on a deep grid with shuffled labels; re-ordering every
        nested piece 2 built 221·n at k = 45 and 281·n at k = 50.

        When an asked piece 1 built its whole order, every frame under it
        re-eliminated its nested piece 2s: the grids built 10.1·n, 12.2·n
        and 28.3·n at k = 45, 50 and 70, and the 50×50 grids of seeds 1, 5
        and 10 built 17.6·n, 15.9·n and 16.7·n.  With watched pairs they
        build 6.4·n, 8.1·n, 12.1·n, 10.8·n, 10.1·n and 11.5·n."""
        pg = grid(k, seed=seed)
        h, f = _cover_and_budget(pg, seed, seed + 1)
        with Probe("pairs", graph=pg.graph) as probe:
            r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
        assert probe.counts["final_checks"] == 1
        built = probe.counts["pair_vertices"]
        assert built <= 15 * pg.n, built / pg.n

    def test_no_frame_below_a_piece_2_yield_re_eliminates(self):
        """A frame's whole order is read if it is the root, or if it is not
        a piece 2 and its parent's whole order is read.  A piece 1 of any
        other frame watches pairs: those its parent watches with both
        vertices in piece 1, and its chord ends if both are inside the outer
        walk (its split frame asks which comes first).  That is derived here
        from the probe's records of the pieces `_split` builds and of the
        ends of the outer walk `_drop` deletes to leave a piece 2, not from
        the solver's flag.  Only frames whose whole order is read may check
        a reinsertion, and only they and the frames that watch a pair with
        both vertices in piece 2, neither a chord end, may re-eliminate, so
        no other frame below a piece-2 yield does.  A fan step runs in its
        frame and counts with it, read or unread, as the frame of its own
        it once had."""
        seen = Counter()
        shapes = [grid(12, seed=12), triangulated_polygon(200, random.Random("below/200")),
                  gen_planar_triangulation(200, 3), gen_planar_triangulation(200, 5),
                  grid(10, seed=10)]
        for t, pg in enumerate(shapes):
            h, f = _cover_and_budget(pg, t, t + 1)
            with Probe("frames", "splits", "drops", "fans", "orders", "reinsertions",
                       tables=True) as probe:
                r, _ = solve_planar_dpg52(pg, h, f)
            assert verify_coloring(pg.graph, h, f, r) is not None
            read, watched = {}, {}
            for frame in probe.frames:  # each after its parent
                parent, piece2 = frame.parent, frame.piece2
                read[frame] = whole = parent is None or read[parent] and not piece2
                watch = watched[frame] = []
                if not whole and not piece2:  # a piece 1: its parent split on a chord
                    split = parent.split
                    inside = split.after[0].graph.adj
                    watch += [(x, y) for x, y in watched[parent] if x in inside and y in inside]
                    (vi, vj), outer = split.ends, split.before.outer
                    if vi != outer[0] and vj != outer[-1]:
                        watch.append((vi, vj))
                # may re-eliminate: reads its order, or watches a pair inside piece 2
                split = frame.split
                inside = () if split is None else set(split.after[-1].graph.adj) - set(split.ends)
                may = whole or any(x in inside and y in inside for x, y in watch)
                counts = frame.counts
                seen["read" if whole else "unread"] += 1 + counts["fan_steps"]
                seen["watching"] += bool(watch)
                seen["eliminate", may] += counts["orders"]
                seen["eliminate for a watched pair"] += not whole and counts["orders"]
                seen["reinsert", whole] += counts["reinsertions"]
        assert seen["eliminate", False] == seen["reinsert", False] == 0, seen
        assert seen["unread"] > 300 and seen["eliminate", True] > 10, seen
        assert seen["reinsert", True] > 10, seen
        assert seen["watching"] > 0 and seen["eliminate for a watched pair"] > 0, seen

    def test_fault_in_a_subtree_without_an_order_is_caught(self, monkeypatch):
        """A frame that wants no order, below another that wants none,
        returns one inner vertex in a color of its list that the input
        budget forbids.  No frame of that subtree checks anything but chord
        ends, so the split frame that re-orders the enclosing piece 2 must
        raise: the forbidden pair can never be eliminated.  The same holds
        for a fault in a frame that watches pairs of its order, which checks
        no more than a frame that wants none."""
        pg = grid(12, seed=12)
        h, f_in = _cover_and_budget(pg, 0, 1)
        assert solve_planar_dpg52(pg, h, f_in)  # solves when nothing is forbidden
        cases = {"no order, under a frame that wants none":
                 lambda want, parent: not want and not parent,
                 "watched pairs": lambda want, parent: type(want) is tuple and want != ()}
        for case, faulty in cases.items():
            faults = []
            with Probe("frames") as probe:
                step = solvers._step

                def forbid_one_color(pg, h, f, pre, names, want):
                    r, order = yield from step(pg, h, f, pre, names, want)
                    # once this frame returns, the probe's stack ends with its parent
                    if not faults and faulty(want, probe.stack[-1].want):
                        ends = {v for v, _ in pre}
                        for v in sorted(set(r) - ends):
                            forbidden = sorted(c for c in h.list_of(v) if not f_in.get(v, c))
                            if forbidden:
                                faults.append((v, r[v], forbidden[0]))
                                r = {**r, v: forbidden[0]}
                                break
                    return r, order

                monkeypatch.setattr(solvers, "_step", forbid_one_color)
                try:
                    with pytest.raises(InternalInvariantViolated,
                                       match="^shared chord pair cannot head the order$"):
                        solve_planar_dpg52(pg, h, f_in)
                finally:
                    monkeypatch.undo()
            assert len(faults) == 1, (case, faults)


def _solve_recording_answers(pg, h, f, whole, seen=None):
    """Solve, and record the precolored pair of every piece 2 in the order
    its frame starts: the chord ends, first the one that comes first in
    piece 1's order.  With `whole`, a frame handed watched pairs wants its
    whole order instead, and one handed none wants no order: the rule
    before watched pairs, under which a piece 1 built its whole order
    whenever its frame did or its split asked.  Without it, `seen` counts
    the frames handed watched pairs, those handed more than one, and the
    piece 2s re-eliminated by frames that only watch pairs."""
    step, eliminate, answers, wants = solvers._step, solvers.eliminate_with_prefix, [], []
    seen = Counter() if seen is None else seen

    def recording(pg, h, f, pre, names, want):
        if want is False:  # only a piece 2 is handed False
            answers.append(pre)
        if whole and type(want) is tuple:
            want = want != ()
        seen["watching"] += type(want) is tuple and want != ()
        seen["watching several"] += type(want) is tuple and len(want) > 1
        wants.append(want)
        result = yield from step(pg, h, f, pre, names, want)
        wants.pop()
        return result

    def counting(pairs, prefix):
        seen["re-eliminated for a watched pair"] += wants[-1] is not True
        return eliminate(pairs, prefix)

    solvers._step, solvers.eliminate_with_prefix = recording, counting
    try:
        return solve_planar_dpg52(pg, h, f), answers
    except NotTwoConnected:
        return None, answers
    finally:
        solvers._step, solvers.eliminate_with_prefix = step, eliminate


def _assert_watched_orders_match_whole_orders(pg, seed, density, seen=None):
    h = gen_random_cover(pg.graph, 5, 5, density, seed=seed)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=seed + 1, lists=h.lists)
    watched = _solve_recording_answers(pg, h, f, False, seen)
    assert watched == _solve_recording_answers(pg, h, f, True), (seed, density)
    return watched


class TestWatchedOrders:
    """A piece 1 handed watched pairs returns an order in which only those
    pairs stand as in its whole order.  Every answer the solve reads off
    such an order, which chord end comes first, must be the one the whole
    order gives, so the colorings, the orders and the precolored pairs of
    every piece 2 are those of a solve in which such a piece 1 builds its
    whole order."""

    def test_seeded_shapes_at_each_density(self):
        """Each drawn kind on twelve seeds, and larger ones: the drawn
        shapes have at most 30 vertices, too few for a frame to watch more
        than one pair or to re-eliminate for one."""
        seen, pieces = Counter(), 0
        shapes = [(drawn_shape(kind, seed), seed) for seed in range(12)
                  for kind in ("stacked", "thin", "fanned", "glued", "grid")]
        shapes += [(grid(k, seed=k), k) for k in range(8, 16)]
        shapes += [(triangulated_polygon(150, random.Random(f"watched/{t}")), t) for t in range(4)]
        shapes += [(gen_planar_triangulation(150, seed), seed) for seed in range(4)]
        for pg, seed in shapes:
            for density in (0.0, 0.5, 1.0):
                _, answers = _assert_watched_orders_match_whole_orders(pg, seed, density, seen)
                pieces += len(answers)
        assert pieces > 500 and all(seen.values()) and len(seen) == 3, (pieces, seen)

    @given(kind=SHAPE_KINDS, seed=st.integers(0, 10 ** 6),
           density=st.sampled_from([0.0, 0.5, 1.0]))
    def test_drawn_shapes(self, kind, seed, density):
        _assert_watched_orders_match_whole_orders(drawn_shape(kind, seed), seed, density)
