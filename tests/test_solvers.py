import random
import sys
from collections import Counter

import pytest

from dpfcolor import (
    Budget,
    Cover,
    PlaneGraph,
    SimpleGraph,
    budget_list,
    complete_graph,
    cycle_graph,
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
    InvalidInput,
    InvalidPrecoloring,
    LimitExceeded,
    NotInFamily,
    NotTwoConnected,
    TheoremViolation,
)
from dpfcolor import coloring, solvers
from dpfcolor.cycles import FamilyA, check_family
from dpfcolor.degeneracy import _orderable_with
from dpfcolor.planar import delete_vertex, fan_neighbors

from oracles import (
    coloring_exists_by_enumeration,
    composed_name_row,
    grid,
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
        lists = {v: {1, 2, 3, 4, 5} for v in g.vertices}
        h = identity_cover(g, lists)
        f = budget_list(lists)
        r, order = solve_planar_dpg52(pg, h, f)
        assert len({r[0], r[1], r[2]}) == 3
        assert verify_coloring(g, h, f, r) is not None

    def test_k4_random_cover_seed1(self):
        pg = gen_planar_triangulation(4, seed=1)
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=1)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=1, lists=h.lists)
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert solve_exact(pg.graph, h, f) is not None

    def test_stacked_n12_seed3(self):
        pg = gen_planar_triangulation(12, seed=3)
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=3)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=3, lists=h.lists)
        r, order = solve_planar_dpg52(pg, h, f)
        assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)

    def test_wheels_with_unit_budgets_give_proper_colorings(self):
        for p in (4, 5, 6, 7, 8):
            pg = wheel(p)
            lists = {v: {1, 2, 3, 4, 5} for v in pg.graph.vertices}
            h = identity_cover(pg.graph, lists)
            f = budget_list(lists)
            r, order = solve_planar_dpg52(pg, h, f)
            assert all(r[u] != r[v] for u, v in pg.graph.edge_list())
            assert verify_coloring(pg.graph, h, f, r) is not None

    def test_disks_and_polygons(self):
        for seed in range(12):
            pg = disk(5 + seed % 7, seed)
            h = gen_random_cover(pg.graph, 5, 4, 1.0, seed=seed + 40)
            f = gen_random_budget(pg.graph, 5, 5, 2, seed=seed + 80, lists=h.lists)
            r, order = solve_planar_dpg52(pg, h, f)
            assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
        for p in (4, 5, 7, 9):
            pg = polygon(p)
            lists = {v: {1, 2, 3, 4, 5} for v in pg.graph.vertices}
            h = identity_cover(pg.graph, lists)
            f = budget_list(lists)
            r, order = solve_planar_dpg52(pg, h, f)
            assert all(r[u] != r[v] for u, v in pg.graph.edge_list())

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
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=11)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=11, lists=h.lists)
        r, order = solve_planar_dpg52(pg, h, f)
        assert order[0][0] == 0 and order[1][0] == 1  # smallest outer edge is (0, 1)

    def test_small_graphs_without_embedding(self):
        g = SimpleGraph(2, [(0, 1)])
        pg = PlaneGraph(g, {0: (1,), 1: (0,)}, (0, 1))
        lists = {v: {1, 2, 3} for v in g.vertices}
        h = identity_cover(g, lists)
        f = Budget(3, 2, {(v, c): 2 for v in g.vertices for c in (1, 2, 3)})
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(g, h, f, r) is not None

    def test_budget_below_five_rejected(self):
        pg = gen_planar_triangulation(5, seed=0)
        lists = {v: {1, 2} for v in pg.graph.vertices}
        h = identity_cover(pg.graph, lists)
        f = Budget(2, 2, {(v, c): 2 for v in pg.graph.vertices for c in (1, 2)})
        with pytest.raises(BadBudget):
            solve_planar_dpg52(pg, h, f)

    def test_cap_above_two_rejected(self):
        pg = gen_planar_triangulation(5, seed=0)
        lists = {v: {1, 2} for v in pg.graph.vertices}
        h = identity_cover(pg.graph, lists)
        f = Budget(2, 3, {(v, c): 3 for v in pg.graph.vertices for c in (1, 2)})
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
        lists = {v: {1, 2, 3} for v in g.vertices}
        h = identity_cover(g, lists)
        f = Budget(3, 2, {(v, c): 2 for v in g.vertices for c in (1, 2, 3)})
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
        lists = {v: {1, 2, 3} for v in g.vertices}
        h = identity_cover(g, lists)
        f = Budget(3, 2, {(v, c): 2 for v in g.vertices for c in (1, 2, 3)})
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


class TestExtendTriangle:
    def k4_instance(self):
        pg = gen_planar_triangulation(4, seed=0)
        lists = {v: {1, 2, 3, 4} for v in pg.graph.vertices}
        h = identity_cover(pg.graph, lists)
        f = budget_list(lists)
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
        lists = {v: {1, 2, 3, 4} for v in pg.graph.vertices}
        h = identity_cover(pg.graph, lists)
        f = budget_list(lists)
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
        n = 13
        rotation = {v: (v - 1, v + 1) for v in range(3, n - 1)}
        rotation.update({0: (n - 1, 2, 1), 1: (0, 2), 2: (1, 0, 3), n - 1: (n - 2, 0)})
        edges = [(v, (v + 1) % n) for v in range(n)] + [(0, 2)]
        pg = PlaneGraph(SimpleGraph(n, edges), rotation, range(n))
        lists = {v: {1, 2, 3, 4} for v in pg.graph.vertices}
        return pg, identity_cover(pg.graph, lists), budget_list(lists)

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
        lists = {v: {1, 2, 3} for v in pg.graph.vertices}
        h = identity_cover(pg.graph, lists)
        f = budget_list(lists)
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
    lists = {v: {1, 2} for v in g.vertices}
    h = identity_cover(g, lists)
    f = Budget(2, 1, {(v, c): 1 for v in g.vertices for c in (1, 2)})
    with pytest.raises(InvalidPrecoloring):
        solve_exact(g, h, f, precolored={0: 9})


def test_planar_solver_scales_past_the_exact_limit():
    pg = gen_planar_triangulation(25, seed=25)
    h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=26)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=27, lists=h.lists)
    r, order = solve_planar_dpg52(pg, h, f)
    assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)


def test_triangle_precoloring_outside_lists_raises_invalid_precoloring():
    pg = gen_planar_triangulation(4, seed=0)
    lists = {v: {1, 2, 3, 4} for v in pg.graph.vertices}
    h = identity_cover(pg.graph, lists)
    f = budget_list(lists)
    with pytest.raises(InvalidPrecoloring):
        extend_precolored_triangle(pg, h, f, {0: 9, 1: 2, 2: 3})


def test_corrupted_step_order_is_caught_at_the_step(monkeypatch):
    """A chord split checks its combined order itself: an order corrupted
    inside one split fails there, not only in the final check.  The first
    re-ordered piece 2 that some swap of two adjacent inner pairs makes
    invalid gets the last such swap."""
    import dpfcolor.solvers as solvers
    from dpfcolor.errors import InternalInvariantViolated

    from oracles import triangulated_polygon

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
    h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=0)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=1, lists=h.lists)
    solve_planar_dpg52(pg, h, f)  # solves when nothing is corrupted
    monkeypatch.setattr(solvers, "eliminate_with_prefix", swap_two)
    with pytest.raises(InternalInvariantViolated, match="^chord combination failed: second "
                       "coloring's witness is not valid under the residual budget$"):
        solve_planar_dpg52(pg, h, f)
    assert len(corrupted) == 1


def test_greedy_fault_names_its_vertex(monkeypatch):
    """A greedy placement that finds no residual color stops the solve with
    InternalInvariantViolated naming that vertex.  The fault is injected
    into the last placement of a solve that has base cases, runs of cut
    triangles and fan steps."""
    from dpfcolor import coloring

    pg = gen_planar_triangulation(30, seed=2)
    h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=2)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=2, lists=h.lists)
    greedy = coloring._greedy_color
    placed = []

    def record(g, h, f, r, v, row=None):
        placed.append(v)
        return greedy(g, h, f, r, v, row)

    monkeypatch.setattr(coloring, "_greedy_color", record)
    solve_planar_dpg52(pg, h, f)
    assert len(placed) > 2  # the first two color the precolored outer edge
    victim = placed[-1]

    def fail_at_victim(g, h, f, r, v, row=None):
        return None if v == victim else greedy(g, h, f, r, v, row)

    monkeypatch.setattr(coloring, "_greedy_color", fail_at_victim)
    with pytest.raises(InternalInvariantViolated,
                       match=f"^greedy step failed: no residual color for vertex {victim}$"):
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
    h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=4)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=5, lists=h.lists)
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
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=t)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 10, lists=h.lists)
        yield pg, h, f


def _run_instances():
    """`_chord_only_instances`, wheels and fanned polygons: shapes whose
    construction cuts off runs of bare triangles at many positions."""
    yield from _chord_only_instances()
    shapes = [wheel(p) for p in (4, 5, 9, 40, 300)]
    shapes += [triangulate_interior(polygon(p)) for p in (4, 5, 9, 40, 300)]
    for t, pg in enumerate(shapes):
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=t + 20)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 30, lists=h.lists)
        yield pg, h, f


def test_resumed_chord_scan_matches_pairwise_scan(monkeypatch):
    """A frame that cuts off a run of bare triangles in place resumes the
    chord scan at the position of the chord just used: the positions before
    it keep their rows, and so gain no chord, and its row lost the deleted
    vertex.  At every step of every run, the resumed scan must start there
    and find the chord that the scan of every pair of outer positions finds
    on the current piece."""
    import dpfcolor.planar as planar

    copy, peel, chord = planar._Tables.__init__, planar._Tables.delete, planar._Tables.chord
    runs, cut_at = [], []

    def new_run(tables, pg):
        copy(tables, pg)
        runs.append(0)

    def record_peel(tables, i):
        cut_at.append(i)
        return peel(tables, i)

    def checked_chord(tables, start):
        assert start == cut_at.pop(), start
        got = chord(tables, start)
        adj = tables.adj
        piece = PlaneGraph._trusted(SimpleGraph._trusted(tuple(adj), adj), tables.rotation,
                                    tables.outer)
        assert got == scan_find_chord(piece), (start, got)
        runs[-1] += 1
        return got

    monkeypatch.setattr(planar._Tables, "__init__", new_run)
    monkeypatch.setattr(planar._Tables, "delete", record_peel)
    monkeypatch.setattr(planar._Tables, "chord", checked_chord)
    for pg, h, f in _run_instances():
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
    assert not cut_at
    assert sum(1 for k in runs if k >= 2) > 90, Counter(runs).most_common(5)


@pytest.mark.parametrize("shape", ["fanned", "wheel"])
def test_deep_fans_cut_their_triangles_in_linear_scans(shape, monkeypatch):
    """A fanned 5000-gon and a wheel of 5000 vertices solve and verify.
    Their constructions are runs of triangles cut off at one hub, each run
    in one frame that resumes its chord scan where the last chord was: the
    scan visits at most 4·n outer positions over the whole solve (n on the
    fanned polygon, 2·n on the wheel), in at most 10 frames (1 and 2).
    Counts, not wall time, are bounded."""
    import dpfcolor.planar as planar
    import dpfcolor.solvers as solvers

    scan, step = planar._chord_from, solvers._step
    visited, frames = [0], [0]

    def count_positions(adj, outer, on_outer, start):
        got = scan(adj, outer, on_outer, start)
        visited[0] += (got[0] + 1 if got else len(outer)) - start
        return got

    def count_frames(*args):
        frames[0] += 1
        return (yield from step(*args))

    pg = triangulate_interior(polygon(5000)) if shape == "fanned" else wheel(4999)
    h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=6)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=7, lists=h.lists)
    monkeypatch.setattr(planar, "_chord_from", count_positions)
    monkeypatch.setattr(solvers, "_step", count_frames)
    r, order = solve_planar_dpg52(pg, h, f)
    assert pg.n == 5000
    assert verify_coloring(pg.graph, h, f, r) is not None
    assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
    assert visited[0] <= 4 * pg.n, visited
    assert frames[0] <= 10, frames


def test_no_split_builds_a_bare_triangle(monkeypatch):
    """A chord that cuts off a bare triangle deletes the triangle's third
    vertex in place: no split builds a 3-vertex piece, and no split frame
    a 3-vertex pair graph.  Each triangle cut off in place counts as a
    piece towards the floor."""
    import dpfcolor.planar as planar
    import dpfcolor.solvers as solvers

    split, delete, build = solvers._split, solvers.delete_vertex, solvers.induced_pair_graph
    peel = planar._Tables.delete
    built = Counter()

    def record_split(pg, chord):
        parts = split(pg, chord)
        built.update(("piece", part.n) for part in parts)
        return parts

    def record_delete(pg, v, outer):
        part = delete(pg, v, outer)
        built["piece", part.n] += 1
        return part

    def record_peel(tables, i):
        built["peeled"] += 1
        return peel(tables, i)

    def record_build(g, h, f, r):
        pairs = build(g, h, f, r)
        built["pairs", pairs.n] += 1
        return pairs

    monkeypatch.setattr(solvers, "_split", record_split)
    monkeypatch.setattr(solvers, "delete_vertex", record_delete)
    monkeypatch.setattr(planar._Tables, "delete", record_peel)
    monkeypatch.setattr(solvers, "induced_pair_graph", record_build)
    for pg, h, f in _chord_only_instances():
        built.clear()
        r, _ = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        pieces = sum(k for key, k in built.items() if key[0] == "piece")
        assert pieces + built["peeled"] > 500
        assert built["piece", 3] == 0 and built["pairs", 3] == 0, sorted(built.items())[:4]


def test_split_frames_release_what_they_no_longer_read(monkeypatch):
    """A frame waiting on piece 1 holds only piece 2 and the chord ends, so
    however deep the construction goes, few large pieces are alive at once.
    Every graph `planar` builds, and every copy of a piece's tables that a
    frame cuts triangles from in place, is weakly referenced, and at each
    build the live ones with more than n/10 vertices are counted.  The
    pieces that waiting frames hold and the piece being split have disjoint
    insides, so at most 10 of them are that large; the input's
    triangulation and the two pieces of the split under way make 13."""
    import weakref

    import dpfcolor.planar as planar
    import dpfcolor.solvers as solvers

    refs, peak = [], [0]

    def count(new):
        live = [x for ref in refs if (x := ref()) is not None] + [new]
        refs[:] = map(weakref.ref, live)
        size = [x.n if isinstance(x, SimpleGraph) else len(x.adj) for x in live]
        peak[0] = max(peak[0], sum(1 for k in size if 10 * k > n))

    class Tracked(SimpleGraph):
        __slots__ = ("__weakref__",)

        @classmethod
        def _trusted(cls, vertices, adj):
            g = super()._trusted(vertices, adj)
            count(g)
            return g

    class TrackedTables(planar._Tables):
        __slots__ = ("__weakref__",)

        def __init__(self, pg):
            super().__init__(pg)
            count(self)

    instances = list(_chord_only_instances())
    monkeypatch.setattr(planar, "SimpleGraph", Tracked)
    monkeypatch.setattr(solvers, "_Tables", TrackedTables)
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
        h = gen_random_cover(pg.graph, 5, (5, 4)[t % 2], (1.0, 0.5)[t % 3 == 2], seed=t)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 50, lists=h.lists)
        yield pg, h, f


def _track_wants(monkeypatch):
    """Wrap `_step` so that the last entry of the returned list says whether
    the running frame wants its order.  Frames run one at a time, at the top
    of the work stack, and each runs its code up to its first yield in the
    send that starts it, after its wrapper has pushed its flag.  A frame
    that raises leaves its entry, below the next solve's."""
    import dpfcolor.solvers as solvers

    step, running = solvers._step, []

    def tracked(pg, h, f, pre, names, want):
        running.append(want)
        result = yield from step(pg, h, f, pre, names, want)
        running.pop()
        return result

    monkeypatch.setattr(solvers, "_step", tracked)
    return running


def _record_checks(monkeypatch):
    """Record the inputs and verdict of every fan-step reinsertion check."""
    import dpfcolor.solvers as solvers

    calls = []
    check = solvers._reinsertion_valid

    def record(g, h, f, r, order, v):
        verdict = check(g, h, f, r, order, v)
        calls.append(((g, h, f, dict(r), order, v), verdict))
        return verdict

    monkeypatch.setattr(solvers, "_reinsertion_valid", record)
    return check, calls


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
    restored in the budget that `_fan_budget` builds for the step's child.
    Steps are counted over the fan frames that want their order, the ones
    that check their reinsertion.

    Returns the InternalInvariantViolated raised (or None), the corrupted
    step's pivot, outer length and case, and the recorded checks.
    """
    import dpfcolor.solvers as solvers

    _, calls = _record_checks(monkeypatch)
    running = _track_wants(monkeypatch)
    lower, delete, fan_colors = solvers._fan_budget, solvers.delete_vertex, solvers._fan_colors
    fault = {}

    def lower_all_but_one(f, U, names, case21):
        out = lower(f, U, names, case21)
        if not running[-1]:
            return out
        fault["calls"] = fault.get("calls", 0) + 1
        lowered = sorted((u, i) for u in U for i in f.support(u) if out.get(u, i) < f.get(u, i))
        if fault["calls"] == step + 1 and lowered:
            fault["kept"] = (u, i) = rng.choice(lowered)
            rows = dict(out._rows)
            rows[u] = {**rows.get(u, {}), i: f.get(u, i)}
            out = Budget._trusted(out.s, out.cap, rows)
        return out

    def note_case(*args):
        out = fan_colors(*args)
        if "kept" in fault and "case21" not in fault:
            fault["case21"] = out[2]
        return out

    def note_pivot(pg, v, outer):
        if "case21" in fault and "pivot" not in fault:
            fault["pivot"], fault["p"] = v, len(pg.outer)
        return delete(pg, v, outer)

    monkeypatch.setattr(solvers, "_fan_budget", lower_all_but_one)
    monkeypatch.setattr(solvers, "_fan_colors", note_case)
    monkeypatch.setattr(solvers, "delete_vertex", note_pivot)
    try:
        solve_planar_dpg52(pg, h, f)
        raised = None
    except InternalInvariantViolated as exc:
        raised = exc
    finally:
        monkeypatch.undo()
    return raised, fault, calls


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

    def test_matches_whole_graph_check(self, monkeypatch):
        check, calls = _record_checks(monkeypatch)
        for pg, h, f in _fan_instances():
            solve_planar_dpg52(pg, h, f)
        verdicts = Counter()
        for (g, h, f, r, order, v), verdict in calls:
            assert verdict and whole_graph_reinsertion_check(g, h, f, r, order)
            for r2, order2 in _other_colors_and_places(h, r, order, v):
                got = check(g, h, f, r2, order2, v)
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
                for (g, h2, f2, r, order, v), verdict in calls:
                    assert verdict == whole_graph_reinsertion_check(g, h2, f2, r, order)
                    outcomes[verdict] += 1
                outcomes[type(raised).__name__] += 1
        assert outcomes[False] > 10 and outcomes[True] > 1000, outcomes

    def test_fault_in_one_fan_step_is_caught_at_that_step(self, monkeypatch):
        pg, h, f, raised, fault, calls = _first_broken_reinsertion(monkeypatch)
        assert str(raised) == ("reinserting the fan pivot broke the order "
                               f"(p={fault['p']}, case21={fault['case21']})")
        (g, h2, f2, r, order, v), verdict = calls[-1]
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

    def test_frames_read_the_input_cover_and_return_input_colors(self, monkeypatch):
        import dpfcolor.solvers as solvers

        step, fan_colors = solvers._step, solvers._fan_colors
        covers, colorings, fan_steps = [], [], []

        def record_step(pg, h, f, pre, names, want):
            covers.append(h)
            r, order = yield from step(pg, h, f, pre, names, want)
            colorings.append(dict(r))
            return r, order

        def count_fan_step(g, h, f, pre, names, v2, *rest):
            fan_steps.append(v2)
            return fan_colors(g, h, f, pre, names, v2, *rest)

        monkeypatch.setattr(solvers, "_step", record_step)
        monkeypatch.setattr(solvers, "_fan_colors", count_fan_step)
        for pg, h, f in _fan_instances():
            lists, rows = dict(h.lists), {v: dict(row) for v, row in f._rows.items()}
            matchings = {e: dict(m) for e, m in h._matchings.items()}
            covers.clear()
            colorings.clear()
            solve_planar_dpg52(pg, h, f)
            assert covers and all(seen is h for seen in covers)
            assert h.lists == lists and h._matchings == matchings and f._rows == rows
            assert len(colorings) == len(covers)
            for r in colorings:
                bad = {v: c for v, c in r.items() if c not in h.list_of(v)}
                assert not bad, bad
        assert len(fan_steps) > 100


def _split_instances():
    """Seeded instances whose construction takes many chord splits, more
    than 100 of them in frames that want their order."""
    shapes = [triangulated_polygon(12 + 8 * t, random.Random(f"splits/{t}")) for t in range(6)]
    shapes += [gen_planar_triangulation(20 + 10 * seed, seed) for seed in range(3)]
    shapes += [grid(k, seed=k) for k in (4, 6)]
    shapes += [wheel(p) for p in (6, 9)]
    shapes += [triangulated_polygon(60 + 8 * t, random.Random(f"splits/{t}")) for t in range(6, 14)]
    for t, pg in enumerate(shapes):
        h = gen_random_cover(pg.graph, 5, (5, 4)[t % 2], (1.0, 0.5)[t % 3 == 2], seed=t)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 70, lists=h.lists)
        yield pg, h, f


def _is_ear(pg, v):
    """Whether deleting v from pg cuts off piece 1 of a chord split, the
    bare triangle at an end of the outer walk.  A fan step deletes the
    second outer vertex, and a split whose piece 2 is a bare triangle an
    inner vertex of the walk; neither deletes a precolored end."""
    return v in (pg.outer[0], pg.outer[-1])


def _record_splits(monkeypatch):
    """Record every chord split check: the split piece's graph, piece 1's
    solution, and the check's inputs and verdict.  The check reads piece 2's
    pair graph, which the split frame builds with `induced_pair_graph`, so
    each pair graph is traced back to its piece's graph.  Piece 2 comes from
    `_split`, or from `delete_vertex` when piece 1 is the bare triangle at
    an end of the outer walk; that triangle is solved in place by
    `_color_third` on the parent's graph.  The tables are keyed by id and
    keep every keyed object alive, so no id is reused."""
    import dpfcolor.solvers as solvers

    split, step, check = solvers._split, solvers._step, solvers._split_valid
    build, delete, third = solvers.induced_pair_graph, solvers.delete_vertex, solvers._color_third
    parents, graphs, results, colored, calls = {}, {}, {}, {}, []

    def record_split(pg, chord):
        pg1, pg2 = split(pg, chord)
        parents[id(pg2.graph)] = pg2.graph, pg.graph, lambda: results[id(pg1)][1]
        return pg1, pg2

    def record_delete(pg, v, outer):
        part = delete(pg, v, outer)
        if _is_ear(pg, v):
            solved = colored[id(pg.graph)][1]
            parents[id(part.graph)] = part.graph, pg.graph, lambda: solved
        return part

    def record_third(g, h, f, pre, v, names):
        result = third(g, h, f, pre, v, names)
        colored[id(g)] = g, result
        return result

    def record_build(g, h, f, r):
        pairs = build(g, h, f, r)
        graphs[id(pairs)] = pairs, g, h, f
        return pairs

    def record_step(pg, h, f, pre, names, want):
        result = yield from step(pg, h, f, pre, names, want)
        results[id(pg)] = pg, result
        return result

    def record_check(pairs, r2, s2p, head):
        verdict = check(pairs, r2, s2p, head)
        _, g2, h, f = graphs[id(pairs)]
        _, g, solved = parents[id(g2)]
        r1, s1 = solved()
        calls.append(((g, g2, h, f, r1, s1, dict(r2), s2p, head), verdict))
        return verdict

    monkeypatch.setattr(solvers, "_split", record_split)
    monkeypatch.setattr(solvers, "delete_vertex", record_delete)
    monkeypatch.setattr(solvers, "_color_third", record_third)
    monkeypatch.setattr(solvers, "induced_pair_graph", record_build)
    monkeypatch.setattr(solvers, "_step", record_step)
    monkeypatch.setattr(solvers, "_split_valid", record_check)
    return check, calls


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

    def test_matches_piece_and_union_checks(self, monkeypatch):
        check, calls = _record_splits(monkeypatch)
        for pg, h, f in _split_instances():
            solve_planar_dpg52(pg, h, f)
        verdicts = Counter()
        for t, ((g, g2, h, f, r1, s1, r2, s2p, head), verdict) in enumerate(calls):
            assert verdict and _union_verdict(g, h, f, r1, s1, r2, s2p, head)
            rng = random.Random(f"split/{t}")
            for r2x, s2x in _split_variants(h, r2, s2p, rng):
                got = check(induced_pair_graph(g2, h, f, r2x), r2x, s2x, head)
                on_piece = (set(s2x[:2]) == set(head)
                            and order_is_valid(induced_pair_graph(g2, h, f, r2x), s2x))
                assert got == on_piece, (s2x, head)
                assert got == _union_verdict(g, h, f, r1, s1, r2x, s2x, head), (s2x, head)
                verdicts[got] += 1
        assert len(calls) > 100
        assert verdicts[True] > 100 and verdicts[False] > 100, verdicts

    def test_pair_graphs_are_built_on_pieces_and_once_on_the_input(self, monkeypatch):
        import dpfcolor.coloring as coloring
        import dpfcolor.solvers as solvers

        built, pieces = [], []
        build, split, delete = coloring.induced_pair_graph, solvers._split, solvers.delete_vertex
        running = _track_wants(monkeypatch)

        def record_build(g, h, f, r):
            built.append(g)
            return build(g, h, f, r)

        def record_split(pg, chord):
            pg1, pg2 = split(pg, chord)
            if running[-1]:
                pieces.append(pg2.graph)
            return pg1, pg2

        def record_delete(pg, v, outer):
            part = delete(pg, v, outer)
            if _is_ear(pg, v) and running[-1]:
                pieces.append(part.graph)
            return part

        monkeypatch.setattr(coloring, "induced_pair_graph", record_build)
        monkeypatch.setattr(solvers, "induced_pair_graph", record_build)
        monkeypatch.setattr(solvers, "_split", record_split)
        monkeypatch.setattr(solvers, "delete_vertex", record_delete)
        splits = 0
        for pg, h, f in _split_instances():
            built.clear()
            pieces.clear()
            solve_planar_dpg52(pg, h, f)
            assert [g is pg.graph for g in built].count(True) == 1
            assert built[-1] is pg.graph
            assert sorted(map(id, built[:-1])) == sorted(map(id, pieces))
            splits += len(pieces)
        assert splits > 100

    def test_split_without_a_prefix_first_order_is_caught(self, monkeypatch):
        import dpfcolor.solvers as solvers

        original, calls = solvers.eliminate_with_prefix, []

        def none_at_the_second(pairs, prefix):
            calls.append(pairs)
            return None if len(calls) == 2 else original(pairs, prefix)

        pg, h, f = next(_split_instances())
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

        import dpfcolor.solvers as solvers
        from dpfcolor.cli import main
        from dpfcolor.formats import emit_budget, emit_cover, emit_plane

        split, step = solvers._split, solvers._step
        second_pieces, moved = {}, []

        def record_split(pg, chord):
            pg1, pg2 = split(pg, chord)
            second_pieces[id(pg2.graph)] = pg2.graph
            return pg1, pg2

        def move_a_chord_end(pg, h, f, pre, names, want):
            r, order = yield from step(pg, h, f, pre, names, want)
            if not moved and id(pg.graph) in second_pieces:
                v, c = pre[0]
                r = {**r, v: min(h.list_of(v) - {c})}
                moved.append(v)
            return r, order

        pg, h, f = next(_split_instances())
        solve_planar_dpg52(pg, h, f)  # solves when nothing is moved
        monkeypatch.setattr(solvers, "_split", record_split)
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
        import dpfcolor.solvers as solvers

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
    """Only the root and the frames whose order some caller reads build an
    order.  Piece 2 of a split is re-ordered whole by its split frame, so no
    frame inside it re-eliminates or re-checks unless a split there asks
    which chord end comes first in its piece 1, and a fault there is still
    caught by the nearest split frame that wants its order."""

    @pytest.mark.parametrize("k", [45, 50, 70])
    def test_grid_pair_graphs_stay_linear(self, k, monkeypatch):
        """The pair graphs the split frames build sum to at most 15·n
        vertices on a deep grid; re-ordering every nested piece 2 built
        221·n at k = 45 and 281·n at k = 50.

        `grid(70, seed=70)` builds 28.3·n and is held to 30·n, not 15·n:
        an asked piece 1 still builds its order, and every frame under it
        re-eliminates its nested piece 2s (the FOUND line on nested
        re-eliminations in CHANGES.md).  The seed is kept as the deep case
        that shows it, and the bound falls to 15·n once that is mended."""
        import dpfcolor.solvers as solvers

        build, built = solvers.induced_pair_graph, []

        def record_build(g, h, f, r):
            built.append(g)
            return build(g, h, f, r)

        pg = grid(k, seed=k)
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=k)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=k + 1, lists=h.lists)
        monkeypatch.setattr(solvers, "induced_pair_graph", record_build)
        r, order = solve_planar_dpg52(pg, h, f)
        assert verify_coloring(pg.graph, h, f, r) is not None
        assert order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
        assert built[-1] is pg.graph
        assert sum(g.n for g in built[:-1]) <= {45: 15, 50: 15, 70: 30}[k] * pg.n

    def test_no_frame_below_a_piece_2_yield_re_eliminates(self, monkeypatch):
        """A frame's order is read if it is the root, or a piece 1 whose
        chord ends are both inside the outer walk (its split frame asks
        which comes first), or if it is not a piece 2 and its parent's order
        is read.  That is derived here from the pieces `_split` and
        `delete_vertex` build, not from the solver's flag: only frames whose
        order is read may re-eliminate or check a reinsertion, so none below
        a piece-2 yield does unless an asked piece 1 lies between."""
        import dpfcolor.solvers as solvers

        step, split, delete = solvers._step, solvers._split, solvers.delete_vertex
        eliminate, reinsert = solvers.eliminate_with_prefix, solvers._reinsertion_valid
        second, asked, read, seen = {}, {}, [], Counter()

        def record_split(pg, chord):
            pg1, pg2 = split(pg, chord)
            i, j = chord
            if pg.outer[i] != pg.outer[0] and pg.outer[j] != pg.outer[-1]:
                asked[id(pg1.graph)] = pg1.graph
            second[id(pg2.graph)] = pg2.graph
            return pg1, pg2

        def record_delete(pg, v, outer):
            part = delete(pg, v, outer)
            if _is_ear(pg, v):
                second[id(part.graph)] = part.graph
            return part

        def record_step(pg, *rest):
            parent = not read or read[-1]
            read.append(id(pg.graph) in asked or parent and id(pg.graph) not in second)
            seen["read" if read[-1] else "unread"] += 1
            result = yield from step(pg, *rest)
            read.pop()
            return result

        def record_eliminate(pairs, prefix):
            seen["eliminate", read[-1]] += 1
            return eliminate(pairs, prefix)

        def record_reinsert(*args):
            seen["reinsert", read[-1]] += 1
            return reinsert(*args)

        monkeypatch.setattr(solvers, "_split", record_split)
        monkeypatch.setattr(solvers, "delete_vertex", record_delete)
        monkeypatch.setattr(solvers, "_step", record_step)
        monkeypatch.setattr(solvers, "eliminate_with_prefix", record_eliminate)
        monkeypatch.setattr(solvers, "_reinsertion_valid", record_reinsert)
        shapes = [grid(12, seed=12), triangulated_polygon(200, random.Random("below/200")),
                  gen_planar_triangulation(200, 3)]
        for t, pg in enumerate(shapes):
            h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=t)
            f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 1, lists=h.lists)
            r, _ = solve_planar_dpg52(pg, h, f)
            assert verify_coloring(pg.graph, h, f, r) is not None
        assert seen["eliminate", False] == seen["reinsert", False] == 0, seen
        assert seen["unread"] > 300 and seen["eliminate", True] > 10, seen
        assert seen["reinsert", True] > 10, seen

    def test_fault_in_a_subtree_without_an_order_is_caught(self, monkeypatch):
        """A frame that wants no order, below another that wants none,
        returns one inner vertex in a color of its list that the input
        budget forbids.  No frame of that subtree checks anything but chord
        ends, so the split frame that re-orders the enclosing piece 2 must
        raise: the forbidden pair can never be eliminated."""
        import dpfcolor.solvers as solvers

        running = _track_wants(monkeypatch)
        step, faults = solvers._step, []

        def forbid_one_color(pg, h, f, pre, names, want):
            r, order = yield from step(pg, h, f, pre, names, want)
            if not faults and not want and not running[-1]:  # the parent wants none either
                ends = {v for v, _ in pre}
                for v in sorted(set(r) - ends):
                    forbidden = sorted(c for c in h.list_of(v) if not f_in.get(v, c))
                    if forbidden:
                        faults.append((v, r[v], forbidden[0]))
                        r = {**r, v: forbidden[0]}
                        break
            return r, order

        pg = grid(12, seed=12)
        h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=0)
        f_in = gen_random_budget(pg.graph, 5, 5, 2, seed=1, lists=h.lists)
        assert solve_planar_dpg52(pg, h, f_in)  # solves when nothing is forbidden
        monkeypatch.setattr(solvers, "_step", forbid_one_color)
        with pytest.raises(InternalInvariantViolated,
                           match="^shared chord pair cannot head the order$"):
            solve_planar_dpg52(pg, h, f_in)
        assert len(faults) == 1, faults
