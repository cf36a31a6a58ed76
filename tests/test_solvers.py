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
from dpfcolor.planar import delete_vertex, fan_neighbors

from oracles import (
    coloring_exists_by_enumeration,
    definition_relabel,
    grid,
    polygon,
    random_graph,
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
        an explicit stack, so a depth past the recursion limit solves."""
        n = 1100
        g = SimpleGraph(n)
        h, f = identity_instance(g, (1,))
        stats = {}
        r, order = solve_exact(g, h, f, limit=n, stats=stats)
        assert verify_coloring(g, h, f, r) is not None
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)
        assert stats == {"nodes": n, "backtracks": 0}

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
        pg = polygon(5)
        from dpfcolor.planar import add_chord, faces as pfaces
        inner = pfaces(pg).bounded[0]
        pg2 = add_chord(pg, inner, inner.index(0), inner.index(2))
        lists = {v: {1, 2, 3, 4} for v in pg2.graph.vertices}
        h = identity_cover(pg2.graph, lists)
        f = budget_list(lists)
        with pytest.raises(NotInFamily):
            extend_precolored_triangle(pg2, h, f, {0: 1, 1: 2, 2: 3})

    def test_invalid_precoloring_rejected(self):
        pg, h, f = self.k4_instance()
        with pytest.raises(InvalidPrecoloring):
            extend_precolored_triangle(pg, h, f, {0: 1, 1: 1, 2: 3})
        with pytest.raises(InvalidPrecoloring):
            extend_precolored_triangle(pg, h, f, {0: 1, 1: 2})

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
    inside one split fails there, not only in the final check."""
    import dpfcolor.solvers as solvers
    from dpfcolor.errors import InternalInvariantViolated

    from oracles import triangulated_polygon

    original = solvers.eliminate_with_prefix
    corrupted = []

    def swap_last_two(pairs, prefix):
        order = original(pairs, prefix)
        if not corrupted and order is not None and len(order) > 3:
            swapped = order[:-2] + (order[-1], order[-2])
            if not order_is_valid(pairs, swapped):
                corrupted.append(swapped)
                return swapped
        return order

    pg = triangulated_polygon(40, random.Random(0))
    h = gen_random_cover(pg.graph, 5, 5, 1.0, seed=0)
    f = gen_random_budget(pg.graph, 5, 5, 2, seed=1, lists=h.lists)
    solve_planar_dpg52(pg, h, f)  # solves when nothing is corrupted
    monkeypatch.setattr(solvers, "eliminate_with_prefix", swap_last_two)
    with pytest.raises(InternalInvariantViolated, match="^chord combination failed: second "
                       "coloring's witness is not valid under the residual budget$"):
        solve_planar_dpg52(pg, h, f)
    assert len(corrupted) == 1


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


def _fan_instances():
    """Seeded instances whose construction takes fan steps of both cases."""
    shapes = [gen_planar_triangulation(20 + 10 * seed, seed) for seed in range(6)]
    shapes += [grid(k, seed=k) for k in (3, 4, 5, 6, 7, 8)]
    shapes += [wheel(p) for p in (4, 5, 7, 9)]
    for t, pg in enumerate(shapes):
        h = gen_random_cover(pg.graph, 5, (5, 4)[t % 2], (1.0, 0.5)[t % 3 == 2], seed=t)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 50, lists=h.lists)
        yield pg, h, f


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
    """Solve with one U budget entry of the given fan step left unlowered.

    Returns the InternalInvariantViolated raised (or None), the corrupted
    step's pivot, outer length and case, and the recorded checks.
    """
    import dpfcolor.solvers as solvers

    _, calls = _record_checks(monkeypatch)
    assign, delete = Budget.assign, solvers.delete_vertex
    fault = {}

    def lower_all_but_one(self, updates):
        fault["calls"] = fault.get("calls", 0) + 1
        lowered = sorted(key for key, val in updates.items() if val < self.get(*key))
        if fault["calls"] == step + 1 and lowered:
            kept = rng.choice(lowered)
            fault["case21"] = all(i == 1 for _, i in updates)
            updates = {key: val for key, val in updates.items() if key != kept}
        return assign(self, updates)

    def note_pivot(pg, v, outer):
        if "case21" in fault and "pivot" not in fault:
            fault["pivot"], fault["p"] = v, len(pg.outer)
        return delete(pg, v, outer)

    monkeypatch.setattr(Budget, "assign", lower_all_but_one)
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


class _WalkCountingTable(dict):
    """A matching table that counts the Python-level walks over it: `for`
    loops, `items()` and `values()`.  `dict(table)` reads a dict subclass
    with its own `__iter__` through `keys()`, which is left uncounted: that
    is the plain copy each relabel makes of the table it renames in."""

    walks = [0]

    def __iter__(self):
        self.walks[0] += 1
        return super().__iter__()

    def items(self):
        self.walks[0] += 1
        return super().items()

    def values(self):
        self.walks[0] += 1
        return super().values()


def _record_relabels(monkeypatch):
    """Record the input and output of every `Cover.relabel`."""
    relabel, calls = Cover.relabel, []

    def record(h, perms):
        out = relabel(h, perms)
        calls.append((h, perms, out))
        return out

    monkeypatch.setattr(Cover, "relabel", record)
    return calls


class TestLocalFanRelabel:
    """A fan step renames only the matchings at the vertices it renames,
    found through the cover's index of matched edges by endpoint, which a
    relabeled cover inherits."""

    def test_each_fan_relabel_equals_the_definition(self, monkeypatch):
        calls = _record_relabels(monkeypatch)
        for pg, h, f in _fan_instances():
            solve_planar_dpg52(pg, h, f)
        for h, perms, out in calls:
            assert out == definition_relabel(h, perms)
            fresh = Cover._trusted(out.s, out.lists, dict(out._matchings))._edges_at()
            assert {v: set(es) for v, es in out._edges_at().items()} == {
                v: set(es) for v, es in fresh.items()}
        assert len(calls) > 100

    def test_one_solve_walks_the_matching_table_at_most_once(self, monkeypatch):
        trusted = Cover._trusted.__func__

        def counting(cls, s, lists, matchings, *rest):
            if not isinstance(matchings, _WalkCountingTable):
                matchings = _WalkCountingTable(matchings)
            return trusted(cls, s, lists, matchings, *rest)

        monkeypatch.setattr(Cover, "_trusted", classmethod(counting))
        calls = _record_relabels(monkeypatch)
        fan_steps = []
        for pg, h, f in _fan_instances():
            h = Cover._trusted(h.s, h.lists, h._matchings)
            before = dict(h._matchings)
            calls.clear()
            _WalkCountingTable.walks[0] = 0
            solve_planar_dpg52(pg, h, f)
            assert _WalkCountingTable.walks[0] <= 1, (len(calls), _WalkCountingTable.walks)
            assert h._at is None and dict(h._matchings) == before  # the caller's cover
            fan_steps.append(len(calls))
        assert max(fan_steps) > 20 and sum(fan_steps) > 100, fan_steps


def _split_instances():
    """Seeded instances whose construction takes many chord splits."""
    shapes = [triangulated_polygon(12 + 8 * t, random.Random(f"splits/{t}")) for t in range(6)]
    shapes += [gen_planar_triangulation(20 + 10 * seed, seed) for seed in range(3)]
    shapes += [grid(k, seed=k) for k in (4, 6)]
    shapes += [wheel(p) for p in (6, 9)]
    for t, pg in enumerate(shapes):
        h = gen_random_cover(pg.graph, 5, (5, 4)[t % 2], (1.0, 0.5)[t % 3 == 2], seed=t)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 70, lists=h.lists)
        yield pg, h, f


def _record_splits(monkeypatch):
    """Record every chord split check: the split piece's graph, piece 1's
    solution, and the check's inputs and verdict.  The check reads piece 2's
    pair graph, which the split frame builds with `induced_pair_graph`, so
    each pair graph is traced back to its piece's graph.  The tables are
    keyed by id and keep every keyed object alive, so no id is reused."""
    import dpfcolor.solvers as solvers

    split, step, check = solvers._split, solvers._step, solvers._split_valid
    build = solvers.induced_pair_graph
    parents, graphs, results, calls = {}, {}, {}, []

    def record_split(pg, chord):
        pg1, pg2 = split(pg, chord)
        parents[id(pg2.graph)] = pg2.graph, pg.graph, pg1
        return pg1, pg2

    def record_build(g, h, f, r):
        pairs = build(g, h, f, r)
        graphs[id(pairs)] = pairs, g, h, f
        return pairs

    def record_step(pg, h, f, pre):
        result = yield from step(pg, h, f, pre)
        results[id(pg)] = pg, result
        return result

    def record_check(pairs, r2, s2p, head):
        verdict = check(pairs, r2, s2p, head)
        _, g2, h, f = graphs[id(pairs)]
        _, g, pg1 = parents[id(g2)]
        r1, s1 = results[id(pg1)][1]
        calls.append(((g, g2, h, f, r1, s1, dict(r2), s2p, head), verdict))
        return verdict

    monkeypatch.setattr(solvers, "_split", record_split)
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
        build, split = coloring.induced_pair_graph, solvers._split

        def record_build(g, h, f, r):
            built.append(g)
            return build(g, h, f, r)

        def record_split(pg, chord):
            pg1, pg2 = split(pg, chord)
            pieces.append(pg2.graph)
            return pg1, pg2

        monkeypatch.setattr(coloring, "induced_pair_graph", record_build)
        monkeypatch.setattr(solvers, "induced_pair_graph", record_build)
        monkeypatch.setattr(solvers, "_split", record_split)
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

        def none_at_the_third(pairs, prefix):
            calls.append(pairs)
            return None if len(calls) == 3 else original(pairs, prefix)

        pg, h, f = next(_split_instances())
        monkeypatch.setattr(solvers, "eliminate_with_prefix", none_at_the_third)
        with pytest.raises(InternalInvariantViolated,
                           match="^shared chord pair cannot head the order$"):
            solve_planar_dpg52(pg, h, f)
        assert len(calls) == 3

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

        def move_a_chord_end(pg, h, f, pre):
            r, order = yield from step(pg, h, f, pre)
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
