import random
from collections import Counter

import pytest

from dpfcolor import (
    Budget,
    Cover,
    SimpleGraph,
    combine_colorings,
    complete_graph,
    cycle_graph,
    greedy_extend,
    induced_pair_graph,
    order_is_valid,
    order_with_prefix,
    path_graph,
    residual_budget,
    verify_coloring,
)
from dpfcolor.coloring import _color_greedily, _greedy_color
from dpfcolor.degeneracy import strictly_degenerate_order
from dpfcolor.errors import (
    ColorNotInList,
    DomainOverlap,
    InternalInvariantViolated,
    InvalidInput,
    InvalidPrecoloring,
    NoColorAvailable,
    PartialColoring,
)

from oracles import (
    lowest_named_residual_color,
    random_graph,
    scan_eliminate,
    sorted_induced_pair_graph,
    three_check_combine_colorings,
)


def c4_identity():
    g = cycle_graph(4)
    lists = {v: {1, 2} for v in range(4)}
    matchings = {e: [(1, 1), (2, 2)] for e in g.edge_list()}
    return g, Cover(2, lists, matchings)


def c4_twisted():
    # Identity matchings except the closing edge, which pairs (1 at v3, 2 at v0).
    g = cycle_graph(4)
    lists = {v: {1, 2} for v in range(4)}
    matchings = {e: [(1, 1), (2, 2)] for e in g.edge_list() if e != (0, 3)}
    matchings[(0, 3)] = [(2, 1)]
    return g, Cover(2, lists, matchings)


def unit_budget(g, s, colors, value=1, cap=None):
    return Budget(s, cap or value, {(v, c): value for v in g.vertices for c in colors})


class TestInducedPairGraph:
    def test_alternating_colors_give_edgeless(self):
        g, h = c4_identity()
        f = unit_budget(g, 2, (1, 2))
        pg = induced_pair_graph(g, h, f, {0: 1, 1: 2, 2: 1, 3: 2})
        assert all(not a for a in pg.adj)

    def test_twisted_cover_monochromatic_gives_path(self):
        g, h = c4_twisted()
        f = unit_budget(g, 2, (1, 2))
        pg = induced_pair_graph(g, h, f, {v: 1 for v in range(4)})
        degs = sorted(len(a) for a in pg.adj)
        assert degs == [1, 1, 2, 2]  # a path on the four pairs

    def test_empty_matchings_give_edgeless(self):
        g = complete_graph(3)
        h = Cover(2, {v: {1, 2} for v in range(3)})
        f = unit_budget(g, 2, (1, 2))
        pg = induced_pair_graph(g, h, f, {0: 1, 1: 1, 2: 1})
        assert all(not a for a in pg.adj)

    def test_partial_and_not_in_list_errors(self):
        g, h = c4_identity()
        f = unit_budget(g, 2, (1, 2))
        with pytest.raises(PartialColoring):
            induced_pair_graph(g, h, f, {0: 1})
        with pytest.raises(ColorNotInList):
            induced_pair_graph(g, h, f, {0: 7, 1: 1, 2: 1, 3: 1})


class TestVerifyColoring:
    def test_proper_alternating_coloring(self):
        g, h = c4_identity()
        f = unit_budget(g, 2, (1, 2))
        order = verify_coloring(g, h, f, {0: 1, 1: 2, 2: 1, 3: 2})
        assert order is not None

    def test_twisted_monochromatic_budget_one_absent(self):
        g, h = c4_twisted()
        f = unit_budget(g, 2, (1, 2))
        assert verify_coloring(g, h, f, {v: 1 for v in range(4)}) is None

    def test_twisted_monochromatic_budget_two_found(self):
        g, h = c4_twisted()
        f = unit_budget(g, 2, (1, 2), value=2)
        order = verify_coloring(g, h, f, {v: 1 for v in range(4)})
        assert order is not None
        assert order_is_valid(induced_pair_graph(g, h, f, {v: 1 for v in range(4)}), order)

    def test_vertex_outside_the_graph_rejected(self):
        g, h = c4_identity()
        f = unit_budget(g, 2, (1, 2))
        with pytest.raises(InvalidInput, match=r"^vertices \[7\] are not in the graph$"):
            verify_coloring(g, h, f, {0: 1, 1: 2, 2: 1, 3: 2, 7: 9})
        # A missing vertex is reported first, also when the sizes agree.
        with pytest.raises(PartialColoring):
            verify_coloring(g, h, f, {0: 1, 1: 2, 2: 1, 7: 9})


class TestResidualBudget:
    def edge_instance(self, f1_v=2, matched=True):
        g = SimpleGraph(2, [(0, 1)])
        pairs = [(1, 1)] if matched else []
        h = Cover(1, {0: {1}, 1: {1}}, {(0, 1): pairs})
        f = Budget(1, 2, {(0, 1): 1, (1, 1): f1_v})
        return g, h, f

    def test_matched_neighbor_discounts(self):
        g, h, f = self.edge_instance(f1_v=2)
        fs = residual_budget(g, h, f, {0: 1})
        assert fs.get(1, 1) == 1

    def test_empty_matching_keeps_budget(self):
        g, h, f = self.edge_instance(f1_v=2, matched=False)
        fs = residual_budget(g, h, f, {0: 1})
        assert fs.get(1, 1) == 2

    def test_clamped_at_zero(self):
        g = SimpleGraph(3, [(0, 1), (0, 2)])
        h = Cover(1, {v: {1} for v in range(3)},
                  {(0, 1): [(1, 1)], (0, 2): [(1, 1)]})
        f = Budget(1, 2, {(0, 1): 1, (1, 1): 1, (2, 1): 1})
        fs = residual_budget(g, h, f, {1: 1, 2: 1})
        assert fs.get(0, 1) == 0
        assert fs.total(0) == 0

    def test_invalid_precoloring_rejected(self):
        g = SimpleGraph(2, [(0, 1)])
        h = Cover(1, {0: {1}, 1: {1}}, {(0, 1): [(1, 1)]})
        f = Budget(1, 1, {(0, 1): 1, (1, 1): 1})
        with pytest.raises(InvalidPrecoloring):
            residual_budget(g, h, f, {0: 1, 1: 1})

    def test_residual_domain_is_uncolored_only(self):
        g, h, f = self.edge_instance()
        fs = residual_budget(g, h, f, {0: 1})
        assert fs.total(0) == 0 and fs.total(1) >= 1


class TestGreedyExtend:
    def test_isolated_vertex(self):
        g = SimpleGraph(1)
        h = Cover(1, {0: {1}})
        f = Budget(1, 1, {(0, 1): 1})
        r, order = greedy_extend(g, h, f, {}, (), 0)
        assert r == {0: 1} and order == ((0, 1),)

    def test_two_colored_neighbors_leave_a_color(self):
        g = SimpleGraph(3, [(0, 1), (0, 2)])
        h = Cover(3, {v: {1, 2, 3} for v in range(3)},
                  {(0, 1): [(1, 1), (2, 2), (3, 3)], (0, 2): [(1, 1), (2, 2), (3, 3)]})
        f = unit_budget(g, 3, (1, 2, 3))
        r, order = greedy_extend(g, h, f, {1: 1, 2: 2}, ((1, 1), (2, 2)), 0)
        assert r[0] == 3
        assert verify_coloring(g, h, f, r) is not None

    def test_no_color_available(self):
        g = SimpleGraph(2, [(0, 1)])
        h = Cover(1, {0: {1}, 1: {1}}, {(0, 1): [(1, 1)]})
        f = Budget(1, 1, {(0, 1): 1, (1, 1): 1})
        with pytest.raises(NoColorAvailable):
            greedy_extend(g, h, f, {0: 1}, ((0, 1),), 1)

    def test_unknown_vertex_is_invalid_input(self):
        """As in verify_coloring, a vertex the graph lacks is InvalidInput,
        not a KeyError from the residual lookup."""
        g = complete_graph(3)
        h = Cover(3, {v: {1, 2, 3} for v in g.vertices})
        f = unit_budget(g, 3, (1, 2, 3))
        with pytest.raises(InvalidInput, match="vertex 7 is not in the graph"):
            greedy_extend(g, h, f, {}, (), 7)
        with pytest.raises(InvalidInput, match="vertex 7 is not in the graph"):
            greedy_extend(g, h, f, {0: 1}, ((0, 1),), 7)

    def test_colored_vertex_is_invalid_input(self):
        """Extending at a vertex the partial coloring already colors is an
        out-of-contract input, so it gets the typed error the CLI maps."""
        g = complete_graph(3)
        h = Cover(3, {v: {1, 2, 3} for v in g.vertices})
        f = unit_budget(g, 3, (1, 2, 3))
        with pytest.raises(InvalidInput, match="vertex 0 is already colored"):
            greedy_extend(g, h, f, {0: 1}, ((0, 1),), 0)

    def test_result_reverifies(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng.randint(2, 6), 0.5, rng)
            lists = {v: {1, 2, 3} for v in g.vertices}
            h = Cover(3, lists, {e: [(1, 1), (2, 2), (3, 3)] for e in g.edge_list()})
            f = Budget(3, 2, {(v, c): 2 for v in g.vertices for c in (1, 2, 3)})
            partial, order = {}, ()
            for v in g.vertices:
                partial, order = greedy_extend(g, h, f, partial, order, v)
            pg = induced_pair_graph(g, h, f, partial)
            assert order_is_valid(pg, order)

    def test_greedy_then_residual_equals_residual_of_enlarged(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng.randint(3, 6), 0.5, rng)
            lists = {v: {1, 2} for v in g.vertices}
            h = Cover(2, lists, {e: [(1, 1), (2, 2)] for e in g.edge_list()})
            f = Budget(2, 2, {(v, c): 2 for v in g.vertices for c in (1, 2)})
            v0 = g.vertices[0]
            partial, order = greedy_extend(g, h, f, {}, (), v0)
            direct = residual_budget(g, h, f, partial)
            fs = residual_budget(g, h, f, {})
            # recomputing residuals from the enlarged precoloring matches
            # discounting the greedy step from the empty-precoloring budget
            for v in g.vertices:
                if v == v0:
                    continue
                for c in (1, 2):
                    hit = 1 if (v in g.adj[v0] and h.matched(v, c, v0, partial[v0])) else 0
                    assert direct.get(v, c) == max(0, fs.get(v, c) - hit)


class TestColorGreedily:
    """The one greedy placement of the constructive steps."""

    def test_no_residual_color_names_the_vertex_and_keeps_earlier_ones(self):
        g = path_graph(3)
        h = Cover(1, {v: {1} for v in g.vertices}, {e: [(1, 1)] for e in g.edge_list()})
        f = Budget(1, 1, {(v, 1): 1 for v in g.vertices})
        r = {}
        with pytest.raises(InternalInvariantViolated,
                           match="^greedy step failed: no residual color for vertex 1$"):
            _color_greedily(g, h, f, r, (0, 1, 2), {})
        assert r == {0: 1}

    def test_colors_in_the_given_order(self):
        # Both lists are {1, 2}; only color 1 is matched across the edge, and
        # it has budget 1, so whichever vertex comes second must take 2.
        g = SimpleGraph(2, [(0, 1)])
        h = Cover(2, {0: {1, 2}, 1: {1, 2}}, {(0, 1): [(1, 1)]})
        f = unit_budget(g, 2, (1, 2))
        r = {}
        assert _color_greedily(g, h, f, r, (0, 1), {}) == ((0, 1), (1, 2))
        assert r == {0: 1, 1: 2}
        r = {}
        assert _color_greedily(g, h, f, r, (1, 0), {}) == ((1, 1), (0, 2))
        assert r == {1: 1, 0: 2}
        # A name table decides ties: naming color 2 first at vertex 0 makes it take 2.
        r = {}
        assert _color_greedily(g, h, f, r, (0, 1), {0: {1: 2, 2: 1}}) == ((0, 2), (1, 1))

    def test_greedy_rule_matches_the_lowest_named_residual_oracle(self):
        """`_greedy_color` against a brute-force count of each list color's
        residual, on random rows: no names, names that permute 1..s, names
        over the list colors only (sparse), and budget rows that also hold
        colors off the list."""
        rng = random.Random("greedy rows")
        seen = Counter()
        for trial in range(1500):
            s = rng.randint(1, 7)
            g = random_graph(rng.randint(1, 7), rng.random(), rng)
            lists = {v: rng.sample(range(1, s + 1), rng.randint(0, s)) for v in g.vertices}
            matchings = {}
            for u, w in g.edge_list():
                k = rng.randint(0, min(len(lists[u]), len(lists[w])))
                matchings[(u, w)] = list(zip(rng.sample(lists[u], k), rng.sample(lists[w], k)))
            h = Cover(s, lists, matchings)
            f = Budget(s, 2, {(v, i): rng.randint(0, 2) for v in g.vertices for i in range(1, s + 1)
                              if i in lists[v] or rng.random() < 0.4})
            r = {v: rng.choice(lists[v]) for v in g.vertices if lists[v] and rng.random() < 0.5}
            kind = ("none", "full", "sparse")[trial % 3]
            for v in g.vertices:
                if v in r:
                    continue
                row = (None if kind == "none" else
                       dict(zip(range(1, s + 1), rng.sample(range(1, s + 1), s))) if kind == "full"
                       else dict(zip(lists[v], rng.sample(range(1, s + 1), len(lists[v])))))
                got = _greedy_color(g, h, f, r, v, row)
                assert got == lowest_named_residual_color(g, h, f, r, v, row), (trial, v)
                off = any(i not in lists[v] for i in f._rows.get(v, ()))
                seen[kind, got is None, off] += 1
        for kind in ("none", "full", "sparse"):
            assert seen[kind, False, True] > 100 and seen[kind, True, False] > 50, seen

    def test_matches_repeated_greedy_extend(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            lists = {v: {1, 2, 3} for v in g.vertices}
            h = Cover(3, lists, {e: [(1, 1), (2, 2), (3, 3)] for e in g.edge_list()})
            f = Budget(3, 2, {(v, c): rng.randint(1, 2) for v in g.vertices for c in (1, 2, 3)})
            vertices = list(g.vertices)
            rng.shuffle(vertices)
            partial, order = {}, ()
            try:
                for v in vertices:
                    partial, order = greedy_extend(g, h, f, partial, order, v)
            except NoColorAvailable:
                with pytest.raises(InternalInvariantViolated, match=f"vertex {v}$"):
                    _color_greedily(g, h, f, {}, vertices, {})
                continue
            r = {}
            assert _color_greedily(g, h, f, r, vertices, {}) == order
            assert r == partial


class TestCombine:
    def test_disjoint_edges(self):
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        h = Cover(2, {v: {1, 2} for v in range(4)},
                  {(0, 1): [(1, 1), (2, 2)], (2, 3): [(1, 1), (2, 2)]})
        f = unit_budget(g, 2, (1, 2))
        r, order = combine_colorings(g, h, f,
                                     {0: 1, 1: 2}, ((0, 1), (1, 2)),
                                     {2: 1, 3: 2}, ((2, 1), (3, 2)))
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)

    def path_instance(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        h = Cover(1, {v: {1} for v in range(3)},
                  {(0, 1): [(1, 1)], (1, 2): [(1, 1)]})
        f = Budget(1, 2, {(0, 1): 1, (1, 1): 2, (2, 1): 2})
        return g, h, f

    def test_path_with_residual_interaction(self):
        g, h, f = self.path_instance()
        r, order = combine_colorings(g, h, f,
                                     {0: 1}, ((0, 1),),
                                     {1: 1, 2: 1}, ((1, 1), (2, 1)))
        assert r == {0: 1, 1: 1, 2: 1}
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)

    def test_second_part_violating_residual_rejected(self):
        g, h, f = self.path_instance()
        # order with vertex 2 first then 1 is fine, but claiming vertex 1
        # can precede while its residual is 1 and vertex 2 budget is spent:
        bad_f = Budget(1, 2, {(0, 1): 1, (1, 1): 1, (2, 1): 1})
        with pytest.raises(InvalidInput):
            combine_colorings(g, h, bad_f,
                              {0: 1}, ((0, 1),),
                              {1: 1, 2: 1}, ((1, 1), (2, 1)))

    def test_overlap_rejected(self):
        g, h, f = self.path_instance()
        with pytest.raises(DomainOverlap):
            combine_colorings(g, h, f,
                              {0: 1, 1: 1}, ((0, 1), (1, 1)),
                              {1: 1, 2: 1}, ((1, 1), (2, 1)))


class TestOrderWithPrefix:
    def test_empty_prefix_reduces_to_plain_order(self):
        g, h = c4_identity()
        f = unit_budget(g, 2, (1, 2))
        r = {0: 1, 1: 2, 2: 1, 3: 2}
        order = order_with_prefix(g, h, f, r, {})
        assert order is not None

    def test_triangle_distinct_colors_prefix_first(self):
        g = complete_graph(3)
        lists = {v: {1, 2, 3} for v in range(3)}
        h = Cover(3, lists, {e: [(1, 1), (2, 2), (3, 3)] for e in g.edge_list()})
        f = unit_budget(g, 3, (1, 2, 3))
        r = {0: 1, 1: 2, 2: 3}
        order = order_with_prefix(g, h, f, r, {0: 1, 1: 2})
        assert order is not None
        assert {p[0] for p in order[:2]} == {0, 1}

    def test_forced_last_element_as_prefix_is_absent(self):
        g = SimpleGraph(2, [(0, 1)])
        h = Cover(1, {0: {1}, 1: {1}}, {(0, 1): [(1, 1)]})
        f = Budget(1, 2, {(0, 1): 1, (1, 1): 2})
        r = {0: 1, 1: 1}
        assert order_with_prefix(g, h, f, r, {1: 1}) is None
        assert order_with_prefix(g, h, f, r, {0: 1}) is not None

    def test_prefix_disagreeing_with_coloring_rejected(self):
        g, h = c4_identity()
        f = unit_budget(g, 2, (1, 2))
        with pytest.raises(InvalidInput):
            order_with_prefix(g, h, f, {0: 1, 1: 2, 2: 1, 3: 2}, {0: 2})


def test_residual_never_exceeds_budget():
    rng = random.Random(55)
    from dpfcolor import gen_random_budget, gen_random_cover
    for _ in range(30):
        g = random_graph(rng.randint(2, 6), 0.5, rng)
        s = rng.randint(1, 3)
        h = gen_random_cover(g, s, rng.randint(1, s), 1.0, seed=rng.randrange(10**6))
        f = gen_random_budget(g, s, rng.randint(0, 2), 2,
                              seed=rng.randrange(10**6), lists=h.lists)
        dom = [v for v in g.vertices if rng.random() < 0.4]
        pre = {}
        for v in dom:
            choices = [i for i in sorted(h.list_of(v)) if f.get(v, i) >= 1]
            if choices:
                pre[v] = choices[0]
        from dpfcolor import verify_on_domain
        if verify_on_domain(g, h, f, pre) is None:
            continue
        fs = residual_budget(g, h, f, pre)
        for v in g.vertices:
            for i in range(1, s + 1):
                assert fs.get(v, i) <= f.get(v, i)


def _outcome(fn):
    """What fn returns, or the class and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _fields(pg):
    return pg.pairs, pg.index, pg.adj, pg.budgets


def sparse_instance(rng):
    """Seeded graph with non-contiguous vertex ids, a cover whose matchings
    are often sparse or empty, and a budget with only some entries set."""
    from dpfcolor import gen_random_cover

    big = random_graph(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.9]), rng)
    g = big.induced(v for v in big.vertices if rng.random() < 0.8)
    s = rng.randint(1, 4)
    h = gen_random_cover(big, s, rng.randint(1, s), rng.choice([0.0, 0.3, 0.6, 1.0]),
                         seed=rng.randrange(10**6))
    f = Budget(s, 2, {(v, i): rng.randint(0, 2) for v in big.vertices
                      for i in range(1, s + 1) if rng.random() < 0.6})
    r = {v: rng.choice(sorted(h.list_of(v))) for v in big.vertices}
    return g, h, f, r


class TestVertexIndexedPairGraph:
    """`induced_pair_graph` fills its tables by vertex; the sorted-edge
    construction through `PairGraph.__init__` in `oracles` is the reference."""

    def test_fields_and_witnesses_match_sorted_construction(self):
        outcomes = set()
        for t in range(400):
            rng = random.Random(f"pair-graph/{t}")
            g, h, f, r = sparse_instance(rng)
            got = induced_pair_graph(g, h, f, r)
            expected = sorted_induced_pair_graph(g, h, f, r)
            assert _fields(got) == _fields(expected), t
            witness = strictly_degenerate_order(got)
            assert witness == scan_eliminate(expected), t
            assert (strictly_degenerate_order(got, seed=t)
                    == scan_eliminate(expected, random.Random(t))), t
            outcomes.add((witness is None, any(got.adj)))
        assert outcomes == {(a, b) for a in (True, False) for b in (True, False)}

    def test_error_precedence_matches(self):
        seen = set()
        for t in range(300):
            rng = random.Random(f"pair-graph-errors/{t}")
            g, h, f, r = sparse_instance(rng)
            for v in g.vertices:
                x = rng.random()
                if x < 0.1:
                    del r[v]
                elif x < 0.25:
                    r[v] = rng.choice([0, h.s + 1] + sorted(set(range(1, h.s + 1))
                                                             - h.list_of(v)))
            got = _outcome(lambda: _fields(induced_pair_graph(g, h, f, r)))
            expected = _outcome(lambda: _fields(sorted_induced_pair_graph(g, h, f, r)))
            assert got == expected, t
            seen.add(got[0] if isinstance(got[0], type) else "ok")
        assert seen == {PartialColoring, ColorNotInList, "ok"}


def verified_instance(rng):
    """Seeded (g, h, f, witness) of a coloring that verifies; most budget
    entries are positive so that random colorings often do."""
    while True:
        g, h, _, _ = sparse_instance(rng)
        f = Budget(h.s, 2, {(v, i): rng.choice([0, 1, 1, 2, 2])
                            for v in g.vertices for i in h.list_of(v)})
        for _ in range(20):
            r = {v: rng.choice(sorted(h.list_of(v))) for v in g.vertices}
            witness = verify_coloring(g, h, f, r)
            if witness is not None:
                return g, h, f, witness


def _combine_cases(h, f, witness, rng):
    """A valid split of a verified coloring, then corrupted copies of it."""
    if len(witness) < 2:
        return
    k = rng.randint(0, len(witness))
    s1, s2 = witness[:k], witness[k:]
    r1, r2 = dict(s1), dict(s2)
    yield "valid", (r1, s1, r2, s2)
    yield "s1 reversed", (r1, s1[::-1], r2, s2)
    yield "s2 reversed", (r1, s1, r2, s2[::-1])
    if s1 and s2:
        yield "pairs swapped", (r1, s1[:-1] + s2[:1], r2, s1[-1:] + s2[1:])
        yield "s1 short", (r1, s1[:-1], r2, s2)
        yield "s2 short", (r1, s1, r2, s2[:-1])
        yield "overlap", (r1, s1, {**r2, s1[0][0]: s1[0][1]}, s2)
        yield "domain gap", (r1, s1, dict(s2[1:]), s2[1:])
    # A color outside its list in one half or both; in the second half
    # also behind a broken first witness, which must still be reported first.
    rs, orders = [dict(r1), dict(r2)], [s1, s2]
    for part in (0, 1):
        if not orders[part]:
            continue
        v, c = orders[part][rng.randrange(len(orders[part]))]
        bad = rng.choice(sorted(set(range(1, h.s + 2)) - h.list_of(v)))
        rs[part][v] = bad
        orders[part] = tuple((x, bad if x == v else cx) for x, cx in orders[part])
        one = [r1, s1, r2, s2]
        one[2 * part:2 * part + 2] = rs[part], orders[part]
        yield f"color outside list in part {part + 1}", tuple(one)
    if s2:
        yield "s1 reversed, color outside list in part 2", (r1, s1[::-1], rs[1], orders[1])
    if s1 and s2:
        yield "colors outside lists in both parts", (rs[0], orders[0], rs[1], orders[1])
    # Lowered budgets break the union check too, in either half.
    low = Budget(f.s, f.cap, [(key, val - 1) for key, val in f.items()])
    yield "lowered budget", (r1, s1, r2, s2, low)


class TestSingleUnionCheck:
    """`combine_colorings` checks the union once and the halves only on
    failure; the three-check form in `oracles` is the reference."""

    def test_same_result_or_same_error(self):
        seen = {}
        for t in range(300):
            rng = random.Random(f"combine/{t}")
            g, h, f, witness = verified_instance(rng)
            for kind, args in _combine_cases(h, f, witness, rng):
                r1, s1, r2, s2, *budget = args
                fb = budget[0] if budget else f
                got = _outcome(lambda: combine_colorings(g, h, fb, r1, s1, r2, s2))
                expected = _outcome(
                    lambda: three_check_combine_colorings(g, h, fb, r1, s1, r2, s2))
                assert got == expected, (t, kind)
                outcome = got if isinstance(got[0], type) else "ok"
                seen.setdefault(kind, set()).add(outcome)
        assert seen["valid"] == {"ok"}
        errors = set().union(*seen.values()) - {"ok"}
        first = (InvalidInput, "first coloring's witness order is not valid")
        assert {first,
                (InvalidInput, "second coloring's witness is not valid under the residual budget"),
                (InvalidInput, "combined domains do not cover the graph")} <= errors
        assert {cls for cls, _ in errors} == {InvalidInput, ColorNotInList, DomainOverlap}
        assert first in seen["pairs swapped"]

    def test_success_path_builds_no_subgraph_or_residual(self, monkeypatch):
        import dpfcolor.coloring as coloring

        cases = []
        for t in range(100):
            rng = random.Random(f"combine/{t}")
            g, h, f, witness = verified_instance(rng)
            cases += [(g, h, f) + args for kind, args in _combine_cases(h, f, witness, rng)
                      if kind == "valid"]
        assert len(cases) > 50

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the success path")

        monkeypatch.setattr(SimpleGraph, "induced", forbidden)
        monkeypatch.setattr(coloring, "_residuals", forbidden)
        for g, h, f, r1, s1, r2, s2 in cases:
            union, order = combine_colorings(g, h, f, r1, s1, r2, s2)
            assert order == s1 + s2 and union == {**r1, **r2}
