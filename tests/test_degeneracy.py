import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dpfcolor import PairGraph, order_is_valid, strictly_degenerate_order
from dpfcolor.degeneracy import _orderable_with, eliminate_with_prefix

from oracles import (
    bitmask_orderable,
    order_exists_by_permutations,
    order_exists_by_prefix_search,
    pair_graph_bits,
    prefix_order_exists_by_permutations,
    scan_eliminate,
)


def simple_pairs(n):
    return [(v, 1) for v in range(n)]


def build(n, edge_idx_pairs, budgets):
    pairs = simple_pairs(n)
    edges = [(pairs[i], pairs[j]) for i, j in edge_idx_pairs]
    return PairGraph(pairs, edges, {pairs[i]: b for i, b in enumerate(budgets)})


@pytest.mark.parametrize("edge", [((0, 1), (1, 1)), ((1, 1), (0, 1))])
def test_edge_at_an_unknown_pair_is_rejected(edge):
    """An edge must join two of the given pairs, as a self-loop must not
    join a pair to itself: either is a ValueError that names the pair."""
    with pytest.raises(ValueError, match=r"edge at pair \(1, 1\), which is not a pair"):
        PairGraph([(0, 1)], [edge], {})
    with pytest.raises(ValueError, match=r"self-loop at pair \(0, 1\)"):
        PairGraph([(0, 1)], [((0, 1), (0, 1))], {})


def test_edgeless_all_budget_one_any_order():
    pg = build(3, [], [1, 1, 1])
    order = strictly_degenerate_order(pg)
    assert order is not None
    assert order_is_valid(pg, order)


def test_triangle_all_budget_one_absent():
    pg = build(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
    assert strictly_degenerate_order(pg) is None


def test_path4_all_budget_two_found():
    pg = build(4, [(0, 1), (1, 2), (2, 3)], [2, 2, 2, 2])
    order = strictly_degenerate_order(pg)
    assert order is not None
    assert order_is_valid(pg, order)


def test_k4_all_budget_three_absent():
    pg = build(4, [(i, j) for i in range(4) for j in range(i + 1, 4)], [3] * 4)
    assert strictly_degenerate_order(pg) is None


def test_budget_zero_never_orderable_with_edges():
    pg = build(2, [(0, 1)], [0, 2])
    assert strictly_degenerate_order(pg) is None


@st.composite
def pair_graphs(draw, max_n=6, max_budget=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in all_edges if draw(st.booleans())]
    budgets = [draw(st.integers(min_value=0, max_value=max_budget)) for _ in range(n)]
    return build(n, edges, budgets)


@given(pair_graphs())
def test_greedy_matches_permutation_brute_force(pg):
    got = strictly_degenerate_order(pg)
    expected = order_exists_by_permutations(pg)
    assert (got is not None) == expected
    if got is not None:
        assert order_is_valid(pg, got)


@given(pair_graphs(max_n=8))
def test_confluence_across_tiebreak_seeds(pg):
    base = strictly_degenerate_order(pg) is not None
    for seed in range(20):
        got = strictly_degenerate_order(pg, seed=seed)
        assert (got is not None) == base
        if got is not None:
            assert order_is_valid(pg, got)
    masks, budgets = pair_graph_bits(pg)
    assert order_exists_by_prefix_search(masks, budgets) == base


@given(pair_graphs(max_n=8))
def test_witness_valid_for_pointwise_larger_budgets(pg):
    order = strictly_degenerate_order(pg)
    if order is None:
        return
    bigger = PairGraph(
        pg.pairs,
        [(pg.pairs[i], pg.pairs[j]) for i in range(pg.n) for j in pg.adj[i] if i < j],
        {p: pg.budgets[k] + 1 for k, p in enumerate(pg.pairs)},
    )
    assert order_is_valid(bigger, order)


def test_prefix_search_oracle_agrees_with_permutations():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        budgets = [rng.randint(0, 3) for _ in range(n)]
        pg = build(n, edges, budgets)
        masks, bs = pair_graph_bits(pg)
        assert order_exists_by_prefix_search(masks, bs) == order_exists_by_permutations(pg)


def test_eliminate_with_prefix_empty_prefix_reduces_to_plain():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        budgets = [rng.randint(0, 3) for _ in range(n)]
        pg = build(n, edges, budgets)
        got = eliminate_with_prefix(pg, [])
        assert (got is not None) == (strictly_degenerate_order(pg) is not None)


def test_eliminate_with_prefix_matches_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        budgets = [rng.randint(0, 3) for _ in range(n)]
        pg = build(n, edges, budgets)
        k = rng.randint(1, n)
        prefix_idx = set(rng.sample(range(n), k))
        got = eliminate_with_prefix(pg, [pg.pairs[i] for i in sorted(prefix_idx)])
        expected = prefix_order_exists_by_permutations(pg, prefix_idx)
        assert (got is not None) == expected
        if got is not None:
            assert order_is_valid(pg, got)
            head = {pg.index[p] for p in got[:k]}
            assert head == prefix_idx


def test_order_is_valid_rejects_wrong_multiset():
    pg = build(3, [(0, 1)], [1, 2, 1])
    assert not order_is_valid(pg, [(0, 1), (1, 1)])
    assert not order_is_valid(pg, [(0, 1), (0, 1), (1, 1)])


def test_seeded_tiebreak_is_reproducible():
    pg = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [2] * 6)
    a = strictly_degenerate_order(pg, seed=42)
    b = strictly_degenerate_order(pg, seed=42)
    assert a == b


def random_pair_graph(rng, max_vertices=25, max_budget=4, uniform=None):
    """Seeded pair graph on up to max_vertices vertices with 1..3 colors each.

    Pairs of one vertex are never adjacent, as in a representative set's
    pair graph; the budget is uniform when `uniform` is given.
    """
    nv = rng.randint(1, max_vertices)
    pairs = [(v, c) for v in range(nv) for c in rng.sample(range(1, 6), rng.randint(1, 3))]
    density = rng.choice((0.05, 0.1, 0.2, 0.4))
    edges = [(p, q) for k, p in enumerate(pairs) for q in pairs[k + 1:]
             if p[0] != q[0] and rng.random() < density]
    budgets = {p: uniform if uniform is not None else rng.randint(0, max_budget)
               for p in pairs}
    return PairGraph(pairs, edges, budgets)


class TestReadyQueueMatchesScan:
    """The ready-queue kernel returns exactly the orders of the per-step scan."""

    GRAPHS = 1200

    def graphs(self, seed):
        rng = random.Random(seed)
        return [(rng, random_pair_graph(rng)) for _ in range(self.GRAPHS)]

    def test_default_tiebreak(self):
        outcomes = set()
        for _, pg in self.graphs(101):
            got = strictly_degenerate_order(pg)
            assert got == scan_eliminate(pg)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_prefix_tiebreak(self):
        outcomes = set()
        for rng, pg in self.graphs(202):
            prefix = frozenset(rng.sample(range(pg.n), rng.randint(0, pg.n)))
            got = eliminate_with_prefix(pg, [pg.pairs[i] for i in sorted(prefix)])
            assert got == scan_eliminate(pg, prefix=prefix)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_seeded_tiebreak(self):
        outcomes = set()
        for rng, pg in self.graphs(303):
            seed = rng.randrange(1 << 30)
            got = strictly_degenerate_order(pg, seed=seed)
            assert got == scan_eliminate(pg, random.Random(seed))
            outcomes.add(got is None)
        assert outcomes == {True, False}


def test_order_exists_iff_max_core_below_uniform_budget():
    """networkx oracle: with every budget b, an order exists iff the largest
    core number is below b (the pair graph is (b-1)-degenerate)."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(404)
    outcomes = set()
    for _ in range(600):
        b = rng.randint(0, 5)
        pg = random_pair_graph(rng, max_vertices=30, uniform=b)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(pg.n))
        nxg.add_edges_from((i, j) for i in range(pg.n) for j in pg.adj[i] if i < j)
        exists = max(nx.core_number(nxg).values()) < b
        got = strictly_degenerate_order(pg)
        assert (got is not None) == exists
        if got is not None:
            assert order_is_valid(pg, got)
        outcomes.add(exists)
    assert outcomes == {True, False}



def test_orderable_with_one_more_pair_matches_full_elimination():
    """`_orderable_with(masks, budgets, alive, k)`, for an orderable `alive`,
    answers as the full elimination `bitmask_orderable` on alive | 1 << k, on
    seeded random bitmask pair graphs and k inside and outside `alive`."""
    rng = random.Random(505)
    verdicts = Counter()
    for _ in range(400):
        masks, budgets = pair_graph_bits(random_pair_graph(rng, max_vertices=12, max_budget=3))
        n = len(masks)
        for _ in range(6):
            alive = sum(1 << i for i in range(n) if rng.random() < rng.random())
            if not bitmask_orderable(masks, budgets, alive):
                continue
            for k in range(n):
                got = _orderable_with(masks, budgets, alive, k)
                assert got == bitmask_orderable(masks, budgets, alive | 1 << k), (
                    masks, budgets, alive, k)
                verdicts[got, bool(alive >> k & 1)] += 1
    assert min(verdicts[True, False], verdicts[False, False], verdicts[True, True]) > 500, verdicts
