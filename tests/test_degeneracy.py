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


class ReadLog(list):
    """A list of masks that records every index read from it."""

    def __init__(self, masks):
        super().__init__(masks)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def component(masks, live, k):
    """k's connected component inside the index set `live`, and its depth:
    the largest distance from k within it, by breadth-first search."""
    seen, layer, depth = {k}, [k], 0
    while True:
        layer = sorted({j for i in layer for j in live - seen if masks[i] >> j & 1})
        if not layer:
            return seen, depth
        seen.update(layer)
        depth += 1


def random_masks(rng, n, density, max_budget):
    """A seeded bitmask pair graph on n pairs, each pair of pairs an edge
    with probability `density`, with budgets 1..max_budget."""
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks, [rng.randint(1, max_budget) for _ in range(n)]


def disjoint_union(graphs):
    """The masks and budgets of the disjoint union of bitmask pair graphs,
    each shifted past the ones before it."""
    masks, budgets = [], []
    for g_masks, g_budgets in graphs:
        masks += [m << len(budgets) for m in g_masks]
        budgets += g_budgets
    return masks, budgets


class TestOrderableWithReadsOnlyTheComponent:
    """`_orderable_with` eliminates only inside the tried pair's component:
    it still answers as the whole elimination, and reads no mask outside
    that component."""

    def test_disjoint_unions_match_full_elimination(self):
        """On seeded disjoint unions of random pair graphs, with floors on
        the probes that grow a component: both verdicts, a component short
        of all of `alive`, and one reaching two or more steps from k."""
        rng = random.Random(606)
        verdicts, strict, deep = Counter(), 0, 0
        for _ in range(200):
            masks, budgets = disjoint_union(
                random_masks(rng, rng.randint(1, 12), rng.choice((0.15, 0.25, 0.4)), 3)
                for _ in range(rng.randint(2, 4)))
            n = len(masks)
            for _ in range(8):
                density = rng.random()
                alive = sum(1 << i for i in range(n) if rng.random() < density)
                if not bitmask_orderable(masks, budgets, alive):
                    continue
                for k in range(n):
                    log = ReadLog(masks)
                    got = _orderable_with(log, budgets, alive, k)
                    live = alive | 1 << k
                    assert got == bitmask_orderable(masks, budgets, live), (masks, budgets, alive, k)
                    if (masks[k] & alive).bit_count() < budgets[k]:
                        continue  # removable at once: no component is grown
                    live_set = {i for i in range(n) if live >> i & 1}
                    comp, depth = component(masks, live_set, k)
                    assert log.read <= comp, (masks, budgets, alive, k)
                    verdicts[got] += 1
                    strict += comp < live_set
                    deep += depth >= 2
        assert min(verdicts[True], verdicts[False]) > 400, verdicts
        assert strict > 1500 and deep > 700, (strict, deep)

    @pytest.mark.parametrize("length", [2, 3, 5, 9])
    @pytest.mark.parametrize("stuck", [False, True])
    @pytest.mark.parametrize("labels", ["outward", "inward", "shuffled"])
    def test_k_is_freed_only_through_a_chain(self, length, stuck, labels):
        """k (budget 1) hangs on a chain p1 .. pL of budget-2 pairs, so k is
        freed only once p1 goes, p1 only once p2 goes, and so on.  The chain
        ends free, so it unravels from pL back to k, or on a triangle core
        that holds pL in place: then k is never freed, although without k
        the chain unravels from p1 and the core after it.  A pair x outside
        `alive` touches every chain pair, and an alive edge u-w lies in
        another component; the test must read neither."""
        chain = ["k"] + [f"p{i}" for i in range(1, length + 1)]
        names = chain + ["a", "b", "c"] * stuck + ["x", "u", "w"]
        edges = list(zip(chain, chain[1:])) + [(p, "x") for p in chain[1:]] + [("u", "w")]
        budget = {"k": 1, "x": 1, "u": 2, "w": 2, **{p: 2 for p in chain[1:]}}
        if stuck:
            edges += [(chain[-1], "a"), ("a", "b"), ("b", "c"), ("a", "c")]
            budget.update(a=3, b=2, c=2)
        if labels == "inward":
            names = names[::-1]
        elif labels == "shuffled":
            random.Random(f"{length}/{stuck}").shuffle(names)
        index = {p: i for i, p in enumerate(names)}
        masks = [0] * len(names)
        for p, q in edges:
            masks[index[p]] |= 1 << index[q]
            masks[index[q]] |= 1 << index[p]
        budgets = [budget[p] for p in names]
        k = index["k"]
        alive = sum(1 << index[p] for p in names if p not in ("k", "x"))
        assert bitmask_orderable(masks, budgets, alive)
        assert bitmask_orderable(masks, budgets, alive | 1 << k) is not stuck
        log = ReadLog(masks)
        assert _orderable_with(log, budgets, alive, k) is not stuck
        assert log.read <= {index[p] for p in names if p not in ("x", "u", "w")}
