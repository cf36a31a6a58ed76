import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfcolor import (
    Budget,
    SimpleGraph,
    check_configuration_conditions,
    extend_over_configuration,
    induced_pair_graph,
    order_is_valid,
)
from dpfcolor.errors import BadIndex, InternalInvariantViolated, NotInduced, PreconditionViolated

from oracles import (
    fan_configuration_instance,
    random_graph,
    reference_configuration_conditions,
    relabel_extend_over_configuration,
)


def fan_graph(extra_v1_external=0):
    # cycle 0..4 with chords 0-2 and 0-3; optional pendant neighbors at 0
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)]
    n = 5 + extra_v1_external
    for t in range(extra_v1_external):
        edges.append((0, 5 + t))
    return SimpleGraph(n, edges)


def flat_budget(g, k):
    s = k
    values = {}
    for v in g.vertices:
        left = k
        for c in range(1, s + 1):
            take = min(2, left)
            if take:
                values[(v, c)] = take
            left -= take
    return Budget(s, 2, values)


class TestConditions:
    def test_bare_fan_passes_k4(self):
        g = fan_graph()
        assert check_configuration_conditions(g, flat_budget(g, 4), 4, [0, 1, 2, 3, 4])

    def test_one_external_at_v1_still_passes(self):
        g = fan_graph(extra_v1_external=1)
        assert check_configuration_conditions(g, flat_budget(g, 4), 4, [0, 1, 2, 3, 4])

    def test_two_externals_at_v1_fail_first_condition(self):
        g = fan_graph(extra_v1_external=2)
        assert not check_configuration_conditions(g, flat_budget(g, 4), 4, [0, 1, 2, 3, 4])

    def test_extra_kneighbor_of_last_vertex_fails(self):
        g = fan_graph()
        edges = list(g.edges) + [(2, 4)]  # third neighbor of v5 inside K
        g2 = SimpleGraph(5, edges)
        assert not check_configuration_conditions(g2, flat_budget(g2, 4), 4, [0, 1, 2, 3, 4])

    def test_last_vertex_degree_above_k_fails(self):
        g = fan_graph()
        edges = list(g.edges) + [(4, 5), (4, 6), (4, 7)]
        g2 = SimpleGraph(8, edges)
        assert not check_configuration_conditions(g2, flat_budget(g2, 4), 4, [0, 1, 2, 3, 4])

    def test_verdict_does_not_depend_on_the_budget(self):
        """The budget is accepted but not read: an empty budget, one far
        below k and one at k give the same verdict on passing and failing
        configurations alike."""
        graphs = [fan_graph(), fan_graph(extra_v1_external=1), fan_graph(extra_v1_external=2)]
        graphs.append(SimpleGraph(5, list(fan_graph().edges) + [(2, 4)]))
        verdicts = []
        for g in graphs:
            budgets = [flat_budget(g, 4), flat_budget(g, 1), Budget(4, 2, {}),
                       Budget(9, 2, {(v, 9): 2 for v in g.vertices})]
            got = {check_configuration_conditions(g, f, 4, [0, 1, 2, 3, 4]) for f in budgets}
            assert len(got) == 1, g
            verdicts += got
        assert verdicts == [True, True, False, False]

    def test_k_below_three_raises(self):
        g = fan_graph()
        with pytest.raises(BadIndex):
            check_configuration_conditions(g, flat_budget(g, 4), 2, [0, 1, 2, 3, 4])

    def test_short_or_repeating_sequences_raise(self):
        g = fan_graph()
        with pytest.raises(BadIndex):
            check_configuration_conditions(g, flat_budget(g, 4), 4, [0, 1])
        with pytest.raises(NotInduced):
            check_configuration_conditions(g, flat_budget(g, 4), 4, [0, 1, 1, 2])
        with pytest.raises(NotInduced):
            check_configuration_conditions(g, flat_budget(g, 4), 4, [0, 1, 2, 99])


def _conditions_as_reference(g, k, K):
    got = check_configuration_conditions(g, flat_budget(g, k), k, K)
    assert got == reference_configuration_conditions(g, k, K), (g.edge_list(), k, K)
    return got


def test_conditions_match_reference_on_seeded_configurations():
    """The position-map check of condition (iii) against the check that
    intersects with every vertex outside K, on random graphs and orders and
    on the seeded configurations the extension tests use."""
    verdicts = Counter()
    rng = random.Random("configurations/conditions")
    for _ in range(400):
        g = random_graph(rng.randint(3, 12), rng.choice([0.2, 0.35, 0.5]), rng)
        K = rng.sample(g.vertices, rng.randint(3, g.n))
        verdicts[_conditions_as_reference(g, rng.randint(3, 6), K)] += 1
    for seed in range(10):
        for k in (3, 4):
            g, _, _, K, _ = fan_configuration_instance(seed, k)
            for K2 in (K, K[::-1], K[1:] + K[:1]):
                verdicts[_conditions_as_reference(g, k, K2)] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


@settings(max_examples=150)
@given(n=st.integers(3, 9), data=st.data())
def test_conditions_match_reference_on_drawn_configurations(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = SimpleGraph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    K = data.draw(st.permutations(range(n)))[:data.draw(st.integers(3, n))]
    _conditions_as_reference(g, data.draw(st.integers(3, 7)), K)


class TestExtension:
    def test_seeded_instances_extend_and_verify(self):
        for seed in range(15):
            for k in (3, 4):
                g, h, f, K, r0 = fan_configuration_instance(seed, k)
                r, order = extend_over_configuration(g, h, f, k, K, r0)
                assert set(r) == set(g.vertices)
                assert all(r[v] == c for v, c in r0.items())
                assert order_is_valid(induced_pair_graph(g, h, f, r), order)

    def test_budget_total_below_k_rejected(self):
        g, h, f, K, r0 = fan_configuration_instance(0, 4)
        weak = f.assign({(g.vertices[0], i): 0 for i in f.support(g.vertices[0])})
        with pytest.raises(PreconditionViolated):
            extend_over_configuration(g, h, weak, 4, K, r0)

    def test_cap_above_two_rejected(self):
        g, h, f, K, r0 = fan_configuration_instance(1, 3)
        fat = Budget(f.s, 3, dict(f.items()))
        with pytest.raises(PreconditionViolated):
            extend_over_configuration(g, h, fat, 3, K, r0)

    def test_wrong_r0_domain_rejected(self):
        g, h, f, K, r0 = fan_configuration_instance(2, 3)
        r0_bad = dict(r0)
        r0_bad.pop(sorted(r0_bad)[0])
        with pytest.raises(PreconditionViolated):
            extend_over_configuration(g, h, f, 3, K, r0_bad)

    def test_failing_conditions_rejected(self):
        g, h, f, K, r0 = fan_configuration_instance(3, 3)
        # reversing the configuration order breaks condition (ii) in general
        reversed_K = tuple(reversed(K))
        if not check_configuration_conditions(g, f, 3, reversed_K):
            with pytest.raises(PreconditionViolated):
                extend_over_configuration(g, h, f, 3, reversed_K, r0)


def test_greedy_fault_names_its_vertex(fail_last_greedy_placement):
    """The extension's greedy placements are the planar steps' one: a
    placement that finds no residual color raises InternalInvariantViolated
    naming that vertex."""
    g, h, f, K, r0 = fan_configuration_instance(0, 4)
    placed = fail_last_greedy_placement(
        lambda: extend_over_configuration(g, h, f, 4, K, r0))
    assert placed and set(placed) <= set(K[1:])
    with pytest.raises(InternalInvariantViolated,
                       match=f"^greedy step failed: no residual color for vertex {placed[-1]}$"):
        extend_over_configuration(g, h, f, 4, K, r0)


def _outcome(extend, *args):
    """What an extension returns, or the class and message of what it raises."""
    try:
        r, order = extend(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return list(r.items()), order


class TestNamesMatchRelabeledCopies:
    def test_same_outcome_as_the_relabeled_construction(self):
        """The extension names colors in input colors; the reference renames
        copies of the cover and budgets and translates back.  On 320 seeded
        instances, each with K as given and reversed, both must return the
        same coloring (insertion order included) and order, or raise the
        same error.  Case two (vm's pair first in K's order) must occur, as
        must case one."""
        seen = Counter()
        for k in (3, 4, 5, 6):
            for seed in range(80):
                g, h, f, K, r0 = fan_configuration_instance(seed, k)
                for order_of_K in (K, K[::-1]):
                    args = (g, h, f, k, order_of_K, r0)
                    got = _outcome(extend_over_configuration, *args)
                    assert got == _outcome(relabel_extend_over_configuration, *args), (k, seed)
                    if isinstance(got[0], type):
                        seen[got[0].__name__] += 1
                    else:
                        seen["case two" if got[1][len(r0)][0] == order_of_K[-1] else "case one"] += 1
        assert seen["case one"] > 100 and seen["case two"] > 30, seen
        assert seen["PreconditionViolated"] > 100, seen


class TestExtensionSpecExamples:
    def test_triangle_configuration_off_colored_base(self):
        # K = triangle (1,2,3) hanging off base vertex 0, k = 3, budget
        # totals exactly 3, external matchings empty
        g = SimpleGraph(4, [(1, 2), (2, 3), (1, 3), (0, 3), (0, 2)])
        from dpfcolor import Cover
        lists = {v: frozenset((1, 2)) for v in g.vertices}
        matchings = {
            (1, 2): [(1, 1), (2, 2)],
            (2, 3): [(1, 1), (2, 2)],
            (1, 3): [(1, 1), (2, 2)],
            # edges into the base carry no matchings
        }
        h = Cover(2, lists, matchings)
        f = Budget(2, 2, {(v, 1): 2 for v in g.vertices} | {(v, 2): 1 for v in g.vertices})
        K = (1, 2, 3)
        assert check_configuration_conditions(g, f, 3, K)
        r0 = {0: 1}
        r, order = extend_over_configuration(g, h, f, 3, K, r0)
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)
        # brute-force cross-check that an extension exists at all
        from oracles import coloring_exists_by_enumeration
        assert coloring_exists_by_enumeration(g, h, f, precolored=r0)

    def test_case_one_trigger_zero_residual_on_last_vertex(self):
        # base vertex 0 colored; its matching eats color 1 of vm, so the
        # color where v1 out-budgets vm has zero residual at vm
        from dpfcolor import Cover
        g = SimpleGraph(4, [(1, 2), (2, 3), (1, 3), (0, 3)])
        lists = {v: frozenset((1, 2, 3)) for v in g.vertices}
        ident = [(1, 1), (2, 2), (3, 3)]
        h = Cover(3, lists, {(1, 2): ident, (2, 3): ident, (1, 3): ident,
                             (0, 3): [(1, 1)]})
        f = Budget(3, 2, {(v, c): 1 for v in g.vertices for c in (1, 2, 3)})
        K = (1, 2, 3)  # v1=1, v2=2, vm=3; vm matched to the base on color 1
        assert check_configuration_conditions(g, f, 3, K)
        r, order = extend_over_configuration(g, h, f, 3, K, {0: 1})
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)
        assert r[3] != 1  # color 1 of vm had residual zero

    def test_case_two_trigger_puts_last_vertex_first(self):
        # bare triangle, nothing precolored; budgets force the middle vertex
        # onto color 2, so vm's pair must head the order
        from dpfcolor import Cover
        g = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        lists = {v: frozenset((1, 2)) for v in g.vertices}
        ident = [(1, 1), (2, 2)]
        h = Cover(2, lists, {(0, 1): ident, (1, 2): ident, (0, 2): ident})
        f = Budget(2, 2, {(0, 1): 2, (0, 2): 1,   # v1
                          (1, 1): 1, (1, 2): 2,   # middle, pushed to color 2
                          (2, 1): 1, (2, 2): 2})  # vm
        K = (0, 1, 2)
        assert check_configuration_conditions(g, f, 3, K)
        r, order = extend_over_configuration(g, h, f, 3, K, {})
        assert order_is_valid(induced_pair_graph(g, h, f, r), order)
        assert r[1] == 2          # the middle vertex took color 2
        assert order[0] == (2, 1)  # vm's pair leads the order
