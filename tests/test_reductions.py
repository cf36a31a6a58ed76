import random

import pytest

from dpfcolor import (
    budget_forest,
    budget_list,
    budget_mixed,
    canonicalize_lists,
    check_partition,
    color_classes,
    complete_graph,
    cycle_graph,
    identity_cover,
    solve_exact,
)
from dpfcolor.errors import BadParameters, EmptyList, NotAPartition, PartialColoring

from oracles import forested_coloring_exists, is_forest, list_coloring_exists, random_graph


class TestIdentityCover:
    def test_disjoint_lists_empty_matching(self):
        g = complete_graph(2)
        h = identity_cover(g, {0: {1}, 1: {2}})
        assert h.matching(0, 1) == frozenset()

    def test_equal_lists_two_pairs(self):
        g = complete_graph(2)
        h = identity_cover(g, {0: {1, 2}, 1: {1, 2}})
        assert h.matching(0, 1) == frozenset({(1, 1), (2, 2)})

    def test_single_vertex_no_matchings(self):
        g = complete_graph(1)
        h = identity_cover(g, {0: {1}})
        assert not h.matching_items()

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyList):
            identity_cover(complete_graph(2), {0: set(), 1: {1}})

    def test_missing_list_rejected(self):
        with pytest.raises(EmptyList, match=r"vertices \[2\]"):
            identity_cover(complete_graph(3), {0: [1], 1: [2]})


class TestBudgets:
    def test_list_encoding(self):
        f = budget_list({0: {1, 3}}, s=3)
        assert [f.get(0, i) for i in (1, 2, 3)] == [1, 0, 1]
        assert f.cap == 1

    def test_forest_encoding(self):
        f = budget_forest({0: {2}}, s=2)
        assert [f.get(0, i) for i in (1, 2)] == [0, 2]
        assert f.cap == 2

    def test_mixed_encoding(self):
        f = budget_mixed({0: {1, 2, 3, 4}}, d=4, k=5)
        assert [f.get(0, i) for i in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 0]

    def test_mixed_parameter_validation(self):
        with pytest.raises(BadParameters):
            budget_mixed({0: {1, 2}}, d=2, k=5)  # 2d <= k
        with pytest.raises(BadParameters):
            budget_mixed({0: {1, 2, 3}}, d=6, k=5)  # d > k
        with pytest.raises(BadParameters):
            budget_mixed({0: {1, 2}}, d=3, k=5)  # wrong list size

    def test_canonicalize_symbols(self):
        lists, table = canonicalize_lists({0: {"red", "blue"}, 1: {"blue"}})
        assert table == {"blue": 1, "red": 2}
        assert lists == {0: frozenset({1, 2}), 1: frozenset({1})}


class TestColorClasses:
    def test_alternating_cycle(self):
        classes = color_classes({0: 1, 1: 2, 2: 1, 3: 2}, cycle_graph(4))
        assert classes == {1: frozenset({0, 2}), 2: frozenset({1, 3})}

    def test_monochromatic(self):
        classes = color_classes({v: 1 for v in range(3)})
        assert classes == {1: frozenset({0, 1, 2})}

    def test_empty(self):
        assert color_classes({}) == {}

    def test_partial_rejected(self):
        with pytest.raises(PartialColoring):
            color_classes({0: 1}, cycle_graph(3))


class TestCheckPartition:
    def test_k4_two_pairs_are_forests(self):
        g = complete_graph(4)
        assert check_partition(g, {1: {0, 1}, 2: {2, 3}}, {1: 2, 2: 2})

    def test_k3_single_class_not_forest(self):
        g = complete_graph(3)
        assert not check_partition(g, {1: {0, 1, 2}}, {1: 2})

    def test_independent_class_cap_one(self):
        g = cycle_graph(4)
        assert check_partition(g, {1: {0, 2}, 2: {1, 3}}, {1: 1, 2: 1})
        assert not check_partition(g, {1: {0, 1}, 2: {2, 3}}, {1: 1, 2: 1})

    def test_not_a_partition(self):
        g = complete_graph(3)
        with pytest.raises(NotAPartition):
            check_partition(g, {1: {0, 1}}, {1: 2})
        with pytest.raises(NotAPartition):
            check_partition(g, {1: {0, 1}, 2: {1, 2}}, {1: 2, 2: 2})
        with pytest.raises(NotAPartition):
            check_partition(g, {1: {0, 1, 2}}, {2: 2})

    def test_matches_forest_oracle(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            half = set(v for v in g.vertices if rng.random() < 0.5)
            part = {1: half, 2: set(g.vertices) - half}
            got = check_partition(g, part, {1: 2, 2: 2})
            assert got == (is_forest(g, part[1]) and is_forest(g, part[2]))


class TestEquivalences:
    def test_list_coloring_equivalence(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_graph(rng.randint(1, 6), 0.5, rng)
            s = rng.randint(1, 3)
            lists = {v: frozenset(rng.sample(range(1, s + 1), rng.randint(1, s)))
                     for v in g.vertices}
            h = identity_cover(g, lists, s=s)
            f = budget_list(lists, s=s)
            got = solve_exact(g, h, f) is not None
            assert got == list_coloring_exists(g, lists)

    def test_forested_coloring_equivalence(self):
        rng = random.Random(202)
        for _ in range(50):
            g = random_graph(rng.randint(1, 6), 0.6, rng)
            s = rng.randint(1, 3)
            lists = {v: frozenset(rng.sample(range(1, s + 1), rng.randint(1, s)))
                     for v in g.vertices}
            h = identity_cover(g, lists, s=s)
            f = budget_forest(lists, s=s)
            got = solve_exact(g, h, f)
            assert (got is not None) == forested_coloring_exists(g, lists)
            if got is not None:
                classes = color_classes(got[0], g)
                assert all(is_forest(g, members) for members in classes.values())

    def test_mixed_coloring_partition_shape(self):
        rng = random.Random(303)
        d, k = 2, 3  # split = 1: color 1 independent, colors >= 2 forests
        for _ in range(40):
            g = random_graph(rng.randint(1, 6), 0.4, rng)
            lists = {v: frozenset(rng.sample(range(1, 4), d)) for v in g.vertices}
            h = identity_cover(g, lists, s=3)
            f = budget_mixed(lists, d=d, k=k)
            got = solve_exact(g, h, f)
            if got is None:
                continue
            classes = color_classes(got[0], g)
            full = {c: classes.get(c, frozenset()) for c in (1, 2, 3)}
            caps = {1: 1, 2: 2, 3: 2}
            assert check_partition(g, full, caps)
