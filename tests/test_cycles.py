import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfcolor import (
    FamilyA,
    NoAdj34,
    NoCycleLengths,
    SimpleGraph,
    check_family,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    gen_planar_triangulation,
    path_graph,
)
from dpfcolor.errors import BadSpec, LimitExceeded

from oracles import (
    grid,
    listing_check_family,
    naive_cycle_lengths,
    pendant_grid,
    random_graph,
    reference_enumerate_cycles,
    reference_no_cycle_lengths,
    thin_triangulation,
    triangulated_polygon,
    wheel,
    windmill,
)


def count_cycles_by_subsets(g, length):
    """Independent oracle: vertex subsets inducing a 2-regular connected graph
    that uses all of the subset's edges (i.e. the subset is a chordless-or-not
    cycle exactly when the induced edges can be ordered as one cycle)."""
    count = 0
    for subset in combinations(g.vertices, length):
        sub = g.induced(subset)
        # count Hamilton cycles of the induced subgraph on `subset`
        verts = list(subset)
        first = verts[0]
        seen = set()

        def walk(path, used):
            nonlocal count
            if len(path) == length:
                if first in sub.adj[path[-1]]:
                    key = tuple(path)
                    rev = (key[0],) + tuple(reversed(key[1:]))
                    if key <= rev and key not in seen:
                        seen.add(key)
                        count += 1
                return
            for nxt in sorted(sub.adj[path[-1]]):
                if nxt not in used and nxt != first:
                    walk(path + [nxt], used | {nxt})

        walk([first], {first})
    return count


class TestEnumerate:
    def test_k4_counts(self):
        cs = enumerate_cycles(complete_graph(4), 4)
        assert len(cs.get(3, [])) == 4
        assert len(cs.get(4, [])) == 3

    def test_c5_single_cycle(self):
        cs = enumerate_cycles(cycle_graph(5), 9)
        assert set(cs) == {5}
        assert cs[5] == [(0, 1, 2, 3, 4)]

    def test_tree_empty(self):
        assert enumerate_cycles(path_graph(6), 9) == {}

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            enumerate_cycles(cycle_graph(5), 11)

    def test_counts_match_subset_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_graph(rng.randint(3, 7), 0.5, rng)
            cs = enumerate_cycles(g, 7)
            for length in range(3, 8):
                assert len(cs.get(length, [])) == count_cycles_by_subsets(g, length)

    def test_canonical_form_is_min_rotation_reflection(self):
        cs = enumerate_cycles(complete_graph(4), 4)
        for cycles in cs.values():
            for cyc in cycles:
                assert cyc[0] == min(cyc)
                assert cyc[1] < cyc[-1]
                assert len(cycles) == len(set(cycles))


class TestFamilies:
    def test_c5_without_4679(self):
        assert check_family(cycle_graph(5), NoCycleLengths({4, 6, 7, 9}))

    def test_k4_fails_noadj34(self):
        assert not check_family(complete_graph(4), NoAdj34())

    def test_k4_in_family_a(self):
        assert check_family(complete_graph(4), FamilyA())

    def test_house_graph_fails_family_a(self):
        # 5-cycle with a chord: triangle, quadrilateral and the 5-cycle
        # pairwise share edges
        g = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        assert not check_family(g, FamilyA())
        assert not check_family(g, NoAdj34())

    def test_c8_passes_all_nocycle_specs(self):
        g = cycle_graph(8)
        assert check_family(g, NoCycleLengths({4, 6, 7, 9}))
        assert not check_family(g, NoCycleLengths({4, 6, 8, 9}))

    def test_bad_specs_rejected(self):
        for bad in ({4, 6, 9}, {4, 5, 6, 9}, {4, 6, 7, 8, 9}, {3, 5}, set()):
            with pytest.raises(BadSpec):
                NoCycleLengths(bad)

    def test_nocyclelengths_matches_naive_search(self):
        rng = random.Random(31)
        spec_sets = [frozenset({4, 6, 7, 9}), frozenset({4, 6, 8, 9}),
                     frozenset({4, 7, 8, 9})]
        for _ in range(30):
            g = random_graph(rng.randint(3, 8), 0.35, rng)
            lengths = naive_cycle_lengths(g)
            for ss in spec_sets:
                assert check_family(g, NoCycleLengths(ss)) == (not (lengths & ss))


# -- networkx as an independent oracle ------------------------------------------

def _nx_cycles(g, max_len):
    """Cycles of length 3..max_len by length, in enumerate_cycles' canonical
    form, from networkx's simple_cycles."""
    nx = pytest.importorskip("networkx")
    out = {}
    for c in nx.simple_cycles(nx.Graph(g.edge_list()), length_bound=max_len):
        k = c.index(min(c))
        c = c[k:] + c[:k]
        if c[1] > c[-1]:
            c = c[:1] + c[:0:-1]
        out.setdefault(len(c), []).append(tuple(c))
    return {length: sorted(cs) for length, cs in out.items()}


def _nx_in_family(cycles, spec):
    """The family's definition read off networkx's cycles of length <= 9."""
    by_len = {length: [frozenset(map(frozenset, zip(c, c[1:] + c[:1]))) for c in cs]
              for length, cs in cycles.items()}
    threes, fours, fives = (by_len.get(length, []) for length in (3, 4, 5))
    if isinstance(spec, NoAdj34):
        return not any(t & q for t in threes for q in fours)
    if isinstance(spec, FamilyA):
        return not any(t & q and t & p and q & p for t in threes for q in fours for p in fives)
    return not any(by_len.get(length) for length in spec.lengths)


def _oracle_graphs():
    rng = random.Random("cycles/networkx")
    for _ in range(40):
        yield random_graph(rng.randint(3, 9), rng.choice([0.2, 0.35, 0.5]), rng)
    for t in range(10):
        stacked = gen_planar_triangulation(rng.randint(4, 9), t)
        yield from (stacked.graph, thin_triangulation(stacked, rng).graph,
                    triangulated_polygon(rng.randint(4, 9), rng).graph)
    yield from (wheel(p).graph for p in range(3, 8))
    yield from (grid(k, seed=k).graph for k in (2, 3))


def test_enumerate_cycles_matches_networkx():
    checked = 0
    for g in _oracle_graphs():
        for max_len in range(3, 10):
            expected = _nx_cycles(g, max_len)
            assert enumerate_cycles(g, max_len) == expected, (g.edge_list(), max_len)
            checked += sum(map(len, expected.values()))
    assert checked > 1000


SPECS = [NoAdj34(), FamilyA()] + [NoCycleLengths(ls) for ls in
                                  ({4, 6, 7, 9}, {4, 6, 8, 9}, {4, 7, 8, 9})]


def test_check_family_matches_networkx():
    verdicts = Counter()
    for g in _oracle_graphs():
        cycles = _nx_cycles(g, 9)
        for spec in SPECS:
            expected = _nx_in_family(cycles, spec)
            assert check_family(g, spec) == expected, (g.edge_list(), spec)
            verdicts[spec, expected] += 1
    # Every spec meets graphs on both sides.
    assert len(verdicts) == 2 * len(SPECS), verdicts


# -- the closed-path walk against the walk that lists every cycle first --------

NO_CYCLE_LENGTHS = [frozenset({4, 6, 7, 9}), frozenset({4, 6, 8, 9}), frozenset({4, 7, 8, 9})]


def assert_as_reference(g):
    """enumerate_cycles as `oracles.reference_enumerate_cycles` lists it,
    dict key order included, at every length bound, and each
    no-cycle-lengths verdict as the check that reads the whole list."""
    for max_len in range(0, 10):
        got = enumerate_cycles(g, max_len)
        assert list(got.items()) == list(reference_enumerate_cycles(g, max_len).items()), (
            g.edge_list(), max_len)
    verdicts = [check_family(g, NoCycleLengths(ls)) for ls in NO_CYCLE_LENGTHS]
    assert verdicts == [reference_no_cycle_lengths(g, ls) for ls in NO_CYCLE_LENGTHS], (
        g.edge_list())
    return verdicts


def test_closed_path_walk_matches_reference_on_seeded_graphs():
    verdicts = Counter()
    for g in _oracle_graphs():
        verdicts.update(assert_as_reference(g))
    for seed in range(5):
        g = gen_planar_triangulation(12 + seed, seed).graph
        verdicts.update(assert_as_reference(g))
    assert verdicts[True] and verdicts[False], verdicts


@settings(max_examples=150)
@given(n=st.integers(0, 9), data=st.data())
def test_closed_path_walk_matches_reference_on_drawn_graphs(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    assert_as_reference(SimpleGraph(n, edges))


# -- the edge-local family checks against the checks that list cycles ---------

def assert_families_as_listed(g):
    """`NoAdj34` and `FamilyA` verdicts as `oracles.listing_check_family`
    and the networkx definition give them; returns the two verdicts,
    whether some triangle and 4-cycle share exactly one edge (a case (a)
    pair) and whether some share two (a diamond)."""
    cycles = _nx_cycles(g, 5)
    verdicts = []
    for spec in (NoAdj34(), FamilyA()):
        verdicts.append(check_family(g, spec))
        assert verdicts[-1] == listing_check_family(g, spec) == _nx_in_family(cycles, spec), (
            g.edge_list(), spec)
    shared = {len(set(map(frozenset, zip(t, t[1:] + t[:1])))
                  & set(map(frozenset, zip(q, q[1:] + q[:1]))))
              for t in cycles.get(3, []) for q in cycles.get(4, [])}
    return (*verdicts, 1 in shared, 2 in shared)


def test_family_checks_match_listing_on_every_atlas_graph():
    """Every graph on at most 7 vertices, under 3 seeded relabelings.  The
    floors make sure each of the check's cases meets graphs here."""
    nx = pytest.importorskip("networkx")
    rng = random.Random("cycles/atlas")
    seen = Counter()
    for a in nx.graph_atlas_g():
        for _ in range(3):
            perm = list(range(a.number_of_nodes()))
            rng.shuffle(perm)
            g = SimpleGraph(len(perm), [(perm[u], perm[v]) for u, v in a.edges])
            in_34, in_a, one_edge, diamond = assert_families_as_listed(g)
            seen["family-a", in_a] += 1
            seen["noadj34", in_34] += 1
            seen["case (a) pair"] += one_edge
            seen["rejected by case (b) alone"] += not in_a and not one_edge
            seen["in family-a with a diamond"] += in_a and diamond
    assert seen["rejected by case (b) alone"] >= 30, seen
    assert seen["in family-a with a diamond"] >= 300, seen
    assert seen["case (a) pair"] >= 2000, seen
    assert all(seen[fam, verdict] for fam in ("family-a", "noadj34")
               for verdict in (True, False)), seen


def test_family_checks_match_listing_on_planar_shapes():
    seen = Counter()
    rng = random.Random("cycles/planar")
    shapes = [*_oracle_graphs(), *(windmill(t, hub) for t in (1, 2, 5) for hub in (0, 2 * t)),
              *(pendant_grid(k) for k in (2, 3, 5))]
    for t in range(40):
        stacked = gen_planar_triangulation(rng.randint(5, 14), t)
        shapes += [stacked.graph, thin_triangulation(stacked, rng).graph,
                   triangulated_polygon(rng.randint(5, 12), rng).graph]
    for g in shapes:
        seen[assert_families_as_listed(g)[:2]] += 1
    # (NoAdj34, FamilyA): NoAdj34 lies inside FamilyA
    assert seen[True, True] and seen[False, False] and seen[False, True], seen


@settings(max_examples=200)
@given(n=st.integers(0, 9), data=st.data())
def test_family_checks_match_listing_on_drawn_graphs(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    assert_families_as_listed(SimpleGraph(n, edges))
