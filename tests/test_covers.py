"""Renaming colors in covers and budgets, updating budgets, and the
objects built without validation.

`Cover.relabel`, `Budget.relabel` and `Budget.assign` build their results
through the validating constructors, so a faulty entry raises the
constructor's error.  `SimpleGraph.induced`, the residual budget of the
planar recursion and its plane pieces (`split_on_chord`, `delete_vertex`,
`with_outer`) build theirs without them; these tests compare them, and the
renamed and updated copies, with objects built through `Cover(...)`,
`Budget(...)`, `SimpleGraph.on_vertices(...)` and `PlaneGraph(...)` from
the same data.  A plane piece must also share (`is`) every row of its
parent except those of the vertices that lose a neighbour.

A graph stores only its adjacency sets, and `edges` is derived from them;
a budget stores only its per-vertex rows, and a row is never empty.  So
comparing the adjacency and the rows (as `==` does) checks every stored
table, including that `Budget.assign` drops a row it empties.
"""

import gc
import random
import re
from collections import Counter

import pytest

from dpfcolor import (
    Budget,
    Cover,
    PlaneGraph,
    SimpleGraph,
    fan_neighbors,
    gen_planar_triangulation,
    gen_random_budget,
    gen_random_cover,
    induced_pair_graph,
    order_is_valid,
    solve_planar_dpg52,
    split_on_chord,
    verify_coloring,
)
from dpfcolor.coloring import _residuals, residual_at
from dpfcolor.formats import emit_cover, parse_cover
from dpfcolor.planar import _piece, delete_vertex

from probe import Probe

from oracles import (
    grid,
    input_tables,
    random_graph,
    thin_triangulation,
    triangulated_polygon,
    wheel,
)


class TestRelabelNeedsBijections:
    def test_cover_rejects_collapsing_map(self):
        h = Cover(3, {0: [1, 2], 1: [1, 3]}, {(0, 1): [(2, 3)]})
        with pytest.raises(ValueError):
            h.relabel({0: {1: 1, 2: 1, 3: 3}})

    def test_budget_rejects_collapsing_map(self):
        f = Budget(3, 2, {(0, 1): 1, (0, 2): 2})
        with pytest.raises(ValueError):
            f.relabel({0: {1: 1, 2: 1, 3: 3}})

    @pytest.mark.parametrize("perm", [
        {1: 4, 2: 2, 3: 3},          # image is not the domain
        {1: 4, 2: 2, 3: 3, 4: 1},    # a bijection, but color 1 leaves 1..s
        {2: 3, 3: 2},                # domain is not an initial segment
        {1: 2, 2: 2},                # not injective
    ])
    def test_both_reject_other_bad_renamings(self, perm):
        h = Cover(3, {0: [1, 2, 3]})
        f = Budget(3, 2, {(0, 1): 1})
        with pytest.raises(ValueError):
            h.relabel({0: perm})
        with pytest.raises(ValueError):
            f.relabel({0: perm})

    def test_bijection_of_lower_colors_keeps_the_rest(self):
        h = Cover(3, {0: [1, 3], 1: [2, 3]}, {(0, 1): [(1, 2), (3, 3)]})
        f = Budget(3, 2, {(0, 1): 1, (0, 3): 2})
        swap = {0: {1: 2, 2: 1}}
        assert h.relabel(swap) == Cover(3, {0: [2, 3], 1: [2, 3]},
                                        {(0, 1): [(2, 2), (3, 3)]})
        assert f.relabel(swap) == Budget(3, 2, {(0, 2): 1, (0, 3): 2})

    def test_bijection_beyond_s_is_fine_while_colors_stay_in_range(self):
        # The planar solver renames a budget with the cover's bijections of
        # 1..s(cover), which may exceed the budget's own s.
        f = Budget(2, 2, {(0, 1): 1, (1, 2): 2})
        assert f.relabel({0: {1: 2, 2: 1, 3: 3}, 1: {1: 1, 2: 2, 3: 3}}) == Budget(
            2, 2, {(0, 2): 1, (1, 2): 2})


class TestAssignValidates:
    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            Budget(3, 2, {(0, 1): 1}).assign({(0, 4): 1})

    def test_value_out_of_range(self):
        f = Budget(3, 2, {(0, 1): 1})
        with pytest.raises(ValueError):
            f.assign({(0, 2): 3})
        with pytest.raises(ValueError):
            f.assign({(0, 2): -1})


_F = Budget(3, 2, {(0, 1): 1, (1, 2): 2})
_H = Cover(3, {0: [1, 2], 1: [1, 3]}, {(0, 1): [(2, 3)]})
_PAST_S = {0: {1: 4, 2: 2, 3: 3, 4: 1}}  # a bijection of 1..4 that sends color 1 past s = 3


@pytest.mark.parametrize("call,build", [
    (lambda: _F.relabel(_PAST_S), lambda: Budget(3, 2, {(0, 4): 1, (1, 2): 2})),
    (lambda: _H.relabel(_PAST_S), lambda: Cover(3, {0: [4, 2], 1: [1, 3]}, {(0, 1): [(2, 3)]})),
    (lambda: _F.assign({(0, 4): 1}), lambda: Budget(3, 2, {(0, 4): 1, (0, 1): 1, (1, 2): 2})),
    (lambda: _F.assign({(1, 2): 3}), lambda: Budget(3, 2, {(0, 1): 1, (1, 2): 3})),
    (lambda: _F.assign({(2, 3): -1}), lambda: Budget(3, 2, {(2, 3): -1, (0, 1): 1, (1, 2): 2})),
], ids=["budget-relabel-past-s", "cover-relabel-past-s", "assign-color", "assign-value-above-cap",
        "assign-negative-value"])
def test_one_faulty_entry_raises_the_constructors_message(call, build):
    """A renamed or updated copy with one faulty entry raises the same
    ValueError message as the validating constructor on the same entries."""
    with pytest.raises(ValueError) as built:
        build()
    with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
        call()


@pytest.mark.parametrize("values", [
    [((0, 1), 0), ((0, 1), 2)],
    [((0, 1), 2), ((0, 1), 0)],
    [((0, 1), 0), ((0, 1), 0)],
])
def test_budget_rejects_duplicate_entries_whatever_their_values(values):
    with pytest.raises(ValueError, match=r"duplicate entry for \(0,1\)"):
        Budget(2, 2, values)


def _both_ways(u, v, pairs):
    """One matching given keyed (u, v) and keyed (v, u) with its pairs flipped."""
    return [{(u, v): pairs}, {(v, u): [(cv, cu) for cu, cv in pairs]}]


@pytest.mark.parametrize("s, lists, matchings, message", [
    (2, {0: [1]}, {(0, 0): [(1, 1)]}, "loop at 0"),
    (2, {0: [1]}, {(0, 1): [(1, 1)]}, "without a list"),
    (2, {0: [1]}, {(1, 0): [(1, 1)]}, "without a list"),
    (2, {0: [1], 1: [1]}, {(0, 1): [(2, 1)]}, "color 2 not in list of 0"),
    (2, {0: [1], 1: [1]}, {(0, 1): [(1, 2)]}, "color 2 not in list of 1"),
    (2, {0: [1, 2], 1: [1, 2]}, {(0, 1): [(1, 2), (1, 2)]}, "partial bijection"),
    *[(2, {0: [1, 2], 1: [1, 2]}, m, "partial bijection")
      for pairs in ([(1, 1), (1, 2)], [(1, 1), (2, 1)]) for m in _both_ways(0, 1, pairs)],
    (2, {0: [3]}, {}, r"outside 1\.\.2"),
    (2, {0: [0, 1]}, {}, r"outside 1\.\.2"),
    (0, {}, {}, "at least one color"),
    (2, {0: [1, 2], 1: [1, 2]}, {(0, 1): [(1, 1)], (1, 0): [(2, 2)]},
     r"duplicate matching for \(0,1\)"),
    (2, {0: [1, 2], 1: [1, 2]}, {(0, 1): [], (1, 0): [(2, 2)]},
     r"duplicate matching for \(0,1\)"),
    (2, {0: [1, 2], 1: [1, 2]}, {(1, 0): [(1, 2)], (0, 1): []},
     r"duplicate matching for \(0,1\)"),
    (2, {0: [1, 2], 1: [1, 2]}, [((0, 1), [(1, 1)]), ((0, 1), [(2, 1)])],
     r"duplicate matching for \(0,1\)"),
    (2, {0: [1, 2], 1: [1, 2]}, [((0, 1), [(1, 1)]), ((0, 1), [(1, 1)])],
     r"duplicate matching for \(0,1\)"),
])
def test_cover_rejects_bad_tables(s, lists, matchings, message):
    """Each table is given as a mapping and as an item list; a list that
    repeats a key has no mapping form."""
    forms = [matchings, list(matchings.items())] if isinstance(matchings, dict) else [matchings]
    for form in forms:
        with pytest.raises(ValueError, match=message):
            Cover(s, lists, form)


def _graph_tables(g: SimpleGraph):
    assert type(g.vertices) is tuple and type(g.edges) is frozenset
    assert all(type(ns) is frozenset for ns in g.adj.values())
    return g.vertices, g.edges, g.adj


def _plane_tables(pg: PlaneGraph):
    assert type(pg.outer) is tuple
    assert all(type(rot) is tuple for rot in pg.rotation.values())
    return _graph_tables(pg.graph), list(pg.rotation.items()), pg.outer


def _assert_restriction(pg: PlaneGraph, part: PlaneGraph) -> None:
    keep = set(part.graph.vertices)
    graph = SimpleGraph.on_vertices(keep, [(u, v) for u, v in pg.graph.edges
                                           if u in keep and v in keep])
    expected = PlaneGraph(graph, {v: [u for u in pg.rotation[v] if u in keep]
                                  for v in keep}, list(part.outer))
    assert _plane_tables(part) == _plane_tables(expected)


def _assert_shares_rows(pg: PlaneGraph, part: PlaneGraph, cut) -> None:
    """Every adjacency and rotation row of `part` outside `cut` is pg's own."""
    for v in set(part.graph.vertices).difference(cut):
        assert part.graph.adj[v] is pg.graph.adj[v], v
        assert part.rotation[v] is pg.rotation[v], v


def _assert_solver_edit(edit) -> None:
    """One edit of the planar solver's own tables, a probe event, against
    the probe's copies of them before and after it."""
    before = edit.before
    if edit.kind == "split":
        for part in edit.after:
            _assert_restriction(before, part)
            _assert_shares_rows(before, part, edit.ends)
        # The frame's own dicts become the larger piece; the smaller one is fresh.
        assert sorted(edit.handed) == [(False, False), (True, True)], edit.handed
        (small, _), (large, _) = sorted(zip(edit.after, edit.handed), key=lambda piece: piece[1])
        assert small.n <= large.n
    elif edit.kind == "cut":
        i, expected = edit.at, before
        for x, row in edit.removed.items():
            assert expected.outer[i + 1] == x
            assert row == expected.graph.adj[x] == {expected.outer[i], expected.outer[i + 2]}
            expected = delete_vertex(expected, x, expected.outer[:i + 1] + expected.outer[i + 2:])
        (part,) = edit.after
        assert edit.removed and edit.on_outer == set(part.outer)
        assert _plane_tables(part) == _plane_tables(expected)
        _assert_restriction(before, part)
        _assert_shares_rows(before, part, set().union(*edit.removed.values()))
    else:  # a fan pivot, or an end of the outer walk cut off with piece 1
        ((x, row),) = edit.removed.items()
        (part,) = edit.after
        assert x not in part.graph.adj and row == before.graph.adj[x]
        _assert_restriction(before, part)
        _assert_shares_rows(before, part, row)


def _instances(count):
    """(g, h, f, perms) with seeded random covers, budgets and renamings."""
    for t in range(count):
        rng = random.Random(f"covers/{t}")
        n = rng.randint(2, 12)
        g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng)
        s = rng.randint(2, 6)
        h = gen_random_cover(g, s, rng.randint(1, s), rng.choice([0.0, 0.5, 1.0]),
                             rng.randrange(10**6))
        cap = rng.randint(1, 3)
        f = gen_random_budget(g, s, rng.randint(1, cap), cap, rng.randrange(10**6),
                              lists=h.lists)
        perms = {}
        for v in rng.sample(list(g.vertices), rng.randint(0, n)):
            image = list(range(1, s + 1))
            rng.shuffle(image)
            perms[v] = dict(zip(range(1, s + 1), image))
        yield rng, g, h, f, perms


def _rename(perms, v, c):
    return perms[v][c] if v in perms else c


def _snapshot(h: Cover, f: Budget):
    return dict(h.lists), h.matching_items(), f.items(), {v: f.support(v) for v in h.lists}


class TestTrustedPathsMatchValidatingConstructors:
    def test_cover_relabel(self):
        for _, g, h, f, perms in _instances(200):
            before = _snapshot(h, f)
            lists = {v: [_rename(perms, v, c) for c in cs] for v, cs in h.lists.items()}
            matchings = {(u, v): [(_rename(perms, u, cu), _rename(perms, v, cv))
                                  for cu, cv in pairs]
                         for (u, v), pairs in h.matching_items()}
            out = h.relabel(perms)
            expected = Cover(h.s, lists, matchings)
            assert out == expected
            for u, v in g.edge_list():
                assert out.matching(v, u) == expected.matching(v, u)
            assert _snapshot(h, f) == before

    def test_budget_relabel(self):
        for _, g, h, f, perms in _instances(200):
            before = _snapshot(h, f)
            values = {(v, _rename(perms, v, i)): val for (v, i), val in f.items()}
            out = f.relabel(perms)
            expected = Budget(f.s, f.cap, values)
            assert out == expected
            for v in g.vertices:
                assert out.support(v) == expected.support(v)
                assert out.total(v) == expected.total(v)
            assert _snapshot(h, f) == before

    def test_budget_assign(self):
        for rng, g, h, f, _ in _instances(200):
            before = _snapshot(h, f)
            updates = {(v, rng.randint(1, f.s)): rng.randint(0, f.cap)
                       for v in rng.sample(list(g.vertices), rng.randint(0, g.n))}
            values = dict(f.items())
            values.update(updates)
            out = f.assign(updates)
            expected = Budget(f.s, f.cap, values)
            assert out == expected
            for v in g.vertices:
                assert out.support(v) == expected.support(v)
                assert out.total(v) == expected.total(v)
            assert _snapshot(h, f) == before

    def test_induced(self):
        for rng, g, _, _, _ in _instances(200):
            keep = rng.sample(list(g.vertices), rng.randint(0, g.n))
            out = g.induced(keep)
            expected = SimpleGraph.on_vertices(
                keep, [(u, v) for u, v in g.edges if u in keep and v in keep])
            assert _graph_tables(out) == _graph_tables(expected)
            with pytest.raises(ValueError, match="unknown vertices"):
                g.induced(keep + [g.n])

    def test_residuals(self):
        for rng, g, h, f, _ in _instances(200):
            precolored = {v: rng.choice(sorted(h.lists[v]))
                          for v in rng.sample(list(g.vertices), rng.randint(0, g.n))}
            out = _residuals(g, h, f, precolored)
            expected = Budget(f.s, f.cap, {
                (v, i): left for v in g.vertices if v not in precolored
                for i, left in residual_at(g, h, f, precolored, v).items()})
            assert out == expected
            for v in g.vertices:
                assert out.support(v) == expected.support(v)
                assert out.total(v) == expected.total(v)

    def test_plane_pieces(self):
        """Each piece equals the PlaneGraph built from the parent's tables
        restricted to the piece's vertices, and the parent is unchanged."""
        splits = 0
        for t in range(200):
            rng = random.Random(f"plane/{t}")
            pg = triangulated_polygon(rng.randint(4, 14), rng)
            if t % 2:
                pg = thin_triangulation(pg, rng)
            stacked = gen_planar_triangulation(rng.randint(4, 20), t)
            before = _plane_tables(pg), _plane_tables(stacked)
            outer = pg.outer
            p = len(outer)
            chords = [(i, j) for i in range(p) for j in range(i + 2, p)
                      if (i, j) != (0, p - 1) and pg.graph.has_edge(outer[i], outer[j])]
            if chords:
                splits += 1
                i, j = rng.choice(chords)
                for part in split_on_chord(pg, (i, j)):
                    _assert_restriction(pg, part)
                    # Only the chord ends lose neighbours.
                    _assert_shares_rows(pg, part, (outer[i], outer[j]))
            k = rng.randrange(p)
            _assert_restriction(pg, pg.with_outer(outer[k:] + outer[:k]))
            v1, v2, v3 = stacked.outer
            fan = fan_neighbors(stacked, v2)
            out = delete_vertex(stacked, v2, (v1,) + fan[1:-1] + (v3,))
            assert v2 not in out.graph.adj and out.graph.n == stacked.graph.n - 1
            _assert_restriction(stacked, out)
            # Rows away from the deleted vertex are shared, not copied.
            _assert_shares_rows(stacked, out, stacked.graph.adj[v2])
            assert (_plane_tables(pg), _plane_tables(stacked)) == before
        assert splits > 150

    def test_solver_pieces(self):
        """Every piece the planar solver builds or edits is the restriction
        of its parent and shares all rows but those of the vertices that
        lose a neighbour: the chord ends of a split, and the deleted
        vertex's neighbours of a fan step, of an end of the outer walk cut
        off with piece 1 of a split, and of a run of bare triangles cut off
        at one hub.  A frame edits its own tables in place, a split too,
        whose larger piece is the frame's own dicts, so each edit is
        checked against the probe's copy of the tables taken just before
        it; a run leaves what deleting its vertices one at a time leaves.
        The caller's tables are unchanged after every solve."""
        seen = Counter()
        shapes = [gen_planar_triangulation(10 + 10 * t, t) for t in range(8)]
        shapes += [grid(k, seed=k) for k in (3, 4, 5, 6, 7)]
        shapes += [wheel(p) for p in (4, 6, 9)]
        shapes += [triangulated_polygon(p, random.Random(f"pieces/{p}"))
                   for p in (5, 9, 16, 24, 32, 40, 48)]
        for t, pg in enumerate(shapes):
            h = gen_random_cover(pg.graph, 5, 5, (1.0, 0.5)[t % 2], seed=t)
            f = gen_random_budget(pg.graph, 5, 5, 2, seed=t + 50, lists=h.lists)
            before = input_tables(pg, h, f)
            with Probe("splits", "drops", "cuts", tables=True) as probe:
                r, _ = solve_planar_dpg52(pg, h, f)
            assert verify_coloring(pg.graph, h, f, r) is not None
            assert input_tables(pg, h, f) == before
            for edit in probe.events:
                _assert_solver_edit(edit)
                seen[edit.kind] += len(edit.removed) if edit.kind == "cut" else 1
        # each cut vertex, like an ear, is the third vertex of a bare triangle
        assert seen["split"] > 100 and seen["pivot"] > 40 and seen["ear"] + seen["cut"] > 200, seen

    def test_relabel_round_trips(self):
        for _, g, h, f, perms in _instances(200):
            inv = {v: {d: c for c, d in p.items()} for v, p in perms.items()}
            assert h.relabel(perms).relabel(inv) == h
            assert f.relabel(perms).relabel(inv) == f


def test_verdict_is_invariant_under_relabeling():
    """Renaming colors per vertex is a cover isomorphism: verify_coloring's
    verdict must not change, and a renamed witness stays a witness."""
    verdicts = set()
    for rng, g, h, f, perms in _instances(300):
        r = {v: rng.choice(sorted(h.lists[v])) for v in g.vertices}
        order = verify_coloring(g, h, f, r)
        h2, f2 = h.relabel(perms), f.relabel(perms)
        r2 = {v: _rename(perms, v, c) for v, c in r.items()}
        order2 = verify_coloring(g, h2, f2, r2)
        assert (order is None) == (order2 is None)
        if order is not None:
            assert order_is_valid(induced_pair_graph(g, h2, f2, r2),
                                  tuple((v, _rename(perms, v, c)) for v, c in order))
        verdicts.add(order is None)
    assert verdicts == {True, False}


def test_raising_a_budget_entry_keeps_a_witness_valid():
    """A larger allowance never blocks an order: after raising any single
    entry of the budget, every valid witness is still valid.  The pair
    graph's `budget_of` reads the raised budget at each of its pairs, and
    raises KeyError for a pair it does not have: the raised color, if it is
    not the vertex's own, or color 0."""
    checked = Counter()
    for rng, g, h, f, _ in _instances(300):
        r = {v: rng.choice(sorted(h.lists[v])) for v in g.vertices}
        order = verify_coloring(g, h, f, r)
        if order is None:
            continue
        for v in g.vertices:
            for i in (r[v], rng.randint(1, f.s)):
                values = dict(f.items())
                values[(v, i)] = f.get(v, i) + 1
                raised = Budget(f.s, f.cap + 1, values)
                pairs = induced_pair_graph(g, h, raised, r)
                assert order_is_valid(pairs, order)
                assert all(pairs.budget_of((u, r[u])) == raised.get(u, r[u]) for u in g.vertices)
                with pytest.raises(KeyError):
                    pairs.budget_of((v, 0 if i == r[v] else i))
                checked["raised own" if i == r[v] else "raised other"] += 1
    assert sum(checked.values()) > 500 and checked["raised other"] > 100, checked


def test_matched_agrees_with_matching_in_both_orientations():
    """`matched` looks the canonical (u < v) matching up directly; it must
    answer as membership in `matching` does, for every orientation, every
    color pair (listed or not) and non-edges and loops too."""
    hits = 0
    for _, g, h, _, _ in _instances(100):
        for u in g.vertices:
            for v in g.vertices:
                m = h.matching(u, v)
                for cu in range(0, h.s + 2):
                    for cv in range(0, h.s + 2):
                        got = h.matched(u, cu, v, cv)
                        assert got == ((cu, cv) in m)
                        assert got == h.matched(v, cv, u, cu)
                        hits += got
    assert hits > 0


def _random_covers(count: int):
    """Seeded covers from the validating constructor, with the (u, cu, v, cv)
    facts their matchings were given as, in both orientations.  Edges are
    given in either orientation, and some get an empty matching."""
    rng = random.Random(12)
    for _ in range(count):
        n, s = rng.randint(2, 8), rng.randint(1, 6)
        lists = {v: rng.sample(range(1, s + 1), rng.randint(0, s)) for v in range(n)}
        given, facts = {}, set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    continue
                k = rng.randint(0, min(len(lists[u]), len(lists[v])))
                pairs = list(zip(rng.sample(lists[u], k), rng.sample(lists[v], k)))
                facts.update((u, cu, v, cv) for cu, cv in pairs)
                facts.update((v, cv, u, cu) for cu, cv in pairs)
                if rng.random() < 0.5:
                    given[(u, v)] = pairs
                else:
                    given[(v, u)] = [(cv, cu) for cu, cv in pairs]
        yield rng, Cover(s, lists, given), facts


def _assert_answers(h: Cover, facts: set) -> None:
    n = max(h.lists) + 1
    for u in range(n):
        for v in range(n):
            expected = frozenset((cu, cv) for a, cu, b, cv in facts if (a, b) == (u, v))
            assert h.matching(u, v) == expected
            for cu in range(h.s + 2):
                for cv in range(h.s + 2):
                    assert h.matched(u, cu, v, cv) == ((u, cu, v, cv) in facts)


def _assert_untracked(h: Cover) -> None:
    for m in h._matchings.values():
        assert type(m) is dict and m
        assert not gc.is_tracked(m)


def test_stored_matchings_are_untracked_dicts_that_answer_as_given():
    """Each stored matching is a nonempty dict {cu: cv} of ints, which the
    cyclic garbage collector never tracks, whichever path built the cover.
    `matched` and `matching` in both orientations answer as the pairs the
    cover was built from, empty matchings included."""
    matched_edges = 0
    for rng, h, facts in _random_covers(150):
        _assert_untracked(h)
        _assert_answers(h, facts)
        parsed = parse_cover(emit_cover(h))
        _assert_untracked(parsed)
        _assert_answers(parsed, facts)
        perms = {}
        for v in rng.sample(sorted(h.lists), rng.randint(0, len(h.lists))):
            image = rng.sample(range(1, h.s + 1), h.s)
            perms[v] = dict(zip(range(1, h.s + 1), image))
        out = h.relabel(perms)
        _assert_untracked(out)
        _assert_answers(out, {(u, _rename(perms, u, cu), v, _rename(perms, v, cv))
                              for u, cu, v, cv in facts})
        matched_edges += len(h._matchings)
    assert matched_edges > 400
    for seed in range(5):
        g = gen_planar_triangulation(30, seed).graph
        _assert_untracked(gen_random_cover(g, 5, 4, 0.7, seed))


class TestColorKernelsMatchReferences:
    """The planar solver's color steps read matching dicts and rows directly
    (`residual_at`, `delete_vertex`).  Each is compared here with a
    reference that shares none of its code: a brute-force count over
    `Cover.matching` pairs, and the induced piece that `_piece` builds from
    a keep set.  The fan step's name rows are compared with the composed
    completion in `test_solvers.TestFanNames`."""

    def test_residual_at_counts_as_brute_force(self):
        """On random covers, with a random precoloring that colors non-neighbours
        and uses colors outside the lists, and with some budget rows dropped,
        residual_at gives the brute-force residual, items in ascending color
        order.  Both orientations of a matched edge must hit."""
        hits = {"smaller": 0, "larger": 0}
        rowless = 0
        for rng, g, h, f, _ in _instances(300):
            # Rows lose some vertices and keep their colors in shuffled order.
            drop = set(rng.sample(list(g.vertices), rng.randint(0, g.n // 2)))
            items = [(k, val) for k, val in f.items() if k[0] not in drop]
            rng.shuffle(items)
            f = Budget(f.s, f.cap, items)
            precolored = {v: rng.choice(sorted(h.lists[v]) if h.lists[v] and rng.random() < 0.8
                                        else range(1, h.s + 1))
                          for v in rng.sample(list(g.vertices), rng.randint(0, g.n))}
            for v in g.vertices:
                if v in precolored:
                    continue
                expected = {}
                for (u, i), val in f.items():
                    if u != v:
                        continue
                    matched = [x for x in g.adj[v]
                               if x in precolored and (i, precolored[x]) in h.matching(v, x)]
                    for x in matched:
                        hits["smaller" if v < x else "larger"] += 1
                    if val - len(matched) > 0:
                        expected[i] = val - len(matched)
                rowless += not f.support(v)
                assert list(residual_at(g, h, f, precolored, v).items()) == list(expected.items())
        assert hits["smaller"] > 100 and hits["larger"] > 100 and rowless > 150

    @pytest.mark.parametrize("shape", ["stacked", "grid", "wheel"])
    def test_delete_vertex_is_the_induced_piece(self, shape):
        """For every inner vertex v, delete_vertex gives the tables of
        `_piece(pg, V - {v}, outer, adj[v])`, with key order, and shares every
        row away from v's neighbours with pg, which stays unchanged."""
        if shape == "stacked":
            graphs = [gen_planar_triangulation(n, n) for n in range(4, 24)]
        elif shape == "grid":
            graphs = [grid(k, seed=k) for k in range(3, 8)]
        else:
            graphs = [wheel(p) for p in range(3, 12)]
        deleted = 0
        for pg in graphs:
            before = _plane_tables(pg)
            adj = pg.graph.adj
            for v in set(adj).difference(pg.outer):
                out = delete_vertex(pg, v, pg.outer)
                expected = _piece(pg, adj.keys() - {v}, pg.outer, adj[v])
                assert _plane_tables(out) == _plane_tables(expected)  # key order included
                _assert_shares_rows(pg, out, adj[v])
                deleted += 1
            assert _plane_tables(pg) == before
        assert deleted >= {"stacked": 200, "grid": 55, "wheel": 9}[shape]
