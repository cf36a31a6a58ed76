"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion summaries are deterministic values (no timing, no addresses); the
final test recomputes everything and compares the serialized summaries
byte for byte.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from itertools import combinations, permutations

from dpfcolor import (
    PairGraph,
    SimpleGraph,
    budget_forest,
    budget_list,
    budget_mixed,
    check_configuration_conditions,
    check_family,
    check_partition,
    color_classes,
    complete_graph,
    cycle_graph,
    extend_over_configuration,
    gen_planar_triangulation,
    gen_random_budget,
    gen_random_cover,
    identity_cover,
    induced_pair_graph,
    NoCycleLengths,
    order_is_valid,
    path_graph,
    solve_exact,
    solve_planar_dpg52,
    strictly_degenerate_order,
    verify_coloring,
)

from oracles import (
    coloring_exists_by_enumeration,
    fan_configuration_instance,
    random_graph,
)

_RESULTS: dict[int, dict] = {}
_TIMES: dict[int, float] = {}


def _run(k):
    if k not in _RESULTS:
        t0 = time.perf_counter()
        _RESULTS[k] = CRITERIA[k]()
        _TIMES[k] = time.perf_counter() - t0
    return _RESULTS[k]


def _report(k, ok, detail):
    millis = int(_TIMES.get(k, 0.0) * 1000)
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail} ({millis} ms)")
    assert ok, f"criterion {k} failed: {detail}"


# -- criterion 1: degeneracy oracle over all 156 six-vertex graphs ----------

def _six_vertex_representatives():
    """One representative per isomorphism class, by orbit marking over the
    2^15 edge masks under all 720 vertex permutations."""
    edges = list(combinations(range(6), 2))
    bit = {e: i for i, e in enumerate(edges)}
    tables = []
    for perm in permutations(range(6)):
        tables.append([bit[tuple(sorted((perm[u], perm[v])))] for (u, v) in edges])
    visited = bytearray(1 << 15)
    reps = []
    for mask in range(1 << 15):
        if visited[mask]:
            continue
        reps.append(mask)
        for table in tables:
            m, out = mask, 0
            while m:
                low = m & -m
                m ^= low
                out |= 1 << table[low.bit_length() - 1]
            visited[out] = 1
    return reps, edges


def _criterion_1():
    reps, edges = _six_vertex_representatives()
    mismatches = 0
    orderable = 0
    for idx, mask in enumerate(reps):
        edge_list = [edges[i] for i in range(15) if mask >> i & 1]
        adj = [0] * 6
        for (u, v) in edge_list:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        rng = random.Random(1_000_000 + idx)
        for _ in range(3):
            budgets = [rng.randint(0, 3) for _ in range(6)]
            pairs = [(v, 1) for v in range(6)]
            pg = PairGraph(pairs, [((u, 1), (v, 1)) for (u, v) in edge_list],
                           {(v, 1): budgets[v] for v in range(6)})
            got = strictly_degenerate_order(pg)
            # brute force over all 720 orderings
            expected = False
            for perm in permutations(range(6)):
                placed = 0
                for i in perm:
                    if (adj[i] & placed).bit_count() >= budgets[i]:
                        break
                    placed |= 1 << i
                else:
                    expected = True
                    break
            if (got is not None) != expected:
                mismatches += 1
            elif got is not None:
                orderable += 1
                if not order_is_valid(pg, got):
                    mismatches += 1
    return {"graphs": len(reps), "checked": 3 * len(reps),
            "orderable": orderable, "mismatches": mismatches}


def test_criterion_1_degeneracy_oracle():
    summary = _run(1)
    ok = (summary["graphs"] == 156 and summary["mismatches"] == 0
          and _TIMES[1] < 30)
    _report(1, ok, f"{summary['checked']} budgeted graphs vs permutation "
                   f"brute force, {summary['mismatches']} mismatches")


# -- criterion 2: solver verdict vs representative-set enumeration ----------

def _criterion_2():
    rng = random.Random(22_000)
    verdicts = []
    mismatches = 0
    for idx in range(300):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.random(), rng)
        s = rng.randint(1, 3)
        list_size = rng.randint(1, s)
        h = gen_random_cover(g, s, list_size, rng.choice([0.0, 0.5, 1.0]),
                             seed=30_000 + idx)
        f = gen_random_budget(g, s, rng.randint(0, 2 * list_size), 2,
                              seed=40_000 + idx, lists=h.lists)
        got = solve_exact(g, h, f)
        expected = coloring_exists_by_enumeration(g, h, f)
        if (got is not None) != expected:
            mismatches += 1
        if got is not None and verify_coloring(g, h, f, got[0]) is None:
            mismatches += 1
        verdicts.append(1 if expected else 0)
    return {"instances": len(verdicts), "found": sum(verdicts),
            "verdicts": verdicts, "mismatches": mismatches}


def test_criterion_2_exact_solver_oracle():
    summary = _run(2)
    ok = (summary["instances"] >= 300 and summary["mismatches"] == 0
          and 0 < summary["found"] < summary["instances"] and _TIMES[2] < 60)
    _report(2, ok, f"{summary['instances']} instances, {summary['found']} colorable, "
                   f"{summary['mismatches']} verdict mismatches")


# -- criteria 3 and 4: planar construction and its list-style corollaries ---

def _triangulations():
    out = []
    for idx in range(200):
        rng = random.Random(50_000 + idx)
        n = rng.randint(4, 12)
        out.append((idx, gen_planar_triangulation(n, seed=60_000 + idx)))
    return out


def _criterion_3():
    successes = 0
    digest = []
    for idx, pg in _triangulations():
        rng = random.Random(55_000 + idx)
        h = gen_random_cover(pg.graph, 5, 5, rng.choice([0.5, 1.0]),
                             seed=70_000 + idx)
        f = gen_random_budget(pg.graph, 5, 5, 2, seed=80_000 + idx, lists=h.lists)
        r, order = solve_planar_dpg52(pg, h, f)
        if (order_is_valid(induced_pair_graph(pg.graph, h, f, r), order)
                and verify_coloring(pg.graph, h, f, r) is not None):
            successes += 1
        digest.append(sorted(r.items()))
    return {"instances": 200, "successes": successes, "colorings": digest}


def test_criterion_3_planar_construction():
    summary = _run(3)
    ok = summary["successes"] == 200 and _TIMES[3] < 120
    _report(3, ok, f"{summary['successes']}/200 triangulations colored and verified")


def _criterion_4():
    ok_a = ok_b = ok_c = 0
    digest = []
    for idx, pg in _triangulations():
        g = pg.graph
        # (a) 5-lists with unit budgets: a proper coloring from the lists
        lists5 = {v: frozenset(range(1, 6)) for v in g.vertices}
        h5 = identity_cover(g, lists5, s=5)
        f5 = budget_list(lists5, s=5)
        ra, _ = solve_planar_dpg52(pg, h5, f5)
        proper = all(ra[u] != ra[v] for u, v in g.edge_list())
        in_lists = all(ra[v] in lists5[v] for v in g.vertices)
        if proper and in_lists and verify_coloring(g, h5, f5, ra) is not None:
            ok_a += 1
        # (b) 3 colors with budget 2 each: every class induces a forest
        lists3 = {v: frozenset((1, 2, 3)) for v in g.vertices}
        h3 = identity_cover(g, lists3, s=3)
        f3 = budget_forest(lists3, s=3)
        rb, _ = solve_planar_dpg52(pg, h3, f3)
        classes_b = color_classes(rb, g)
        full_b = {c: classes_b.get(c, frozenset()) for c in (1, 2, 3)}
        if check_partition(g, full_b, {c: 2 for c in (1, 2, 3)}):
            ok_b += 1
        # (c) mixed 4-lists from 5 colors: 1..3 independent, 4..5 forests
        rng = random.Random(90_000 + idx)
        lists4 = {v: frozenset(rng.sample(range(1, 6), 4)) for v in g.vertices}
        h4 = identity_cover(g, lists4, s=5)
        f4 = budget_mixed(lists4, d=4, k=5)
        rc, _ = solve_planar_dpg52(pg, h4, f4)
        classes_c = color_classes(rc, g)
        full_c = {c: classes_c.get(c, frozenset()) for c in range(1, 6)}
        caps_c = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
        if (check_partition(g, full_c, caps_c)
                and all(rc[v] in lists4[v] for v in g.vertices)):
            ok_c += 1
        digest.append([sorted(ra.items()), sorted(rb.items()), sorted(rc.items())])
    return {"instances": 200, "proper_list": ok_a, "forest": ok_b,
            "mixed": ok_c, "colorings": digest}


def test_criterion_4_list_style_corollaries():
    summary = _run(4)
    ok = (summary["proper_list"] == summary["forest"] == summary["mixed"] == 200
          and _TIMES[4] < 120)
    _report(4, ok, f"list {summary['proper_list']}/200, forest {summary['forest']}/200, "
                   f"mixed {summary['mixed']}/200")


# -- criterion 5: negative controls -----------------------------------------

def _criterion_5():
    g5 = complete_graph(5)
    lists4 = {v: frozenset((1, 2, 3, 4)) for v in g5.vertices}
    k5_absent = solve_exact(g5, identity_cover(g5, lists4, s=4),
                            budget_list(lists4, s=4)) is None
    g3 = complete_graph(3)
    lists1 = {v: frozenset((1,)) for v in g3.vertices}
    k3_absent = solve_exact(g3, identity_cover(g3, lists1, s=1),
                            budget_list(lists1, s=1)) is None
    return {"k5_absent": k5_absent, "k3_absent": k3_absent}


def test_criterion_5_negative_controls():
    summary = _run(5)
    ok = summary["k5_absent"] and summary["k3_absent"]
    _report(5, ok, "K5 with 4 colors and K3 on one color both reported absent")


# -- criterion 6: configuration extension -----------------------------------

def _criterion_6():
    successes = 0
    shapes = []
    for seed in range(50):
        for k in (3, 4):
            g, h, f, K, r0 = fan_configuration_instance(seed, k)
            assert check_configuration_conditions(g, f, k, K)
            r, order = extend_over_configuration(g, h, f, k, K, r0)
            if (order_is_valid(induced_pair_graph(g, h, f, r), order)
                    and all(r[v] == c for v, c in r0.items())):
                successes += 1
            shapes.append([k, g.n, len(K), sorted(r.items())])
    return {"instances": len(shapes), "successes": successes, "shapes": shapes}


def test_criterion_6_configuration_extension():
    summary = _run(6)
    ok = summary["instances"] >= 100 and summary["successes"] == summary["instances"]
    _report(6, ok, f"{summary['successes']}/{summary['instances']} seeded "
                   f"configurations extended and verified")


# -- criterion 7: sparse-cycle family spot check -----------------------------

def _family_graphs():
    """Connected planar graphs on <= 10 vertices whose cycle lengths avoid
    {4, 6, 7, 9}: trees, single short/long cycles, and cycles glued at
    single vertices or joined by bridges."""
    graphs = [
        path_graph(10),
        SimpleGraph(8, [(0, i) for i in range(1, 8)]),          # star
        cycle_graph(3),
        cycle_graph(5),
        cycle_graph(8),
        cycle_graph(10),
        SimpleGraph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        SimpleGraph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7)]),
        SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),  # bowtie
        SimpleGraph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]),
        SimpleGraph(9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                        (7, 8), (4, 8)]),                        # triangle - path - C5
        SimpleGraph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7),
                        (0, 8)]),                                # C8 + pendant
        SimpleGraph(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                         (3, 8), (3, 9)]),                       # spider
        SimpleGraph(9, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5), (5, 6),
                        (2, 7), (7, 8)]),                        # triangle + legs
        SimpleGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6),
                         (2, 7), (3, 8), (4, 9)]),               # C5 + pendants
        SimpleGraph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                        (6, 7), (5, 7)]),                        # triangles + bridge
        SimpleGraph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),  # binary tree
        SimpleGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7),
                         (4, 8), (4, 9)]),                       # caterpillar
        SimpleGraph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6),
                        (6, 7), (7, 8), (4, 8)]),                # two C5 at a vertex
        SimpleGraph(10, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                         (6, 7), (7, 8), (8, 9), (2, 9)]),       # C3 and C8 at a vertex
    ]
    spec = NoCycleLengths(frozenset((4, 6, 7, 9)))
    for g in graphs:
        assert g.n <= 10 and g.is_connected()
        assert check_family(g, spec)
    return graphs


def _criterion_7():
    graphs = _family_graphs()
    trials = successes = 0
    digest = []
    for gi, g in enumerate(graphs):
        for t in range(10):
            rng = random.Random(95_000 + 100 * gi + t)
            list_size = rng.choice([2, 3])
            h = gen_random_cover(g, 3, list_size, rng.choice([0.5, 1.0]),
                                 seed=96_000 + 100 * gi + t)
            f = gen_random_budget(g, 3, 3, 2, seed=97_000 + 100 * gi + t,
                                  lists=h.lists)
            got = solve_exact(g, h, f)
            trials += 1
            if got is not None and verify_coloring(g, h, f, got[0]) is not None:
                successes += 1
                digest.append(sorted(got[0].items()))
            else:
                digest.append(None)
    return {"graphs": len(graphs), "trials": trials, "successes": successes,
            "colorings": digest}


def test_criterion_7_family_spot_check():
    summary = _run(7)
    ok = (summary["graphs"] >= 20 and summary["successes"] == summary["trials"]
          and _TIMES[7] < 120)
    _report(7, ok, f"{summary['successes']}/{summary['trials']} trials colorable "
                   f"(THEOREM-VIOLATION otherwise) over {summary['graphs']} graphs")


# -- criterion 8: byte-identical reproduction --------------------------------

CRITERIA = {1: _criterion_1, 2: _criterion_2, 3: _criterion_3, 4: _criterion_4,
             5: _criterion_5, 6: _criterion_6, 7: _criterion_7}


def test_criterion_8_reproducibility():
    first = {k: json.dumps(_run(k), sort_keys=True).encode() for k in CRITERIA}
    t0 = time.perf_counter()
    second = {k: json.dumps(CRITERIA[k](), sort_keys=True).encode() for k in CRITERIA}
    elapsed = time.perf_counter() - t0
    same = [k for k in CRITERIA if first[k] == second[k]]
    ok = len(same) == len(CRITERIA)
    print(f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} - criteria {sorted(same)} "
          f"reproduced byte-identically ({int(elapsed * 1000)} ms)")
    assert ok, f"non-reproducible criteria: {sorted(set(CRITERIA) - set(same))}"
