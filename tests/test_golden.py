"""Golden corpus: solver and verifier outputs must stay byte-identical.

`tests/golden/digests.json` holds, for about a hundred seeded instances,
the sha256 of the emitted coloring and witness order returned by
`solve_planar_dpg52`, `verify_coloring`, `solve_exact` (with its search
counters) and `extend_over_configuration`.  The digests were recorded once
from the reference implementation; a refactor must reproduce them.  Do not
re-record the file to absorb a changed output: a deliberate behaviour
change is documented with its reason and then recorded.

    PYTHONPATH=src python tests/test_golden.py --record   # writes the file
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from dpfcolor import (
    SimpleGraph,
    extend_over_configuration,
    gen_planar_triangulation,
    gen_random_budget,
    gen_random_cover,
    solve_exact,
    solve_planar_dpg52,
    triangulate_interior,
    verify_coloring,
)
from dpfcolor.formats import emit_coloring, emit_order

sys.path.insert(0, str(Path(__file__).parent))
from oracles import fan_configuration_instance, polygon, wheel  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "digests.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _solution_digest(result) -> str:
    """Digest of a (coloring, order) answer, or of its absence."""
    return _sha("absent\n" if result is None else emit_coloring(result[0]) + emit_order(result[1]))


def _order_digest(order) -> str:
    """Digest of a witness order, or of its absence."""
    return _sha("absent\n" if order is None else emit_order(order))


def _planar_cover(g, seed: int):
    """Budgets of total 5 capped at 2; list size and density vary with the seed."""
    list_size = (5, 4, 3)[seed % 3]
    density = (1.0, 0.7, 0.4)[seed % 3]
    h = gen_random_cover(g, 5, list_size, density, seed)
    f = gen_random_budget(g, 5, 5, 2, seed + 1, lists=h.lists)
    return h, f


def _planar_cases():
    """(key, plane graph, seed): stacked triangulations, wheels, filled polygons."""
    for n in (3, 4, 6, 9, 14, 20, 30, 45):
        for seed in range(4):
            yield f"stacked/n{n}/s{seed}", gen_planar_triangulation(n, seed), seed
    for p in range(3, 19):
        yield f"wheel/p{p}", wheel(p), p
    for p in range(3, 21):
        yield f"polygon/p{p}", triangulate_interior(polygon(p)), p


def _dp3_cases():
    """Desk-scale DP 3-colorings of random graphs near the colorability threshold."""
    for t in range(30):
        rng = random.Random(f"golden-dp3/{t}")
        n = 6 + t % 7
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = SimpleGraph(n, rng.sample(pairs, min(len(pairs), 2 * n + 2)))
        h = gen_random_cover(g, 3, 3, 1.0, rng.randrange(10**6))
        f = gen_random_budget(g, 3, 3, 1, rng.randrange(10**6), lists=h.lists)
        pre = {0: min(h.lists[0])} if t % 2 else None
        yield f"dp3/t{t}", g, h, f, pre


def compute_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for key, pg, seed in _planar_cases():
        g = pg.graph
        h, f = _planar_cover(g, seed)
        result = solve_planar_dpg52(pg, h, f)
        out[key + "/planar"] = _solution_digest(result)
        out[key + "/verify"] = _order_digest(verify_coloring(g, h, f, result[0]))
        lowest = {v: min(h.lists[v]) for v in g.vertices}
        out[key + "/verify_lowest"] = _order_digest(verify_coloring(g, h, f, lowest))
    for key, g, h, f, pre in _dp3_cases():
        stats: dict = {}
        result = solve_exact(g, h, f, precolored=pre, stats=stats)
        out[key + "/exact"] = _solution_digest(result)
        out[key + "/exact_stats"] = f"{stats['nodes']}/{stats['backtracks']}"
    for k in (3, 4, 5):
        for seed in range(4):
            g, h, f, K, r0 = fan_configuration_instance(seed, k)
            result = extend_over_configuration(g, h, f, k, K, r0)
            out[f"config/k{k}/s{seed}"] = _solution_digest(result)
    return out


def test_golden_corpus_is_byte_identical():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
