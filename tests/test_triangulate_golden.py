"""Golden corpus for `triangulate_interior`: the emitted plane graph must stay byte-identical.

`tests/golden/triangulate.json` holds, per seeded instance, the sha256 of
`emit_plane(triangulate_interior(pg))`.  Instances are k x k grids (plain and
relabelled), edge-thinned stacked triangulations, polygons and wheels.  The
digests were recorded once from the reference implementation; a refactor
must reproduce them.  Every output is also checked on its own: networkx
confirms the graph is planar and the rotation system is a planar embedding,
every bounded face is a triangle, the outer cycle is kept and no edge of the
input is lost.

    PYTHONPATH=src python tests/test_triangulate_golden.py --record   # writes a new file
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from dpfcolor import PlaneGraph, faces, gen_planar_triangulation, triangulate_interior
from dpfcolor.formats import emit_plane

sys.path.insert(0, str(Path(__file__).parent))
from oracles import grid, polygon, thin_triangulation, wheel  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "triangulate.json"


def _cases():
    for k in range(3, 17):
        yield f"grid/k{k}", grid(k)
        yield f"grid/k{k}/s{k}", grid(k, seed=k)
    for trial in range(60):
        rng = random.Random(f"thinned/{trial}")
        yield f"thinned/t{trial}", thin_triangulation(
            gen_planar_triangulation(rng.randint(5, 40), seed=trial), rng)
    for p in range(3, 31):
        yield f"polygon/p{p}", polygon(p)
    for p in range(3, 21):
        yield f"wheel/p{p}", wheel(p)


def _digest(pg: PlaneGraph) -> str:
    return hashlib.sha256(emit_plane(triangulate_interior(pg)).encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    return {key: _digest(pg) for key, pg in _cases()}


def test_triangulations_are_byte_identical():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, f"{len(changed)} triangulations changed, first: {changed[:5]}"


def test_triangulations_are_plane_and_triangular():
    nx = pytest.importorskip("networkx")
    for key, pg in _cases():
        out = triangulate_interior(pg)
        g = nx.Graph(list(out.graph.edges))
        is_planar, _ = nx.check_planarity(g)
        assert is_planar, key
        emb = nx.PlanarEmbedding()
        for v, rot in out.rotation.items():
            for k, u in enumerate(rot):
                emb.add_half_edge(v, u, ccw=rot[k - 1] if k else None)
        emb.check_structure()
        assert all(len(f) == 3 for f in faces(out).bounded), key
        assert out.outer == pg.outer, key
        assert pg.graph.edges <= out.graph.edges, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_triangulate_golden.py --record")
    if GOLDEN.exists():
        sys.exit(f"{GOLDEN} exists; delete it first to record a deliberate change")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
