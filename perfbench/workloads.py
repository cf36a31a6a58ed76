"""The benchmark's workloads: corpus, one operation, and its check.

Every input is derived from the workload seed.  A corpus is a list of
rounds; a round holds one instance per entry of the workload's ladder (in
exact_desk, ten ladders and one large instance), so whole rounds always
carry the same mix of sizes.  Library functions are
looked up on their modules at call time, which lets the tracer's wrappers
take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

from perfbench import check, shapes


class Instance:
    """One input.  `expect` is what the check compares against: the outer edge
    that must head a planar order, or a verdict (None until checked)."""

    __slots__ = ("key", "n", "kind", "data", "expect")

    def __init__(self, key, n, kind, data, expect=None):
        self.key, self.n, self.kind, self.data, self.expect = key, n, kind, data, expect


class Workload:
    """Corpus of rounds plus the operation and the check for one workload."""

    name = ""
    corpus_rounds = 1   # distinct rounds built at set-up; the loop cycles them
    trace_rounds = 1    # rounds run once untraced and once traced with --trace 1
    digest_rounds = 1   # rounds whose outputs the printed digest covers
    planar = False      # report the growth of operation time with n
    sizes_note = ""

    def __init__(self, dp, seed: int, work_dir: str):
        self.dp = dp
        self.seed = seed
        self.work_dir = work_dir
        self.rounds = self.corpus()

    def corpus(self) -> list[list[Instance]]:
        """One instance per ladder entry in every round, all distinct."""
        ladder = self.ladder()
        return [[self.build(r * len(ladder) + i, spec, self._rng(r, i))
                 for i, spec in enumerate(ladder)]
                for r in range(self.corpus_rounds)]

    def _rng(self, r: int, i: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}/{i}")

    def ladder(self) -> list:
        raise NotImplementedError

    def build(self, key: int, spec, rng: random.Random) -> Instance:
        raise NotImplementedError

    def op(self, inst: Instance):
        raise NotImplementedError

    def check(self, inst: Instance, out) -> tuple[str | None, str]:
        """(error or None, canonical text of the output)."""
        raise NotImplementedError


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# -- planar workloads -------------------------------------------------------

class _Planar(Workload):
    planar = True
    corpus_rounds = 16
    trace_rounds = 3
    digest_rounds = 3

    def shape(self, kind: str, size: int, rng: random.Random):
        dp = self.dp
        if kind == "stacked":
            return dp.gen_planar_triangulation(size, _seed(rng))
        return getattr(shapes, kind)(dp, size, _seed(rng))

    def build(self, key, spec, rng):
        dp = self.dp
        kind, size = spec
        pg = self.shape(kind, size, rng)
        dp.faces(pg)  # raises if the shape's embedding is not valid
        h = dp.gen_random_cover(pg.graph, 5, 5, 1.0, _seed(rng))
        f = dp.gen_random_budget(pg.graph, 5, 5, 2, _seed(rng), lists=h.lists)
        outer = pg.outer
        first_edge = min(tuple(sorted((outer[t], outer[(t + 1) % len(outer)])))
                         for t in range(len(outer)))
        return Instance(key, pg.n, kind, (pg, h, f), expect=first_edge)

    def op(self, inst):
        dp = self.dp
        pg, h, f = inst.data
        coloring, order = dp.solve_planar_dpg52(pg, h, f)
        return coloring, order, dp.verify_coloring(pg.graph, h, f, coloring)

    def check(self, inst, out):
        pg, h, f = inst.data
        coloring, order, witness = out
        text = check.canonical(coloring, order)
        if tuple(v for v, _ in order[:2]) != inst.expect:
            return f"order does not start with the precolored edge {inst.expect}", text
        err = check.order_errors(pg.graph, h, f, coloring, order)
        if err is None:
            err = ("verify_coloring rejected the solver's coloring" if witness is None
                   else check.order_errors(pg.graph, h, f, coloring, witness))
        return err, text


class PlanarFan(_Planar):
    name = "planar_fan"
    sizes_note = "stacked triangulations n=50,70,110 and k x k grids k=7,9,9,11,11 (n=49..121)"

    # Stacked triangulations vary more in solve time than grids of one size.
    # Two grids at the middle and two at the top of each round put the median
    # and the tail percentile inside one homogeneous class.
    def ladder(self):
        return [("stacked", n) for n in (50, 70, 110)] + [("grid", k) for k in (7, 9, 9, 11, 11)]


class PlanarChord(_Planar):
    name = "planar_chord"
    sizes_note = "triangulated polygons n=60,80,100,120 and wheels n=50,80,110,110"

    # Two wheels at the top of each round, as with the grids of planar_fan.
    def ladder(self):
        return ([("triangulated_polygon", n) for n in (60, 80, 100, 120)]
                + [("wheel", n) for n in (50, 80, 110, 110)])


# -- verify_files ---------------------------------------------------------------

class VerifyFiles(Workload):
    name = "verify_files"
    # Every round reuses the same files.  Verifying the n=1400 and n=2000
    # files twice per round keeps the median and the tail on one file
    # whatever the number of rounds (as the doubled sizes of planar_fan do).
    SIZES = (500, 700, 1000, 1400, 1400, 1700, 2000, 2000)
    INVALID = frozenset((1000, 1700))
    sizes_note = ("stacked triangulations n=" + ",".join(map(str, SIZES))
                  + "; the colorings for n=1000 and n=1700 are invalid")

    def __init__(self, dp, seed, work_dir):
        os.makedirs(work_dir, exist_ok=True)
        super().__init__(dp, seed, work_dir)

    def corpus(self):
        files = {n: self.build(i, n, self._rng(0, i))
                 for i, n in enumerate(sorted(set(self.SIZES)))}
        return [[files[n] for n in self.SIZES]]

    def build(self, key, n, rng):
        dp = self.dp
        formats = sys.modules["dpfcolor.formats"]
        pg = dp.gen_planar_triangulation(n, _seed(rng))
        g = pg.graph
        h = dp.gen_random_cover(g, 5, 5, 1.0, _seed(rng))
        f = dp.gen_random_budget(g, 5, 5, 2, _seed(rng), lists=h.lists)
        # Stacking order: each vertex has at most three earlier neighbours and
        # budget total 5, so some list color always has budget left.
        r: dict[int, int] = {}
        for v in g.vertices:
            r[v] = next(c for c in sorted(h.lists[v])
                        if sum(1 for u in g.adj[v] if u in r and (c, r[u]) in h.matching(v, u))
                        < f.get(v, c))
        valid = n not in self.INVALID
        if not valid:
            # A pair with budget 0 can never be placed in an order.
            v = rng.choice([u for u in g.vertices if any(f.get(u, c) == 0 for c in h.lists[u])])
            r[v] = min(c for c in h.lists[v] if f.get(v, c) == 0)
        texts = {"graph": formats.emit_plane(pg), "cover": formats.emit_cover(h),
                 "budget": formats.emit_budget(f), "coloring": formats.emit_coloring(r)}
        argv = ["verify", "--json"]
        for part, text in texts.items():
            path = os.path.join(self.work_dir, f"{key}-{part}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += ["--" + part, path]
        return Instance(key, n, "valid" if valid else "invalid", (g, h, f, r, argv), expect=valid)

    def op(self, inst):
        cli = sys.modules["dpfcolor.cli"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inst.data[4])
        return code, buf.getvalue()

    def check(self, inst, out):
        g, h, f, r, _ = inst.data
        code, text = out
        try:
            payload = json.loads(text)
        except ValueError:
            return "output is not JSON", text
        status = payload.get("status")
        if not inst.expect:
            return (None if (code, status) == (1, "invalid")
                    else f"invalid coloring reported as {status} (exit {code})"), status
        if (code, status) != (0, "valid"):
            return f"valid coloring reported as {status} (exit {code})", status
        witness = payload.get("witness", {})
        order = tuple(tuple(p) for p in witness.get("order", ()))
        if {v: c for v, c in witness.get("coloring", ())} != r:
            return "witness coloring differs from the input coloring", status
        return check.order_errors(g, h, f, r, order), status + " " + check.canonical(r, order)


# -- exact_desk -------------------------------------------------------------------

def _random_graph(dp, n: int, m: int, rng: random.Random):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return dp.SimpleGraph(n, rng.sample(pairs, m))


class ExactDesk(Workload):
    name = "exact_desk"
    corpus_rounds = 40
    trace_rounds = 4    # every small set once, plus four large instances
    digest_rounds = 4
    # Edge counts near the colorability threshold, measured on the seed code:
    # about half of the DP 3-coloring instances are uncolorable.
    sizes_note = ("per round: 10 sets of DP 3-colorings of random graphs n=9,10,10,11,12,12 "
                  "with m=2n+8, mixed budgets (total 3, cap 2) n=10,11,12 with m=3n+8 and one "
                  "K4 triangle extension, then one DP 4-coloring of a stacked triangulation "
                  "n=64 (limit 64)")
    SETS_PER_ROUND = 10

    def ladder(self):
        return ([("dp3", n) for n in (9, 10, 10, 11, 12, 12)]
                + [("mixed", n) for n in (10, 11, 12)] + [("k4", 4)])

    def corpus(self):
        """40 distinct small sets and 40 distinct large instances, reused across rounds.

        The one large instance per round is the slowest operation, and a run
        holds a few dozen of them, so the tail percentile (ten samples above
        it) falls inside that class instead of on one unlucky small instance.
        Small instances repeat, which keeps the independent verdict check in
        perfbench/check.py affordable.
        """
        sets = super().corpus()
        base = len(sets) * len(self.ladder())
        large = [self.build(base + r, ("dp4", 64), self._rng(r, len(self.ladder())))
                 for r in range(self.corpus_rounds)]
        return [[inst for t in range(self.SETS_PER_ROUND)
                 for inst in sets[(r * self.SETS_PER_ROUND + t) % len(sets)]] + [large[r]]
                for r in range(self.corpus_rounds)]

    def build(self, key, spec, rng):
        dp = self.dp
        kind, n = spec
        if kind in ("dp3", "mixed"):
            g = _random_graph(dp, n, 2 * n + 8 if kind == "dp3" else 3 * n + 8, rng)
            h = dp.gen_random_cover(g, 3, 3, 1.0, _seed(rng))
            f = dp.gen_random_budget(g, 3, 3, 1 if kind == "dp3" else 2, _seed(rng), lists=h.lists)
            return Instance(key, n, kind, (g, h, f, dp.DEFAULT_EXACT_LIMIT, None))
        if kind == "dp4":
            # Stacked triangulations are 3-degenerate, hence DP 4-colorable.
            g = dp.gen_planar_triangulation(n, _seed(rng)).graph
            h = dp.gen_random_cover(g, 4, 4, 1.0, _seed(rng))
            f = dp.gen_random_budget(g, 4, 4, 1, _seed(rng), lists=h.lists)
            return Instance(key, n, kind, (g, h, f, n, None), expect=True)
        pg = dp.gen_planar_triangulation(4, _seed(rng))
        h = dp.gen_random_cover(pg.graph, 4, 4, 1.0, _seed(rng))
        f = dp.gen_random_budget(pg.graph, 4, 4, 2, _seed(rng), lists=h.lists)
        tri = pg.graph.induced((0, 1, 2))
        choices = [{0: a, 1: b, 2: c} for a in sorted(h.lists[0]) for b in sorted(h.lists[1])
                   for c in sorted(h.lists[2])]
        c0 = rng.choice([pre for pre in choices if check.coloring_exists(tri, h, f, pre)])
        # K4 has no 5-cycle, so the family theorem guarantees an extension.
        return Instance(key, 4, kind, (pg, h, f, None, c0), expect=True)

    def op(self, inst):
        dp = self.dp
        g, h, f, limit, c0 = inst.data
        if inst.kind == "k4":
            return dp.extend_precolored_triangle(g, h, f, c0)
        return dp.solve_exact(g, h, f, limit=limit, stats={})

    def check(self, inst, out):
        g, h, f, _, c0 = inst.data
        graph = g.graph if inst.kind == "k4" else g
        if inst.expect is None:
            inst.expect = check.coloring_exists(graph, h, f)
        if out is None:
            return (None if not inst.expect else "solver found no coloring, one exists"), "absent"
        coloring, order = out
        text = check.canonical(coloring, order)
        if not inst.expect:
            return "solver found a coloring where none exists", text
        if c0 and any(coloring.get(v) != c for v, c in c0.items()):
            return "extension changed the precolored triangle", text
        return check.order_errors(graph, h, f, coloring, order), text


WORKLOADS = {w.name: w for w in (PlanarFan, PlanarChord, VerifyFiles, ExactDesk)}
