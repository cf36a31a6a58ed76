"""Scaling ladder: solve and verify plane graphs of growing size, one case per process.

    python3 bench/ladder.py --label mychange
    python3 bench/ladder.py --label base --src /path/to/other/checkout/src

The table `RUNGS` names each op with the shapes it runs on and the sizes n
of each shape; the ladder runs every (op, shape, n) rung in the table's
order, each in a fresh Python process that builds the instance and times
the op, the function of that name:

- "solve": `solve_planar_dpg52` and `verify_coloring`.  A solve case also
  records two counts of `bench/probe.py`, per input vertex.
  `pair_vertices_per_n` counts the vertices of the pair graphs that the
  solver's chord-split frames build, with the final check on the whole
  input left out.  `split_rows_per_n` counts the adjacency rows of the
  piece dicts that the solver's chord splits build: the size of each
  piece's adjacency dict, except a piece whose dict is the one the split
  was handed.  The probe wraps `induced_pair_graph` and `_split` only, so
  the timed calls run with those two wrapped.
- "verify": `verify_coloring` alone, on a valid coloring.
- "verify_cli": `dpfcolor verify --json` run in-process through
  `cli.main` on the files the emitters write, parsing included.
- "solve_cli": `dpfcolor solve-planar --json` run in-process through
  `cli.main` on the emitted plane graph, cover and budget files: parsing,
  the solver with its final definition check, and the JSON report.
- "triangulate": `triangulate_interior` alone.  On stacked triangulations
  it only validates its input (one face trace, which also tells whether
  the graph is 2-connected); on grids it also adds a chord to every
  bounded face.
- "family": `check_family` for `NoAdj34` and then `FamilyA`, each alone,
  on graphs that lie in both families, so that every edge is read.
- "exact": `solve_exact` with `limit = n` on a DP 4-coloring of a stacked
  triangulation (4 colors, lists of 4, density 1.0, every budget 1; cover
  seed 8, budget seed 9), timed alone and verified afterwards, with its
  node and backtrack counts and nodes per second.  A stacked triangulation
  is 3-degenerate, so such a coloring always exists.
- "exact_path": `solve_exact` the same way on a path with an identity
  cover of 2 colors and every budget 1, a proper 2-coloring: the search
  goes one level deeper per vertex and never backtracks, so its nodes per
  second show what a node costs as the partial coloring grows.
- "gen": `gen_random_cover` and then `gen_random_budget` on its lists,
  with the parameters every other op's instance is built with, each
  timed alone.

`BUILD` builds each shape: stacked triangulations ("stacked"), random
triangulated polygons and grids ("polygon", "grid", from
`perfbench/shapes.py`), polygons fanned by `triangulate_interior`
("fanned"), grids with a triangle hung on every 4th vertex ("pendant";
a k x k grid with k = round(sqrt(n / 1.5))), windmills of n // 2 triangles
whose hub is labelled last ("windmill"), and paths ("path").  The bare
polygon, the pendant grid and the windmill come from
`bench/builders.py`, which the tests share.  Every op but "family" and
"gen" is handed the instance's cover and budget; op "family" checks the
bare graph, and op "gen" builds its own.  Covers use 5 colors, lists of
5 and density 1.0; budgets have total 5 and cap 2.  A case that raises,
or runs longer than TIMEOUT_S, records its error instead of a time.  The
solver keeps its pending steps on a work stack, so no case meets the
recursion limit, but on grids the fan steps waiting on that stack hold
memory that grows much faster than n.
Each case process therefore caps its address space at MEMORY_CAP_BYTES,
and a case over the cap records a MemoryError instead of pushing the
machine into swap or the kernel's out-of-memory killer.  Every case
records its process's peak resident set size, and how many full (gen-2)
collections the cyclic garbage collector made during the timed calls, as a
delta of `gc.get_stats()`.

On a shared host the speed of a core drifts by up to a factor of two, so
a ladder file compared with one written at another time would report that
drift as change.  Each case therefore times `perfbench/run.py`'s
calibration loop (`Speedometer`) CALIBRATION_SAMPLES times just before and
just after its operation and records `scaled_ms`, its time rescaled to the
calibration's reference speed by the mean of the two medians, beside the
wall time `total_ms`.  One 1.4 ms sample a side proved too noisy: on
four of the six verify rungs it left the scaled times spread wider across
runs than the wall times.  The growth fits and the printed change use
`scaled_ms`.  It removes most of a drift, not all: between two files
written at different times, rungs whose code had not changed read 1.50 to
2.91 times slower in wall time and 1.00 to 1.45 times in scaled time.  A
claimed change is measured by `--case` runs of both sides, alternated.

The results go to `BENCH_<label>.json` next to this script:

    {label, written, python, cpus, commit, dirty, cases: [{op, shape, n,
     vertices, seed, total_ms, scaled_ms, gen2_collections, peak_rss_mb}
     (op "solve" adds pair_vertices_per_n and split_rows_per_n; ops "exact" and "exact_path"
     add nodes, backtracks and nodes_per_s; op "family" adds parts_ms, the
     scaled ms of each family's check, and op "gen" the scaled ms of each
     generator)
     or {op, shape, n, seed, error, ...}],
     growth: {shape or op: exponent}, rss_growth: {shape or op: exponent},
     growth_to_8k: {shape: exponent}, rss_growth_to_8k: {shape: exponent}}

where n is the rung of the ladder and vertices the instance's size (a grid
has round(sqrt(n))^2 vertices), and a growth exponent is the least-squares
slope of log(scaled_ms) against log(vertices) over the successful cases of
one series (`series`): a shape of op "solve", op "triangulate" on one
shape ("triangulate stacked", "triangulate grid"), one family's check on
one shape ("noadj34 pendant", "family-a windmill", ...), one generator
on one shape ("gen-cover stacked", "gen-budget stacked") or one of the
other ops; a part's growth is fitted to its own part of the scaled time,
and its rss_growth to the peak of the process that ran both; rss_growth is
the same slope for log(peak_rss_mb), which includes the interpreter's own
few tens of MB and so reads low on the small rungs.  The `_to_8k` tables
fit only the solve rungs of n <= 8000, the range every ladder file before
the 16k and 32k solve rungs covers, so that exponents stay comparable
across files.  The script then prints the change against the other
`BENCH_*.json` in that directory with the latest `written` time, which
must have every field above.  It needs only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import builders  # noqa: E402  bench/builders.py, beside this script
from perfbench import shapes  # noqa: E402
from perfbench.run import Speedometer  # noqa: E402
from perfbench.tracing import slope  # noqa: E402

FIT_TO = 8000  # the largest rung of the comparable fit
PARTS = {"family": ("noadj34", "family-a"), "gen": ("gen-cover", "gen-budget")}  # in run order
SEED = 1
TIMEOUT_S = 600
CALIBRATION_SAMPLES = 25
MEMORY_CAP_BYTES = 3 << 30


# -- one case, in its own process -------------------------------------------

BUILD = {  # shape: its instance of rung n, from the package dp and a seed
    "stacked": lambda dp, n, seed: dp.gen_planar_triangulation(n, seed),
    "polygon": lambda dp, n, seed: shapes.triangulated_polygon(dp, n, seed),
    "fanned": lambda dp, n, _: dp.triangulate_interior(builders.polygon(dp, n)),
    "grid": lambda dp, n, seed: shapes.grid(dp, round(math.sqrt(n)), seed),
    "pendant": lambda dp, n, _: builders.pendant_grid(dp, round(math.sqrt(n / 1.5))),
    "windmill": lambda dp, n, _: builders.windmill(dp, n // 2, hub=n // 2 * 2),
    "path": lambda dp, n, _: dp.PlaneGraph(  # its one face walks it there and back
        dp.path_graph(n), {i: tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)},
        tuple(range(n)) + tuple(range(n - 2, 0, -1))),
}


def cap_memory(limit: int) -> None:
    """Lower this process's address-space limit to `limit` bytes."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def stacking_coloring(g, h, f) -> dict[int, int]:
    """A valid coloring of a stacked triangulation: in vertex order each
    vertex has at most three earlier neighbours and budget total 5, so some
    list color always has budget left."""
    r: dict[int, int] = {}
    for v in g.vertices:
        r[v] = next(c for c in sorted(h.lists[v])
                    if sum(1 for u in g.adj[v] if u in r and h.matched(v, c, u, r[u]))
                    < f.get(v, c))
    return r


def calibration_s(speed: Speedometer) -> float:
    """Median time of CALIBRATION_SAMPLES calibration loops run now."""
    return statistics.median(speed.samples[speed.sample()]
                             for _ in range(CALIBRATION_SAMPLES))


class Span:
    """Wall time and full (gen-2) garbage collections of a `with` block,
    and the wall time of each part of it that `lap` names."""

    def __enter__(self) -> "Span":
        self.gen2 = gc.get_stats()[2]["collections"]
        self.parts: dict[str, float] = {}
        self.t0 = self.lapped = time.perf_counter()
        return self

    def lap(self, name: str) -> None:
        """Time the block since its start or its last lap as part `name`."""
        now = time.perf_counter()
        self.parts[name], self.lapped = now - self.lapped, now

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.t0
        self.gen2 = gc.get_stats()[2]["collections"] - self.gen2


def solve(dp, pg, h, f) -> Span:
    """Solve and verify; the probe's counts of the split frames' pair-graph
    vertices and of the splits' piece rows go on the span."""
    from probe import Probe

    with Probe("pairs", "splits", graph=pg.graph) as probe, Span() as span:
        coloring, _ = dp.solve_planar_dpg52(pg, h, f)
        if dp.verify_coloring(pg.graph, h, f, coloring) is None:
            raise AssertionError("solver output failed verification")
    span.counters = {f"{name}_per_n": round(probe.counts[name] / pg.n, 2)
                     for name in ("pair_vertices", "split_rows")}
    return span


def verify(dp, pg, h, f) -> Span:
    r = stacking_coloring(pg.graph, h, f)
    with Span() as span:
        if dp.verify_coloring(pg.graph, h, f, r) is None:
            raise AssertionError("the stacking coloring failed verification")
    return span


def run_cli(command: str, plane: str, pg, h, f, **more: str) -> Span:
    """`dpfcolor COMMAND --json` in-process through `cli.main`, with one
    `--PART PATH` naming a file that holds each part: the emitted plane
    graph as part `plane`, the cover, the budget, then each text of
    `more`; only the command is timed, not writing its files."""
    from dpfcolor import cli, formats

    texts = {plane: formats.emit_plane(pg), "cover": formats.emit_cover(h),
             "budget": formats.emit_budget(f), **more}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--json"]
        for part, text in texts.items():
            path = Path(tmp, f"{part}.txt")
            path.write_text(text, encoding="utf-8")
            argv += ["--" + part, str(path)]
        out = io.StringIO()
        with Span() as span, contextlib.redirect_stdout(out):
            code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"dpfcolor {command} exited {code}: {out.getvalue()[:200]}")
    return span


def verify_cli(dp, pg, h, f) -> Span:
    """`dpfcolor verify --json` on emitted files of a valid coloring."""
    from dpfcolor.formats import emit_coloring

    return run_cli("verify", "graph", pg, h, f,
                   coloring=emit_coloring(stacking_coloring(pg.graph, h, f)))


def solve_cli(dp, pg, h, f) -> Span:
    """`dpfcolor solve-planar --json` on emitted files; exit 0 means a
    coloring was found and passed the solver's final check."""
    return run_cli("solve-planar", "plane", pg, h, f)


def search(dp, g, h, f) -> Span:
    """`solve_exact` alone with `limit = n`; its counters go on the span."""
    stats: dict = {}
    with Span() as span:
        found = dp.solve_exact(g, h, f, limit=g.n, stats=stats)
    if found is None or dp.verify_coloring(g, h, f, found[0]) is None:
        raise AssertionError("the exact solver found no valid coloring")
    span.counters = {**stats, "nodes_per_s": round(stats["nodes"] / span.seconds)}
    return span


def triangulate(dp, pg, _h, _f) -> Span:
    """`triangulate_interior` alone."""
    with Span() as span:
        dp.triangulate_interior(pg)
    return span


def exact(dp, pg, _h, _f) -> Span:
    """`solve_exact` on a DP 4-coloring with unit budgets."""
    h = dp.gen_random_cover(pg.graph, 4, 4, 1.0, seed=8)
    f = dp.gen_random_budget(pg.graph, 4, 4, 1, seed=9, lists=h.lists)
    return search(dp, pg.graph, h, f)


def exact_path(dp, pg, _h, _f) -> Span:
    """`solve_exact` on a proper 2-coloring of a path: an identity cover of
    2 colors and every budget 1."""
    lists = {v: {1, 2} for v in pg.graph.vertices}
    return search(dp, pg.graph, dp.identity_cover(pg.graph, lists), dp.budget_list(lists))


def family(dp, g, _h, _f) -> Span:
    """`check_family` for `NoAdj34` and then `FamilyA`; each one's time
    goes on the span as a part."""
    with Span() as span:
        for name, spec in zip(PARTS["family"], (dp.NoAdj34(), dp.FamilyA())):
            if not dp.check_family(g, spec):
                raise AssertionError(f"the graph is not in {name}")
            span.lap(name)
    return span


def gen(dp, pg, _h, _f) -> Span:
    """`gen_random_cover` and then `gen_random_budget` on its lists; each
    one's time goes on the span as a part."""
    with Span() as span:
        h = dp.gen_random_cover(pg.graph, 5, 5, 1.0, seed=SEED)
        span.lap("gen-cover")
        dp.gen_random_budget(pg.graph, 5, 5, 2, seed=SEED + 1, lists=h.lists)
        span.lap("gen-budget")
    return span


RUNGS = {  # op: ((shape, sizes n), ...), run in this order
    solve: (("stacked", (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)),
            ("polygon", (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)),
            ("fanned", (500, 1000, 2000, 4000, 8000, 16000, 32000)),
            ("grid", (500, 1000, 2000, 4000, 8000, 16000, 32000))),
    verify: (("stacked", (4000, 16000, 64000)),),
    verify_cli: (("stacked", (4000, 16000, 64000)),),
    solve_cli: (("stacked", (4000, 16000, 64000)),),
    triangulate: (("stacked", (4000, 16000, 64000)), ("grid", (4000, 16000, 64000))),
    family: (("pendant", (4000, 16000, 64000)), ("windmill", (4000, 16000, 64000))),
    exact: (("stacked", (32, 64, 128, 256)),),
    exact_path: (("path", (550, 1100, 2200, 4400)),),
    gen: (("stacked", (4000, 16000, 64000)),),
}
OPS = {op.__name__: op for op in RUNGS}


def rungs() -> list[tuple[str, str, int]]:
    """Every (op, shape, n) of the ladder, in the order it runs them."""
    return [(op.__name__, shape, n) for op, by_shape in RUNGS.items()
            for shape, sizes in by_shape for n in sizes]


def run_case(op: str, shape: str, n: int, seed: int) -> dict:
    import dpfcolor as dp

    pg = BUILD[shape](dp, n, seed)
    h = f = None  # op "family" checks a SimpleGraph without lists; op "gen" builds them
    if op not in PARTS:
        h = dp.gen_random_cover(pg.graph, 5, 5, 1.0, seed=seed)
        f = dp.gen_random_budget(pg.graph, 5, 5, 2, seed=seed + 1, lists=h.lists)
    case = {"op": op, "shape": shape, "n": n, "vertices": pg.n, "seed": seed}
    speed = Speedometer()  # its first sample warms the calibration loop up
    before = calibration_s(speed)
    t0 = time.perf_counter()
    try:
        span = OPS[op](dp, pg, h, f)
        scale = 2 * speed.REFERENCE_S / (before + calibration_s(speed))
        case["total_ms"] = round(span.seconds * 1e3, 1)
        case["scaled_ms"] = round(span.seconds * 1e3 * scale, 1)
        case["gen2_collections"] = span.gen2
        case.update(getattr(span, "counters", {}))
        if span.parts:
            case["parts_ms"] = {name: round(s * 1e3 * scale, 1) for name, s in span.parts.items()}
    except Exception as exc:  # MemoryError included: it is a result here
        case["error"] = f"{type(exc).__name__}: {exc}"
        case["error_after_ms"] = round((time.perf_counter() - t0) * 1e3, 1)
    case["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return case


# -- the ladder ---------------------------------------------------------------

def spawn(op: str, shape: str, n: int, src: Path) -> dict:
    cmd = [sys.executable, __file__, "--case", op, shape, str(n), "--src", str(src)]
    failed = {"op": op, "shape": shape, "n": n, "seed": SEED}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return failed | {"error": f"timeout after {TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return failed | {"error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def git_state(src: Path) -> tuple[str, bool]:
    def git(*args):
        out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    if commit is None:
        return "unknown", False
    return commit, bool(git("status", "--porcelain", "--", "."))


def describe(case: dict) -> str:
    if "total_ms" in case:
        return f"{case['total_ms']:.0f} ms ({case['scaled_ms']:.0f} scaled)"
    return case["error"].split(":")[0]


def describe_memory(case: dict) -> str:
    # a case whose process failed to start or to answer has none
    return f"{case['peak_rss_mb']:.0f} MB" if "peak_rss_mb" in case else ""


def describe_gc(case: dict) -> str:
    return f"gen-2 {case['gen2_collections']}" if "gen2_collections" in case else ""


def describe_counters(case: dict) -> str:
    if "parts_ms" in case:
        return ", ".join(f"{name} {ms} scaled ms" for name, ms in case["parts_ms"].items())
    if "pair_vertices_per_n" in case:
        return "pair graphs {pair_vertices_per_n}·n, split rows {split_rows_per_n}·n".format(**case)
    if "nodes" not in case:
        return ""
    return f"{case['nodes']} nodes {case['backtracks']} backtracks {case['nodes_per_s']}/s"


def case_key(case: dict) -> tuple[str, str, int]:
    return case["op"], case["shape"], case["n"]


def series(op: str, shape: str) -> list[str]:
    """The growth series a case of `op` on `shape` adds a point to: its
    shape for op "solve", its op and shape for op "triangulate", each
    part's name and the shape for ops "family" and "gen", its op otherwise."""
    if op in PARTS:
        return [f"{name} {shape}" for name in PARTS[op]]
    return [shape if op == "solve" else f"{op} {shape}" if op == "triangulate" else op]


def case_name(case: dict) -> str:
    op, shape, n = case_key(case)
    return f"{op:11} {shape:8} n={n:<5}"


def print_delta(old: dict, new: dict) -> None:
    before = {case_key(c): c for c in old["cases"]}
    print(f"change against {old.get('label')} ({old.get('commit')}):")
    for case in new["cases"]:
        prev = before.get(case_key(case), {"error": "new"})
        line = f"  {case_name(case)} {describe(prev):>24} -> {describe(case):<24}"
        if "total_ms" in case and "total_ms" in prev:
            line += f" ({case['scaled_ms'] / prev['scaled_ms']:.2f} of the scaled time)"
        line += f"  peak {describe_memory(prev) or '?':>7} -> {describe_memory(case) or '?'}"
        if "gen2_collections" in case:
            line += f"  {describe_gc(prev) or 'gen-2 ?'} -> {case['gen2_collections']}"
        if {"nodes", "pair_vertices_per_n", "parts_ms"} & case.keys():
            line += f"  {describe_counters(prev) or '?'} -> {describe_counters(case)}"
        print(line)
    for fit in ("growth", "growth_to_8k"):  # printed as "growth", "growth to 8k"
        for name, exp in new[fit].items():
            print(f"  {fit.replace('_', ' ')} {name:10} {old[fit].get(name)} -> {exp}"
                  f"  rss {old['rss_' + fit].get(name)} -> {new['rss_' + fit][name]}")


def timed_series(case: dict) -> list[tuple[str, float]]:
    """Each series a successful case adds a point to, with its scaled ms:
    each part for ops "family" and "gen", the whole time otherwise."""
    times = case["parts_ms"].values() if "parts_ms" in case else [case["scaled_ms"]]
    return list(zip(series(case["op"], case["shape"]), times))


def fits(cases: list[dict], largest: float = math.inf) -> tuple[dict, dict]:
    """Time and RSS growth exponents of each series' successful cases, over
    the rungs of n <= largest.  The series come in the order of `RUNGS`,
    and within an op its shapes vary fastest."""
    growth, rss_growth = {}, {}
    for name in (name for op, by_shape in RUNGS.items()
                 for names in zip(*(series(op.__name__, shape) for shape, _ in by_shape))
                 for name in names):
        done = [(c, ms) for c in cases if "total_ms" in c and c["n"] <= largest
                for named, ms in timed_series(c) if named == name]
        for table, points in ((growth, [(c["vertices"], ms) for c, ms in done]),
                              (rss_growth, [(c["vertices"], c["peak_rss_mb"]) for c, _ in done])):
            table[name] = round(slope(points), 3) if len(points) > 1 else None
    return growth, rss_growth


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="name of the BENCH_<label>.json to write")
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the dpfcolor package to measure")
    ap.add_argument("--case", nargs=3, metavar=("OP", "SHAPE", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if args.case:
        cap_memory(MEMORY_CAP_BYTES)
        sys.path.insert(0, str(src))
        op, shape, n = args.case
        print(json.dumps(run_case(op, shape, int(n), SEED)))
        return 0
    if not args.label:
        ap.error("--label is required")

    cases = []
    for rung in rungs():
        case = spawn(*rung, src)
        print(f"{case_name(case)} {describe(case)} {describe_memory(case)} {describe_gc(case)}"
              f" {describe_counters(case)}", flush=True)
        cases.append(case)
    growth, rss_growth = fits(cases)
    growth_to_8k, rss_growth_to_8k = ({shape: fit[shape] for shape, _ in RUNGS[solve]}
                                      for fit in fits(cases, FIT_TO))
    commit, dirty = git_state(src)
    result = {"label": args.label,
              "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "python": platform.python_version(),
              "cpus": os.cpu_count(), "commit": commit, "dirty": dirty,
              "cases": cases, "growth": growth, "rss_growth": rss_growth,
              "growth_to_8k": growth_to_8k, "rss_growth_to_8k": rss_growth_to_8k}
    out = HERE / f"BENCH_{args.label}.json"
    others = [json.loads(p.read_text()) for p in HERE.glob("BENCH_*.json") if p != out]
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if others:
        print_delta(max(others, key=lambda b: b["written"]), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
