"""Scaling ladder: solve and verify plane graphs of growing size, one case per process.

    python3 bench/ladder.py --label mychange
    python3 bench/ladder.py --label base --src /path/to/other/checkout/src

For each shape and each size n = 500, 1000, 2000 and 4000, a fresh Python
process builds the instance, runs `solve_planar_dpg52` and `verify_coloring`
on it and reports the wall time of the two calls.  The shapes are stacked
triangulations, random triangulated polygons and grids (the last two from
`perfbench/shapes.py`), and polygons fanned by `triangulate_interior`.
Covers use 5 colors, lists of 5 and density 1.0; budgets have total 5 and
cap 2.  A case that raises, or runs longer than TIMEOUT_S, records its
error instead of a time.  The solver keeps its pending steps on a work
stack, so no case meets the recursion limit, but the steps waiting on that
stack hold memory that grows about as n^2 on grids and fanned polygons.
Each case process therefore caps its address space at MEMORY_CAP_BYTES,
and a case over the cap records a MemoryError instead of pushing the
machine into swap or the kernel's out-of-memory killer.  Every case
records its process's peak resident set size.

The results go to `BENCH_<label>.json` next to this script:

    {label, written, python, cpus, commit, dirty, cases: [{shape, n,
     vertices, seed, total_ms, peak_rss_mb} or {shape, n, seed, error, ...}],
     growth: {shape: exponent}}

where n is the rung of the ladder and vertices the instance's size (a grid
has round(sqrt(n))^2 vertices), and a growth exponent is the least-squares
slope of log(total_ms) against log(vertices) over the shape's successful
cases.  The script then prints the change against the other
`BENCH_*.json` in that directory with the latest `written` time.  It
needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from perfbench import shapes  # noqa: E402
from perfbench.tracing import slope  # noqa: E402

SHAPES = ("stacked", "polygon", "fanned", "grid")
SIZES = (500, 1000, 2000, 4000)
SEED = 1
TIMEOUT_S = 600
MEMORY_CAP_BYTES = 3 << 30


# -- one case, in its own process -------------------------------------------

def build(dp, shape: str, n: int, seed: int):
    if shape == "stacked":
        return dp.gen_planar_triangulation(n, seed)
    if shape == "polygon":
        return shapes.triangulated_polygon(dp, n, seed)
    if shape == "fanned":
        g = dp.SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])
        rot = {i: ((i - 1) % n, (i + 1) % n) for i in range(n)}
        return dp.triangulate_interior(dp.PlaneGraph(g, rot, tuple(range(n))))
    if shape == "grid":
        return shapes.grid(dp, round(math.sqrt(n)), seed)
    raise ValueError(f"unknown shape {shape}")


def cap_memory(limit: int) -> None:
    """Lower this process's address-space limit to `limit` bytes."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_case(shape: str, n: int, seed: int) -> dict:
    import dpfcolor as dp

    pg = build(dp, shape, n, seed)
    h = dp.gen_random_cover(pg.graph, 5, 5, 1.0, seed=seed)
    f = dp.gen_random_budget(pg.graph, 5, 5, 2, seed=seed + 1, lists=h.lists)
    case = {"shape": shape, "n": n, "vertices": pg.n, "seed": seed}
    t0 = time.perf_counter()
    try:
        coloring, _ = dp.solve_planar_dpg52(pg, h, f)
        if dp.verify_coloring(pg.graph, h, f, coloring) is None:
            raise AssertionError("solver output failed verification")
    except Exception as exc:  # MemoryError included: it is a result here
        case["error"] = f"{type(exc).__name__}: {exc}"
        case["error_after_ms"] = round((time.perf_counter() - t0) * 1e3, 1)
        case["peak_rss_mb"] = peak_rss_mb()
        return case
    case["total_ms"] = round((time.perf_counter() - t0) * 1e3, 1)
    case["peak_rss_mb"] = peak_rss_mb()
    return case


# -- the ladder ---------------------------------------------------------------

def spawn(shape: str, n: int, src: Path) -> dict:
    cmd = [sys.executable, __file__, "--case", shape, str(n), "--src", str(src)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"shape": shape, "n": n, "seed": SEED, "error": f"timeout after {TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"shape": shape, "n": n, "seed": SEED,
                "error": f"exit {proc.returncode}: {tail}"}
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
        return f"{case['total_ms']:.0f} ms"
    return case["error"].split(":")[0]


def describe_memory(case: dict) -> str:
    return f"{case['peak_rss_mb']:.0f} MB" if "peak_rss_mb" in case else ""


def print_delta(old: dict, new: dict) -> None:
    before = {(c["shape"], c["n"]): c for c in old["cases"]}
    print(f"change against {old.get('label')} ({old.get('commit')}):")
    for case in new["cases"]:
        prev = before.get((case["shape"], case["n"]))
        line = f"  {case['shape']:8} n={case['n']:<5} "
        if prev is None:
            print(line + f"(new) {describe(case)}")
            continue
        line += f"{describe(prev):>16} -> {describe(case):<16}"
        if "total_ms" in case and "total_ms" in prev:
            line += f" ({case['total_ms'] / prev['total_ms']:.2f} of the time)"
        print(line)
    for shape, exp in new["growth"].items():
        print(f"  growth {shape:8} {old['growth'].get(shape)} -> {exp}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="name of the BENCH_<label>.json to write")
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the dpfcolor package to measure")
    ap.add_argument("--case", nargs=2, metavar=("SHAPE", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if args.case:
        cap_memory(MEMORY_CAP_BYTES)
        sys.path.insert(0, str(src))
        print(json.dumps(run_case(args.case[0], int(args.case[1]), SEED)))
        return 0
    if not args.label:
        ap.error("--label is required")

    cases = []
    for shape in SHAPES:
        for n in SIZES:
            case = spawn(shape, n, src)
            print(f"{shape:8} n={case['n']:<5} {describe(case)} {describe_memory(case)}",
                  flush=True)
            cases.append(case)
    growth = {}
    for shape in SHAPES:
        points = [(c["vertices"], c["total_ms"]) for c in cases
                  if c["shape"] == shape and "total_ms" in c]
        growth[shape] = round(slope(points), 3) if len(points) > 1 else None
    commit, dirty = git_state(src)
    result = {"label": args.label,
              "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "python": platform.python_version(),
              "cpus": os.cpu_count(), "commit": commit, "dirty": dirty,
              "cases": cases, "growth": growth}
    out = HERE / f"BENCH_{args.label}.json"
    others = [json.loads(p.read_text()) for p in HERE.glob("BENCH_*.json") if p != out]
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if others:
        print_delta(max(others, key=lambda b: b["written"]), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
