"""Command-line interface.

Exit codes: 0 success/true/found, 1 invalid/false/absent, 2 usage or
parse/precondition error, 3 a guaranteed-colorable instance came back
uncolorable (or an internal invariant broke).  `--json` replaces the
plain output with a machine-readable report
{status, witness?, diagnostics[], seed?, stats{nodes, backtracks, millis}}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import errors
from .coloring import verify_coloring
from .covers import Coloring, Order
from .cycles import FamilyA, NoAdj34, NoCycleLengths, check_family
from .formats import (
    emit_budget,
    emit_coloring,
    emit_cover,
    emit_graph,
    emit_order,
    emit_plane,
    parse_budget,
    parse_coloring,
    parse_cover,
    parse_graph_or_plane,
    parse_plane,
)
from .generators import gen_planar_triangulation, gen_random_budget, gen_random_cover
from .reductions import budget_forest, budget_list, budget_mixed, identity_cover
from .solvers import (
    DEFAULT_EXACT_LIMIT,
    extend_precolored_triangle,
    solve_exact,
    solve_planar_dpg52,
)

DIAGNOSTIC_ERRORS = (errors.TheoremViolation, errors.InternalInvariantViolated)
# Caught after DIAGNOSTIC_ERRORS, so every other library error is an input
# or precondition error.
USAGE_ERRORS = (errors.ColoringError, OSError, ValueError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _witness_json(coloring: Coloring, order: Order | None) -> dict:
    out = {"coloring": [[v, coloring[v]] for v in sorted(coloring)]}
    if order is not None:
        out["order"] = [[v, c] for v, c in order]
    return out


class Report:
    """Collects one command's outcome for plain or JSON output."""

    def __init__(self):
        self.status = "error"
        self.exit_code = 2
        self.witness: dict | None = None
        self.diagnostics: list[str] = []
        self.seed: int | None = None
        self.stats = {"nodes": 0, "backtracks": 0, "millis": 0.0}
        self.plain: list[str] = []

    def json_payload(self) -> dict:
        payload = {
            "status": self.status,
            "diagnostics": self.diagnostics,
            "stats": self.stats,
        }
        if self.witness is not None:
            payload["witness"] = self.witness
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload


def _finish(report: Report, as_json: bool, started: float) -> int:
    report.stats["millis"] = round((time.perf_counter() - started) * 1000.0, 3)
    if as_json:
        print(json.dumps(report.json_payload(), sort_keys=True))
    else:
        for line in report.plain:
            print(line)
        for diag in report.diagnostics:
            print(diag, file=sys.stderr)
    return report.exit_code


def _cmd_verify(args, report: Report) -> None:
    g = parse_graph_or_plane(_read(args.graph))
    h = parse_cover(_read(args.cover))
    f = parse_budget(_read(args.budget))
    r = parse_coloring(_read(args.coloring))
    order = verify_coloring(g, h, f, r)
    if order is None:
        report.status, report.exit_code = "invalid", 1
        report.plain = ["invalid"]
    else:
        report.status, report.exit_code = "valid", 0
        report.witness = _witness_json(r, order)
        report.plain = [emit_order(order).rstrip("\n")]


def _cmd_solve_exact(args, report: Report) -> None:
    g = parse_graph_or_plane(_read(args.graph))
    h = parse_cover(_read(args.cover))
    f = parse_budget(_read(args.budget))
    pre = parse_coloring(_read(args.precolored)) if args.precolored else None
    stats: dict = {}
    res = solve_exact(g, h, f, precolored=pre, limit=args.limit, stats=stats)
    report.stats.update(stats)
    if res is None:
        report.status, report.exit_code = "absent", 1
        report.plain = ["absent"]
    else:
        coloring, order = res
        report.status, report.exit_code = "found", 0
        report.witness = _witness_json(coloring, order)
        report.plain = [emit_coloring(coloring).rstrip("\n"),
                        emit_order(order).rstrip("\n")]


def _cmd_solve_planar(args, report: Report) -> None:
    pg = parse_plane(_read(args.plane))
    h = parse_cover(_read(args.cover))
    f = parse_budget(_read(args.budget))
    coloring, order = solve_planar_dpg52(pg, h, f)
    report.status, report.exit_code = "found", 0
    report.witness = _witness_json(coloring, order)
    report.plain = [emit_coloring(coloring).rstrip("\n"),
                    emit_order(order).rstrip("\n")]


def _cmd_extend_triangle(args, report: Report) -> None:
    pg = parse_plane(_read(args.plane))
    h = parse_cover(_read(args.cover))
    f = parse_budget(_read(args.budget))
    c0 = parse_coloring(_read(args.precolored))
    coloring, order = extend_precolored_triangle(pg, h, f, c0, limit=args.limit)
    report.status, report.exit_code = "found", 0
    report.witness = _witness_json(coloring, order)
    report.plain = [emit_coloring(coloring).rstrip("\n"),
                    emit_order(order).rstrip("\n")]


def _cmd_reduce(args, report: Report) -> None:
    g = parse_graph_or_plane(_read(args.graph))
    lists_cover = parse_cover(_read(args.lists))
    lists = {v: lists_cover.lists[v] for v in g.vertices if v in lists_cover.lists}
    missing = [v for v in g.vertices if v not in lists]
    if missing:
        raise errors.EmptyList(f"no list for vertices {missing}")
    if args.mode == "list":
        f = budget_list(lists, s=lists_cover.s)
    elif args.mode == "forest":
        f = budget_forest(lists, s=lists_cover.s)
    else:
        if args.d is None or args.k is None:
            raise errors.BadParameters("mixed mode needs --d and --k")
        f = budget_mixed(lists, args.d, args.k)
    h = identity_cover(g, lists, s=f.s)
    cover_text, budget_text = emit_cover(h), emit_budget(f)
    if args.out_cover:
        with open(args.out_cover, "w", encoding="utf-8") as fh:
            fh.write(cover_text)
    if args.out_budget:
        with open(args.out_budget, "w", encoding="utf-8") as fh:
            fh.write(budget_text)
    report.status, report.exit_code = "ok", 0
    if not (args.out_cover and args.out_budget):
        report.plain = ["# identity cover", cover_text.rstrip("\n"),
                        "# budget", budget_text.rstrip("\n")]


def _cmd_check_family(args, report: Report) -> None:
    g = parse_graph_or_plane(_read(args.graph))
    if args.family == "noadj34":
        spec = NoAdj34()
    elif args.family == "family-a":
        spec = FamilyA()
    else:
        if not args.lengths:
            raise errors.BadSpec("no-cycle-lengths needs --lengths")
        lengths = frozenset(int(t) for t in args.lengths.split(","))
        spec = NoCycleLengths(lengths)
    ok = check_family(g, spec)
    report.status = "true" if ok else "false"
    report.exit_code = 0 if ok else 1
    report.plain = [report.status]


def _cmd_gen(args, report: Report) -> None:
    report.seed = args.seed
    if args.kind == "triangulation":
        pg = gen_planar_triangulation(args.n, args.seed)
        text = emit_plane(pg)
    elif args.kind == "cover":
        g = parse_graph_or_plane(_read(args.graph))
        h = gen_random_cover(g, args.colors, args.list_size, args.density, args.seed)
        text = emit_cover(h)
    else:
        g = parse_graph_or_plane(_read(args.graph))
        lists = None
        if args.cover:
            lists = parse_cover(_read(args.cover)).lists
        f = gen_random_budget(g, args.colors, args.sum_min, args.cap, args.seed,
                              lists=lists)
        text = emit_budget(f)
    report.status, report.exit_code = "ok", 0
    report.plain = [text.rstrip("\n")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfcolor",
        description="Correspondence coloring with variable degeneracy budgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("verify", help="verify a coloring and print its witness order")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--coloring", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve-exact", help="exhaustive search for a coloring")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--precolored")
    p.add_argument("--limit", type=int, default=DEFAULT_EXACT_LIMIT)
    add_json(p)
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("solve-planar",
                       help="constructive solver for budgets >= 5 capped at 2")
    p.add_argument("--plane", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--budget", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_solve_planar)

    p = sub.add_parser("extend-triangle",
                       help="extend a precolored triangle (family without "
                            "pairwise adjacent 3-,4-,5-cycles)")
    p.add_argument("--plane", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--precolored", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_EXACT_LIMIT)
    add_json(p)
    p.set_defaults(func=_cmd_extend_triangle)

    p = sub.add_parser("reduce",
                       help="encode list/forest/mixed coloring as cover + budget")
    p.add_argument("--mode", required=True, choices=["list", "forest", "mixed"])
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True,
                   help="cover file whose list lines give the assignment")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out-cover")
    p.add_argument("--out-budget")
    add_json(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check-family", help="cycle-family membership predicates")
    p.add_argument("--graph", required=True)
    p.add_argument("--family", required=True,
                   choices=["noadj34", "family-a", "no-cycle-lengths"])
    p.add_argument("--lengths", help="comma-separated lengths, e.g. 4,6,7,9")
    add_json(p)
    p.set_defaults(func=_cmd_check_family)

    p = sub.add_parser("gen", help="seeded generators")
    gensub = p.add_subparsers(dest="kind", required=True)

    q = gensub.add_parser("triangulation")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=_cmd_gen, json=False)

    q = gensub.add_parser("cover")
    q.add_argument("--graph", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--list-size", type=int, required=True)
    q.add_argument("--density", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=_cmd_gen, json=False)

    q = gensub.add_parser("budget")
    q.add_argument("--graph", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--sum-min", type=int, required=True)
    q.add_argument("--cap", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--cover", help="restrict budget support to these lists")
    q.set_defaults(func=_cmd_gen, json=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = Report()
    started = time.perf_counter()
    try:
        args.func(args, report)
    except DIAGNOSTIC_ERRORS as exc:
        report.status = "theorem-violation"
        report.exit_code = 3
        report.diagnostics.append(f"{type(exc).__name__}: {exc}")
    except USAGE_ERRORS as exc:
        report.status = "error"
        report.exit_code = 2
        report.diagnostics.append(f"{type(exc).__name__}: {exc}")
    return _finish(report, getattr(args, "json", False), started)


if __name__ == "__main__":
    sys.exit(main())
