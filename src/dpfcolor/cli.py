"""Command-line interface.

Exit codes: 0 success/true/found, 1 invalid/false/absent, 2 usage or
parse/precondition error, 3 a guaranteed-colorable instance came back
uncolorable, an internal invariant broke, or any other exception (such as
a RecursionError) escaped.  `_OUTCOMES` is the one table that maps an
exception to its status and exit code.  `--json` replaces the
plain output with a machine-readable report
{status, witness?, diagnostics[], seed?, stats{nodes, backtracks, millis}}.
stats.nodes and stats.backtracks are the exact solver's counts
(`solve-exact`); every other command reports 0 there.
"""

from __future__ import annotations

import argparse
import functools
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

# (classes, status, exit code) of an escaped exception, read in order: the
# diagnostic classes come first, so every other library error is an input
# or precondition error, and anything else is a fault of the program.
_OUTCOMES = (
    ((errors.TheoremViolation, errors.InternalInvariantViolated), "theorem-violation", 3),
    ((errors.ColoringError, OSError, ValueError), "error", 2),
    (Exception, "internal-error", 3),
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _inputs(args, part: str = "graph") -> tuple:
    """The graph (for `part="plane"`: the plane graph), cover and budget
    files of a command, parsed in that order, so a diagnostic names the
    first malformed one."""
    parse = parse_plane if part == "plane" else parse_graph_or_plane
    return (parse(_read(getattr(args, part))), parse_cover(_read(args.cover)),
            parse_budget(_read(args.budget)))


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


def _found(report: Report, coloring: Coloring, order: Order) -> None:
    """Record a solver's coloring and witness order as the outcome "found"."""
    report.status, report.exit_code = "found", 0
    report.witness = _witness_json(coloring, order)
    report.plain = [emit_coloring(coloring).rstrip("\n"), emit_order(order).rstrip("\n")]


def _cmd_verify(args, report: Report) -> None:
    g, h, f = _inputs(args)
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
    g, h, f = _inputs(args)
    pre = parse_coloring(_read(args.precolored)) if args.precolored else None
    stats: dict = {}
    res = solve_exact(g, h, f, precolored=pre, limit=args.limit, stats=stats)
    report.stats.update(stats)
    if res is None:
        report.status, report.exit_code = "absent", 1
        report.plain = ["absent"]
    else:
        _found(report, *res)


def _cmd_solve_planar(args, report: Report) -> None:
    _found(report, *solve_planar_dpg52(*_inputs(args, "plane")))


def _cmd_extend_triangle(args, report: Report) -> None:
    pg, h, f = _inputs(args, "plane")
    c0 = parse_coloring(_read(args.precolored))
    _found(report, *extend_precolored_triangle(pg, h, f, c0, limit=args.limit))


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
        _write(args.out_cover, cover_text)
    if args.out_budget:
        _write(args.out_budget, budget_text)
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
        spec = NoCycleLengths(frozenset(int(t) for t in args.lengths.split(",")))
    ok = check_family(g, spec)
    report.status, report.exit_code = ("true", 0) if ok else ("false", 1)
    report.plain = [report.status]


def _cmd_gen(args, report: Report) -> None:
    report.seed = args.seed
    if args.kind == "triangulation":
        text = emit_plane(gen_planar_triangulation(args.n, args.seed))
    elif args.kind == "cover":
        g = parse_graph_or_plane(_read(args.graph))
        h = gen_random_cover(g, args.colors, args.list_size, args.density, args.seed)
        text = emit_cover(h)
    else:
        g = parse_graph_or_plane(_read(args.graph))
        lists = parse_cover(_read(args.cover)).lists if args.cover else None
        f = gen_random_budget(g, args.colors, args.sum_min, args.cap, args.seed,
                              lists=lists)
        text = emit_budget(f)
    report.status, report.exit_code = "ok", 0
    report.plain = [text.rstrip("\n")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="dpfcolor",
        description="Correspondence coloring with variable degeneracy budgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *files):
        """A subcommand that runs `func`, with one required `--FILE` per
        file part, in order."""
        p = sub.add_parser(name, help=help)
        for part in files:
            p.add_argument("--" + part, required=True)
        p.set_defaults(func=func)
        return p

    command("verify", _cmd_verify, "verify a coloring and print its witness order",
            "graph", "cover", "budget", "coloring")
    p = command("solve-exact", _cmd_solve_exact, "exhaustive search for a coloring",
                "graph", "cover", "budget")
    p.add_argument("--precolored")
    p.add_argument("--limit", type=int, default=DEFAULT_EXACT_LIMIT)
    command("solve-planar", _cmd_solve_planar,
            "constructive solver for budgets >= 5 capped at 2", "plane", "cover", "budget")
    p = command("extend-triangle", _cmd_extend_triangle,
                "extend a precolored triangle (family without "
                "pairwise adjacent 3-,4-,5-cycles)",
                "plane", "cover", "budget", "precolored")
    p.add_argument("--limit", type=int, default=DEFAULT_EXACT_LIMIT)
    p = command("reduce", _cmd_reduce, "encode list/forest/mixed coloring as cover + budget")
    p.add_argument("--mode", required=True, choices=["list", "forest", "mixed"])
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True,
                   help="cover file whose list lines give the assignment")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out-cover")
    p.add_argument("--out-budget")
    p = command("check-family", _cmd_check_family, "cycle-family membership predicates", "graph")
    p.add_argument("--family", required=True,
                   choices=["noadj34", "family-a", "no-cycle-lengths"])
    p.add_argument("--lengths", help="comma-separated lengths, e.g. 4,6,7,9")
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("gen", help="seeded generators")
    gensub = p.add_subparsers(dest="kind", required=True)

    q = gensub.add_parser("triangulation")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=_cmd_gen)

    q = gensub.add_parser("cover")
    q.add_argument("--graph", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--list-size", type=int, required=True)
    q.add_argument("--density", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=_cmd_gen)

    q = gensub.add_parser("budget")
    q.add_argument("--graph", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--sum-min", type=int, required=True)
    q.add_argument("--cap", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--cover", help="restrict budget support to these lists")
    q.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = Report()
    started = time.perf_counter()
    try:
        args.func(args, report)
    except Exception as exc:  # mapped by _OUTCOMES, with no traceback
        report.status, report.exit_code = next(
            (status, code) for classes, status, code in _OUTCOMES if isinstance(exc, classes))
        report.diagnostics.append(f"{type(exc).__name__}: {exc}")
    return _finish(report, getattr(args, "json", False), started)


if __name__ == "__main__":
    sys.exit(main())
