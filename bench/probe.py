"""Counts and records of the planar solver's private steps, for the tests
and the ladder.

`solve_planar_dpg52` runs its construction in private steps, and the
package reports nothing about them.  This module is the one place outside
the package that names them.  A `Probe` wraps only the steps its caller
watches, under the names `dpfcolor.solvers` looks them up by, and puts
them back when its `with` block ends.  So a change to a step's arity or
contract edits this module, and the tests and the ladder read the same
counts as before.

    with Probe("pairs", "splits", graph=pg.graph) as probe:
        solve_planar_dpg52(pg, h, f)
    probe.counts["pair_vertices"], probe.counts["split_rows"]

Each watch wraps one step and adds these to `counts`:

    frames        solvers._step: frames.  Each frame gets a `Frame`
                  record in `frames`; the running ones are in `stack`.
    splits        solvers._split: split_rows, the rows of the pieces'
                  adjacency dicts that a split builds rather than takes
                  over from the dicts it is handed.  Both pieces' sizes go
                  to `pieces`.
    drops         solvers._drop: fan_pivots.  An ear, an end of the outer
                  walk deleted when a chord cuts off the bare triangle
                  there as piece 1, has the size of the piece 2 it leaves
                  go to `pieces`.
    cuts          solvers._cut_run: cut_vertices.
    scans         solvers._chord_from: scan_positions, the outer
                  positions the chord scans visit.
    fans          solvers._fan_colors: fan_steps.
    reinsertions  solvers._reinsertion_valid: reinsertions.
    pairs         solvers.induced_pair_graph: final_checks, the builds
                  on `graph`, the input graph the probe is given, which
                  `solve_planar_dpg52` makes to check its result, and
                  pair_vertices, the vertices of every other build.
                  Those builds' sizes go to `pair_sizes`.
    orders        solvers.eliminate_with_prefix: orders, the re-orderings
                  of a piece 2.
    budgets       Budget._trusted: budget_rows.

A count made while a frame runs is added to that frame's `counts` too.
Each split, drop, cut, scan, fan step, reinsertion check and re-ordering
also adds a record to `events`, in the order they happen (see `Probe`).

With `tables=True` the probe also keeps copies of the tables the steps
read and edit, for desk-scale solves only.  An event holds them as they
were before and after its step.
`builds` holds the graph of every pair graph built, and
`dpfcolor.coloring`'s `induced_pair_graph` is wrapped too, so no build
is missed whichever helper makes it.

Enter a probe before patching a step it wraps, and undo the patch before
the probe exits.  The probe raises if a step it wrapped was left patched
over.

Direct patches.  Some tests still patch a step themselves: they inject a
fault, or inspect each call's arguments while it is made.  The seam
register in `tests/test_bench_hooks.py` allows only the patches of
`dpfcolor.solvers`, `planar`, `coloring` and `degeneracy` that
`DIRECT_PATCHES` names, by file, function and name, each with its reason.
"""

from __future__ import annotations

import copy
from collections import Counter
from functools import partial
from types import SimpleNamespace

from dpfcolor import coloring, solvers
from dpfcolor.covers import Budget
from dpfcolor.graphs import SimpleGraph
from dpfcolor.planar import PlaneGraph

WATCHES = {"frames": (solvers, "_step"), "splits": (solvers, "_split"),
           "drops": (solvers, "_drop"), "cuts": (solvers, "_cut_run"),
           "scans": (solvers, "_chord_from"), "fans": (solvers, "_fan_colors"),
           "reinsertions": (solvers, "_reinsertion_valid"),
           "pairs": (solvers, "induced_pair_graph"), "orders": (solvers, "eliminate_with_prefix"),
           "budgets": (Budget, "_trusted")}


_SOLVERS, _RELEASE = "tests/test_solvers.py", "test_split_frames_release_what_they_no_longer_read"
# (file, function, module.name) of each patch made outside this module: its reason
DIRECT_PATCHES = {
    (_SOLVERS, "TestSolveExact.test_probes_only_uncolored_slots_wholly_at_zero_residual",
     "solvers._orderable_with"): "inspection of each orderability test of the exact search",
    (_SOLVERS, "TestExtendTriangle.record_verifications", "coloring.verify_on_domain"):
        "inspection of the precolorings verified, in call order",
    (_SOLVERS, "test_corrupted_step_order_is_caught_at_the_step", "solvers.eliminate_with_prefix"):
        "a fault: two pairs swapped in one re-ordered piece 2",
    **{(_SOLVERS, _RELEASE, name): "inspection by weak references to every graph built"
       for name in ("planar.SimpleGraph", "solvers.SimpleGraph", "planar._OwnedGraph",
                    "solvers._OwnedGraph")},
    (_SOLVERS, "_solve_with_unlowered_budget", "solvers._fan_budget"):
        "a fault: one budget entry of a fan step left unlowered",
    (_SOLVERS, "TestLocalSplitCheck.test_split_without_a_prefix_first_order_is_caught",
     "solvers.eliminate_with_prefix"): "a fault: the second re-ordering finds no order",
    (_SOLVERS,
     "TestLocalSplitCheck.test_piece_coloring_that_moves_a_chord_end_is_an_internal_fault",
     "solvers._step"): "a fault: a piece 2 returns a chord end in another color",
    (_SOLVERS, "TestLocalSplitCheck.test_invalid_final_order_is_caught", "solvers._extend"):
        "a fault: two pairs of the construction's order swapped",
    (_SOLVERS, "TestOrdersOnDemand.test_fault_in_a_subtree_without_an_order_is_caught",
     "solvers._step"): "a fault: a frame returns a color that the budget forbids",
    (_SOLVERS, "_solve_recording_answers", "solvers._step"):
        "inspection and a changed rule, which `TestWatchedOrders` reads as it was written",
    (_SOLVERS, "_solve_recording_answers", "solvers.eliminate_with_prefix"):
        "inspection of the re-orderings made for watched pairs",
    **{(_SOLVERS, "test_a_valid_solve_traces_faces_once_and_runs_no_lowpoint_dfs", name):
       "inspection: the face traces and lowpoint DFS runs of each solve"
       for name in ("planar.trace_faces", "planar.is_two_connected")},
    ("tests/test_coloring.py",
     "TestSingleUnionCheck.test_success_path_builds_no_subgraph_or_residual",
     "coloring._residuals"): "a fault: the residual budget raises if the success path builds one",
    ("tests/conftest.py", "fail_last_greedy_placement.arm", "coloring._greedy_color"):
        "inspection, then a fault: the last greedy placement fails",
}


def _copy_budget(f: Budget) -> Budget:
    """A copy of f on a fresh table of its rows, made without `Budget._trusted`."""
    f = copy.copy(f)
    f._rows = dict(f._rows)
    return f


def _copy(adj: dict, rotation: dict, outer=()) -> PlaneGraph:
    """A plane graph on fresh dicts that share the rows of adj and rotation."""
    return PlaneGraph._trusted(SimpleGraph._trusted(tuple(adj), dict(adj)), dict(rotation),
                               tuple(outer))


class Frame(SimpleNamespace):
    """One frame of `_extend`'s work stack.  Its `parent` is the frame that
    yielded it, and h, f, pre and want are what it was handed.  `piece2`
    tells a split's or an ear's piece 2 if splits and drops are watched.
    `split` is its chord split, an event of kind "split" or "ear", if splits
    or drops are watched.  `children` are the frames it yielded, `counts`
    the counts made while it ran, and `result` what it returned (None if it
    raised).  Two frames are equal only if they are the same frame."""

    __eq__, __hash__ = object.__eq__, object.__hash__


class Probe:
    """Watch the named steps (keys of WATCHES) of every solve made in a
    `with` block.  `graph` is the input graph of the solves, if the caller
    gives it: a pair graph built on it is the final check (see `pairs`).

    `frames` holds a `Frame` per frame, in the order they start.  `events`
    holds a record per step seen, in order.  Each has `kind` and `frame`,
    the Frame it ran in if frames are watched.  By kind:

    split        `ends`, the chord ends its pieces share, and `handed`,
                 for each piece whether its adjacency and its rotation
                 dict are the ones the split was handed.
    ear, pivot   a drop of an ear, with its `ends`, or of a fan pivot.
    cut          `at`, the position of the run's hub.
    scan         `start`, `stop` and the `chord` found.
    fan          `pivot`, `p` (the walk's length) and `case21`.
    reinsertion  `pivot` and `verdict`.
    order        a re-ordering of a piece 2.

    With tables, a split, drop or cut also has `before` and `after`,
    copies of the piece before it and of each piece after it, and a scan
    `before`; their `outer` is the walk where the step reads one.  A split
    or a drop has `budget`, a copy of the solve's budget before it (None
    unless frames are watched).  A drop or a cut has `removed`, the
    adjacency row of each vertex it deletes, and a cut or a scan
    `on_outer`, a copy of the set of walk vertices after it.  A fan step
    has `graph` and `budget`, copies of its piece's graph and budget
    before it, its precolored pair `pre`, what it returned `out` and
    `names`, copies of the name table before and after it.  A reinsertion
    check has `args`, its arguments, and an order `pairs`, `prefix` and
    `order`, its pair graph, prefix and result.
    """

    def __init__(self, *watches: str, tables: bool = False, graph: SimpleGraph | None = None):
        self.watches, self.tables, self.graph = watches, tables, graph
        self.counts, self.pieces, self.pair_sizes = Counter(), Counter(), Counter()
        self.frames, self.stack, self.events, self.builds, self._undo = [], [], [], [], []

    def __enter__(self) -> Probe:
        for watch in self.watches:
            self._wrap(*WATCHES[watch], getattr(self, "_" + watch))
        if self.tables and "pairs" in self.watches:
            self._wrap(coloring, "induced_pair_graph", self._pairs)
        return self

    def __exit__(self, *exc) -> None:
        stale = [name for owner, name, _, new in self._undo if vars(owner)[name] is not new]
        for owner, name, old, _ in reversed(self._undo):
            setattr(owner, name, old)
        if stale:
            raise RuntimeError(f"patched over the probe and left so: {stale}")

    def _wrap(self, owner, name: str, method) -> None:
        """Put `method`, with the step it wraps as its first argument, in
        the step's place."""
        old = vars(owner)[name]
        new = (classmethod(partial(method, old.__func__)) if isinstance(old, classmethod)
               else partial(method, old))
        setattr(owner, name, new)
        self._undo.append((owner, name, old, new))

    def _count(self, key: str, k: int = 1) -> None:
        for counts in (self.counts, *(frame.counts for frame in self.stack[-1:])):
            counts[key] += k

    def _event(self, kind: str, **fields) -> SimpleNamespace:
        frame = self.stack[-1] if self.stack else None
        event = SimpleNamespace(kind=kind, frame=frame, **fields)
        self.events.append(event)
        if frame is not None and kind in ("split", "ear"):
            frame.split = event
        return event

    def _solve_budget(self) -> Budget | None:
        return _copy_budget(self.stack[-1].f) if self.stack else None

    def _frames(self, step, pg, h, f, pre, names, want):
        parent = self.stack[-1] if self.stack else None
        piece2 = parent is not None and (bool(parent.children) or parent.split is None
                                         or parent.split.kind == "ear")
        record = Frame(parent=parent, piece2=piece2, h=h, f=f, pre=pre, want=want, split=None,
                       children=[], counts=Counter(), result=None)
        if parent is not None:
            parent.children.append(record)
        self._count("frames")
        self.frames.append(record)
        self.stack.append(record)
        record.result = yield from step(pg, h, f, pre, names, want)
        self.stack.pop()
        return record.result

    def _splits(self, split, pg, chord):
        adj, rotation = pg.graph.adj, pg.rotation
        if self.tables:
            before, budget = _copy(adj, rotation, pg.outer), self._solve_budget()
        ends = pg.outer[chord[0]], pg.outer[chord[1]]
        parts = split(pg, chord)
        handed = tuple((part.graph.adj is adj, part.rotation is rotation) for part in parts)
        sizes = tuple(len(part.graph.adj) for part in parts)
        self._count("split_rows", k=sum(n for n, (own, _) in zip(sizes, handed) if not own))
        self.pieces.update(sizes)
        event = self._event("split", ends=ends, handed=handed)
        if self.tables:
            event.before, event.budget = before, budget
            event.after = tuple(_copy(part.graph.adj, part.rotation, part.outer) for part in parts)
        return parts

    def _drops(self, drop, adj, rotation, x, *rest):
        if self.tables:
            before, budget = _copy(adj, rotation), self._solve_budget()
        row = drop(adj, rotation, x, *rest)
        if len(row) == 2:  # an ear: a fan pivot has inner neighbours besides v1 and v3
            self.pieces[len(adj)] += 1
            event = self._event("ear", ends=tuple(sorted(row)))
        else:
            self._count("fan_pivots")
            event = self._event("pivot")
        if self.tables:
            event.before, event.budget, event.removed = before, budget, {x: row}
            event.after = (_copy(adj, rotation),)
        return row

    def _cuts(self, run, adj, rotation, outer, on_outer, i, cut):
        had = len(cut)
        if self.tables:
            before = _copy(adj, rotation, outer)
        done = run(adj, rotation, outer, on_outer, i, cut)
        self._count("cut_vertices", k=len(cut) - had)
        event = self._event("cut", at=i)
        if self.tables:
            event.before, event.after = before, (_copy(adj, rotation, outer),)
            event.removed = {x: cut[x] for x in list(cut)[had:]}
            event.on_outer = set(on_outer)
        return done

    def _scans(self, scan, adj, outer, on_outer, start, stop=None):
        got = scan(adj, outer, on_outer, start, stop)
        self._count("scan_positions",
                    k=(got[0] + 1 if got else len(outer) if stop is None else stop) - start)
        event = self._event("scan", start=start, stop=stop, chord=got)
        if self.tables:
            event.before, event.on_outer = _copy(adj, {}, outer), set(on_outer)
        return got

    def _fans(self, fan_colors, g, h, f, pre, names, v2, U, v3, p):
        if self.tables:
            graph, budget = SimpleGraph._trusted(tuple(g.adj), dict(g.adj)), _copy_budget(f)
            before = {v: dict(row) for v, row in names.items()}
        out = fan_colors(g, h, f, pre, names, v2, U, v3, p)
        self._count("fan_steps")
        event = self._event("fan", pivot=v2, p=p, case21=out[0])
        if self.tables:
            event.graph, event.budget, event.pre, event.out = graph, budget, pre, out
            event.names = before, {v: dict(row) for v, row in names.items()}
        return out

    def _reinsertions(self, check, adj, h, rows, r, order, v):
        verdict = check(adj, h, rows, r, order, v)
        self._count("reinsertions")
        event = self._event("reinsertion", pivot=v, verdict=verdict)
        if self.tables:
            event.args = adj, h, rows, dict(r), order, v
        return verdict

    def _pairs(self, build, g, *rest):
        if g is self.graph:
            self._count("final_checks")
        else:
            self._count("pair_vertices", k=g.n)
            self.pair_sizes[g.n] += 1
        if self.tables:
            self.builds.append(g)
        return build(g, *rest)

    def _orders(self, eliminate, pairs, prefix):
        order = eliminate(pairs, prefix)
        self._count("orders")
        event = self._event("order")
        if self.tables:
            event.pairs, event.prefix, event.order = pairs, prefix, order
        return order

    def _budgets(self, trusted, cls, s, cap, rows):
        self._count("budget_rows", k=len(rows))
        return trusted(cls, s, cap, rows)
