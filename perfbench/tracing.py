"""Per-layer tracing by wrapping the library's boundary functions.

Each wrapper is installed at the name its caller looks it up under (for
example `dpfcolor.solvers.split_on_chord`, which is what the planar solver
calls, or `Cover.relabel` on the class) and removed again by `restore`.
A span knows its parent through the tracer's stack, so a layer's self time
is its span's duration minus the durations of the spans it directly
encloses.  Spans are folded into per-key totals as they close, so memory
stays flat however many calls a pass makes.

Only boundary functions are wrapped.  Hot inner helpers such as
`Cover.matched`, `Budget.get` or `SimpleGraph.has_edge` are left alone:
wrapping them would cost more than the work they do.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

# (owner, attribute, key).  The owner is a module name, or "module:Class"
# for a method.  Keys name the layer metric the span or counter feeds.
SPANS = [
    ("dpfcolor", "solve_planar_dpg52", "solvers.planar"),
    ("dpfcolor", "solve_exact", "solvers.exact"),
    ("dpfcolor.solvers", "solve_exact", "solvers.exact"),
    ("dpfcolor", "gen_planar_triangulation", "generators"),
    ("dpfcolor", "gen_random_cover", "generators"),
    ("dpfcolor", "gen_random_budget", "generators"),
    ("dpfcolor.cli", "main", "cli"),
    ("dpfcolor.cli", "parse_graph_or_plane", "formats.parse"),
    ("dpfcolor.cli", "parse_cover", "formats.parse"),
    ("dpfcolor.cli", "parse_budget", "formats.parse"),
    ("dpfcolor.cli", "parse_coloring", "formats.parse"),
    ("dpfcolor.cli", "emit_order", "formats.emit"),
    ("dpfcolor.formats", "emit_plane", "formats.emit"),
    ("dpfcolor.formats", "emit_cover", "formats.emit"),
    ("dpfcolor.formats", "emit_budget", "formats.emit"),
    ("dpfcolor.formats", "emit_coloring", "formats.emit"),
    ("dpfcolor.graphs:SimpleGraph", "induced", "graphs.induced"),
    ("dpfcolor.covers:Cover", "relabel", "covers.relabel"),
    ("dpfcolor.solvers", "is_two_connected", "planar.two_connected"),
    ("dpfcolor.planar", "is_two_connected", "planar.two_connected"),
    ("dpfcolor.solvers", "triangulate_interior", "planar.triangulate"),
    ("dpfcolor.solvers", "faces", "planar.faces"),
    ("dpfcolor.planar", "faces", "planar.faces"),
    ("dpfcolor.solvers", "split_on_chord", "planar.split"),
    ("dpfcolor.solvers", "find_chord", "planar.find_chord"),
    ("dpfcolor.solvers", "delete_vertex", "planar.delete_vertex"),
    ("dpfcolor.solvers", "combine_colorings", "coloring.combine"),
    ("dpfcolor.coloring", "residual_budget", "coloring.residual"),
    ("dpfcolor.coloring", "residual_at", "coloring.residual"),
    ("dpfcolor.solvers", "residual_at", "coloring.residual"),
    ("dpfcolor.solvers", "order_with_prefix", "coloring.order_with_prefix"),
    ("dpfcolor.solvers", "induced_pair_graph", "coloring.induced_pair_graph"),
    ("dpfcolor.coloring", "induced_pair_graph", "coloring.induced_pair_graph"),
    ("dpfcolor.coloring", "strictly_degenerate_order", "degeneracy.kernel"),
    ("dpfcolor.coloring", "eliminate_with_prefix", "degeneracy.kernel"),
    ("dpfcolor.solvers", "strictly_degenerate_order", "degeneracy.kernel"),
    ("dpfcolor.coloring", "order_is_valid", "degeneracy.check"),
    ("dpfcolor.solvers", "order_is_valid", "degeneracy.check"),
]

# Constructors and the BFS are called too often for a span; they only count.
COUNTS = [
    ("dpfcolor.graphs:SimpleGraph", "_build", "graphs.build"),
    ("dpfcolor.graphs:SimpleGraph", "is_connected", "graphs.bfs"),
    ("dpfcolor.covers:Cover", "__init__", "covers.build"),
]

# Recursion steps of the planar solver, where the Python stack is deepest.
DEPTH_PROBES = {"planar.find_chord"}
DEPTH_ONLY = [("dpfcolor.solvers", "greedy_extend")]

# Kernel calls on fewer pairs are dominated by call overhead, not growth.
GROWTH_MIN_PAIRS = 50


def _owner(spec: str):
    mod, _, cls = spec.partition(":")
    obj = sys.modules[mod]
    return getattr(obj, cls) if cls else obj


def _frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    """Installs span and counter wrappers and folds spans into totals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.kernel_samples: list[tuple[int, float]] = []
        self.base_depth = 0
        self.depth_max = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, key in SPANS:
                self._patch(owner, attr, self._span(key))
            for owner, attr, key in COUNTS:
                self._patch(owner, attr, self._count(key))
            for owner, attr in DEPTH_ONLY:
                self._patch(owner, attr, self._depth_probe)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _patch(self, owner: str, attr: str, make) -> None:
        obj = _owner(owner)
        original = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
        self._saved.append((obj, attr, original))
        setattr(obj, attr, make(original))

    # -- wrappers ---------------------------------------------------------

    def _span(self, key: str):
        # The `_on_<key>` method, where there is one, records what the span
        # measures besides time, such as bytes parsed or pairs eliminated.
        hook = getattr(self, "_on_" + key.replace(".", "_"), None)
        probe = key in DEPTH_PROBES
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if key == "solvers.exact" and kwargs.get("stats") is None:
                    kwargs["stats"] = {}
                if key == "solvers.planar":
                    self.base_depth = _frame_depth()
                elif probe and self.base_depth:
                    self.depth_max = max(self.depth_max, _frame_depth() - self.base_depth)
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    children = stack.pop()
                    self.total[key] += dt
                    self.self_time[key] += dt - children
                    self.calls[key] += 1
                    if stack:
                        stack[-1] += dt
                    if key == "solvers.planar":
                        self.base_depth = 0
                if hook is not None:
                    hook(args, kwargs, result, dt)
                return result
            return wrapper
        return make

    def _count(self, key: str):
        calls = self.calls

        def make(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _depth_probe(self, fn):
        def wrapper(*args, **kwargs):
            if self.base_depth:
                self.depth_max = max(self.depth_max, _frame_depth() - self.base_depth)
            return fn(*args, **kwargs)
        return wrapper

    # -- per-span measurements ----------------------------------------------

    def _on_formats_parse(self, args, kwargs, result, dt):
        self.extra["parse_bytes"] += len(args[0].encode())

    def _on_covers_relabel(self, args, kwargs, result, dt):
        cover, perms = args
        self.extra["fibers_rebuilt"] += len(cover.lists)
        self.extra["fibers_renamed"] += sum(
            1 for v, p in perms.items()
            if v in cover.lists and any(p[c] != c for c in cover.lists[v]))

    def _on_planar_triangulate(self, args, kwargs, result, dt):
        self.extra["chords_added"] += result.graph.m - args[0].graph.m

    def _on_coloring_induced_pair_graph(self, args, kwargs, result, dt):
        self.extra["pairs_built"] += result.n

    def _on_degeneracy_kernel(self, args, kwargs, result, dt):
        self.extra["kernel_pairs"] += args[0].n
        self.kernel_samples.append((args[0].n, dt))

    def _on_degeneracy_check(self, args, kwargs, result, dt):
        self.extra["check_pairs"] += args[0].n

    def _on_solvers_exact(self, args, kwargs, result, dt):
        stats = kwargs["stats"]
        self.extra["exact_nodes"] += stats.get("nodes", 0)
        self.extra["exact_backtracks"] += stats.get("backtracks", 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, ops: Tracer, op_vertices: int,
                  untraced_points, overhead: float) -> dict[str, float]:
    """Every per-layer metric from a traced set-up and a traced pass of operations.

    Times are self times in seconds; counts cover the traced pass only,
    except `generators.s` and the set-up share of `formats.emit_s`.
    """
    s, c, x = ops.self_time, ops.calls, ops.extra
    kernel_big = [(n, dt) for n, dt in ops.kernel_samples if n >= GROWTH_MIN_PAIRS]
    return {
        "formats.parse_s": s["formats.parse"],
        "formats.parse_mb_per_s": _ratio(x["parse_bytes"] / 1e6, s["formats.parse"]),
        "formats.emit_s": setup.self_time["formats.emit"] + s["formats.emit"],
        "cli.self_s": s["cli"],
        "graphs.build_calls": c["graphs.build"],
        "graphs.induced_s": s["graphs.induced"],
        "graphs.bfs_calls": c["graphs.bfs"],
        "covers.relabel_s": s["covers.relabel"],
        "covers.relabel_calls": c["covers.relabel"],
        "covers.cover_builds": c["covers.build"],
        "covers.relabel_useful_ratio": _ratio(x["fibers_renamed"], x["fibers_rebuilt"]),
        "planar.two_connected_s": s["planar.two_connected"],
        "planar.two_connected_calls": c["planar.two_connected"],
        "planar.triangulate_s": s["planar.triangulate"],
        "planar.chords_added": x["chords_added"],
        "planar.faces_s": s["planar.faces"],
        "planar.faces_calls": c["planar.faces"],
        "planar.split_s": s["planar.split"],
        "planar.chord_splits": c["planar.split"],
        "planar.find_chord_s": s["planar.find_chord"],
        "planar.delete_vertex_s": s["planar.delete_vertex"],
        "planar.fan_steps": c["planar.delete_vertex"],
        "coloring.combine_s": s["coloring.combine"],
        "coloring.combine_calls": c["coloring.combine"],
        "coloring.residual_s": s["coloring.residual"],
        "coloring.order_with_prefix_s": s["coloring.order_with_prefix"],
        "coloring.induced_pair_graph_s": s["coloring.induced_pair_graph"],
        "coloring.pairs_built": x["pairs_built"],
        "coloring.reverify_pairs_per_vertex": _ratio(x["kernel_pairs"] + x["check_pairs"],
                                                     op_vertices),
        "degeneracy.kernel_s": s["degeneracy.kernel"],
        "degeneracy.kernel_calls": c["degeneracy.kernel"],
        "degeneracy.pairs_eliminated": x["kernel_pairs"],
        "degeneracy.pairs_per_s": _ratio(x["kernel_pairs"], s["degeneracy.kernel"]),
        "degeneracy.check_s": s["degeneracy.check"],
        "degeneracy.growth_exp": slope(kernel_big),
        "solvers.planar_self_s": s["solvers.planar"],
        "solvers.planar_growth_exp": slope(untraced_points),
        "solvers.stack_depth_max": ops.depth_max,
        "solvers.exact_nodes": x["exact_nodes"],
        "solvers.exact_backtracks": x["exact_backtracks"],
        "solvers.exact_nodes_per_s": _ratio(x["exact_nodes"], ops.total["solvers.exact"]),
        "solvers.exact_self_s": s["solvers.exact"],
        "generators.s": setup.self_time["generators"],
        "trace.overhead_ratio": overhead,
    }
