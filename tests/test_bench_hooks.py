"""The benchmark's hooks into the library must hold without running it.

`perfbench/tracing.py` patches the functions and methods it lists at the
names their callers look them up under.  A refactor that deletes or
renames one of them would only show when the benchmark runs with
`--trace 1`; this test makes it fail here instead.  Likewise the planar
workloads' outputs must keep the digests `perfbench/notes.json` records.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dpfcolor
from probe import DIRECT_PATCHES  # bench/probe.py, which conftest.py puts on the path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "dpfcolor"


def _load(path: Path):
    """The module at `path`, run from its file rather than imported by name."""
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load(TRACING)
    names = ([(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.COUNTS]
             + list(tracing.DEPTH_ONLY))
    missing = []
    for owner, attr in names:
        mod, _, cls = owner.partition(":")
        obj = importlib.import_module(mod)
        if cls:
            # The tracer patches methods in the class's own namespace.
            obj = getattr(obj, cls, None)
            found = obj is not None and attr in vars(obj)
        else:
            found = hasattr(obj, attr)
        if not found:
            missing.append(f"{owner}.{attr}")
    assert len(names) > 40
    assert missing == []



def _unused_imports(tree: ast.Module, module: str, patched: set[tuple[str, str]]) -> list[str]:
    """The names the module imports that it neither reads, nor lists in
    `__all__`, nor leaves for the tracer to patch under its own name."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [f"{module}.{name}" for name in names
                   if name not in read and name not in exported and (module, name) not in patched]
    return unused


def test_every_import_is_used():
    """No linter runs here, so this is the unused-import check: every name a
    module of the package imports is read there, exported through
    `__all__`, or patched by the tracer under that module's name."""
    tracing = _load(TRACING)
    patched = {(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.COUNTS}
    patched |= set(tracing.DEPTH_ONLY)
    sample = ast.parse("import os\nfrom m import a, b as c\nprint(a)\n")
    assert _unused_imports(sample, "m", set()) == ["m.os", "m.c"]
    assert _unused_imports(sample, "m", {("m", "os"), ("m", "c")}) == []
    unused, modules = [], 0
    for path in sorted(SRC.glob("*.py")):
        module = "dpfcolor" if path.stem == "__init__" else f"dpfcolor.{path.stem}"
        unused += _unused_imports(ast.parse(path.read_text(encoding="utf-8")), module, patched)
        modules += 1
    assert modules > 10
    assert unused == []


SEAM_MODULES = ("solvers", "planar", "coloring", "degeneracy")


def _patches(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, module.name) of each name on a module of SEAM_MODULES
    that the code patches: a `setattr` call or method on the module, by
    object or by dotted string, or an assignment to one of its attributes.
    The function is the innermost enclosing def, with its classes."""
    full = {}  # what each imported name stands for, dotted
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            full.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            full.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)

    def dotted(node) -> str:
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return full.get(node.id, node.id) if isinstance(node, ast.Name) else ""

    def patched(node) -> list[str]:
        if isinstance(node, ast.Call) and len(node.args) > 1 and "setattr" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            target, name = node.args[:2]
            if isinstance(target, ast.Constant):  # setattr("dpfcolor.module.name", value)
                return [str(target.value)]
            return [f"{dotted(target)}.{name.value}"] if isinstance(name, ast.Constant) else []
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        return [dotted(leaf) for t in targets for leaf in getattr(t, "elts", [t])
                if isinstance(leaf, ast.Attribute)]

    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            for name in patched(child):
                package, module, *attr = name.split(".")
                if package == "dpfcolor" and module in SEAM_MODULES and len(attr) == 1:
                    found.append((where, f"{module}.{attr[0]}"))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}".lstrip(".") if named else where)

    visit(tree, "")
    return found


def test_every_seam_patch_is_registered():
    """The seam register: outside `bench/probe.py`, the tests and the
    benches patch a name on `dpfcolor.solvers`, `planar`, `coloring` or
    `degeneracy` only where the probe's `DIRECT_PATCHES` names it, and
    that dict names no patch that is gone.  A work-bound test reads
    the probe's counts instead, so a change to a private step edits the
    probe."""
    sample = ast.parse(
        "import dpfcolor.solvers as s\nfrom dpfcolor import planar\nimport dpfcolor\n"
        "class T:\n    def test(self, monkeypatch):\n"
        "        monkeypatch.setattr(s, '_step', 1)\n"
        "        def inner():\n            planar._split, x = 2, 3\n"
        "        monkeypatch.setattr('dpfcolor.coloring._greedy_color', 4)\n"
        "dpfcolor.degeneracy.eliminate_with_prefix = 5\nsetattr(s, 'x', 6)\n"
        "monkeypatch.setattr(dpfcolor.graphs, 'SimpleGraph', 7)\nother.attr = 8\n")
    assert _patches(sample) == [("T.test", "solvers._step"), ("T.test.inner", "planar._split"),
                                ("T.test", "coloring._greedy_color"),
                                ("", "degeneracy.eliminate_with_prefix"), ("", "solvers.x")]
    found = set()
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]):
        if path.name != "probe.py":
            rel = path.relative_to(ROOT).as_posix()
            found |= {(rel, *patch) for patch in _patches(ast.parse(path.read_text("utf-8")))}
    assert len(found) > 10
    assert sorted(found - DIRECT_PATCHES.keys()) == [], "patches the probe does not name"
    assert sorted(DIRECT_PATCHES.keys() - found) == [], "listed patches that are gone"


@pytest.mark.parametrize("name", ["planar_fan", "planar_chord", "exact_desk", "verify_files"])
def test_planar_workloads_keep_their_seed_1_digests(name, monkeypatch, tmp_path):
    """The golden corpus has no grids, no random triangulated polygons and
    no instances near the exact solver's colorability threshold, but the
    workloads do.  Rebuild the rounds that seed 1's digest covers, run and
    check each instance as `perfbench/run.py` does, and compare the digest
    with the one `perfbench/notes.json` records."""
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # run.py imports perfbench
    importlib.import_module("dpfcolor.cli")  # verify_files finds the CLI in sys.modules
    run = _load(ROOT / "perfbench" / "run.py")
    workload = run.WORKLOADS[name](dpfcolor, 1, str(tmp_path))
    rounds = workload.rounds[:workload.digest_rounds]
    digest = run.Digest(inst.key for rnd in rounds for inst in rnd)
    for inst in (inst for rnd in rounds for inst in rnd):
        err, text = workload.check(inst, workload.op(inst))
        assert err is None, (inst.key, err)
        digest.add(inst.key, text)
    notes = json.loads((ROOT / "perfbench" / "notes.json").read_text(encoding="utf-8"))
    expected = notes["workloads"][name]["digest_seed_1"]
    assert f"sha256 {digest.hexdigest()} over {digest.covered()} instances" == expected


def _ladder(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # ladder.py imports perfbench
    return _load(ROOT / "bench" / "ladder.py")


# The ladder's rungs before its table, one line per op and shape: op,
# shape, then the sizes n in the order they ran.
LADDER_RUNGS = """
solve stacked 500 1000 2000 4000 8000 16000 32000 64000
solve polygon 500 1000 2000 4000 8000 16000 32000 64000
solve fanned 500 1000 2000 4000 8000 16000 32000
solve grid 500 1000 2000 4000 8000 16000 32000
verify stacked 4000 16000 64000
verify_cli stacked 4000 16000 64000
solve_cli stacked 4000 16000 64000
triangulate stacked 4000 16000 64000
triangulate grid 4000 16000 64000
family pendant 4000 16000 64000
family windmill 4000 16000 64000
exact stacked 32 64 128 256
exact_path path 550 1100 2200 4400
gen stacked 4000 16000 64000
"""
LADDER_SERIES = ["stacked", "polygon", "fanned", "grid", "verify", "verify_cli", "solve_cli",
                 "triangulate stacked", "triangulate grid", "noadj34 pendant", "noadj34 windmill",
                 "family-a pendant", "family-a windmill", "exact", "exact_path",
                 "gen-cover stacked", "gen-budget stacked"]


def test_ladder_table_yields_the_same_rungs_and_series(monkeypatch):
    """`RUNGS` declares each rung once; the ladder still runs the 59 rungs
    it ran before the table, in the same order, then op "gen"'s 3, and
    fits the same 15 growth series, in the same order, then op "gen"'s 2."""
    ladder = _ladder(monkeypatch)
    expected = [(op, shape, int(n)) for line in LADDER_RUNGS.split("\n") if line
                for op, shape, *sizes in [line.split()] for n in sizes]
    assert len(expected) == 62
    assert ladder.rungs() == expected
    growth, rss_growth = ladder.fits([])
    assert list(growth) == list(rss_growth) == LADDER_SERIES
    assert set(growth.values()) == {None}


# The first 16 hex digits of the sha256 of each shape's vertices and edge
# list, and a plane graph's rotation and outer walk, as the ladder's own
# code built them before `RUNGS` and `bench/builders.py`.
LADDER_SHAPES = {("fanned", 41): "e22324c500259573", ("fanned", 1000): "602c7d884688f010",
                 ("pendant", 41): "b5cb8ed2b0c477b8", ("pendant", 1000): "7fbc0be01b4e61aa",
                 ("windmill", 41): "3454d0aec6714405", ("windmill", 1000): "5af06885faf6eba0",
                 ("path", 41): "22095a4bdc44b179", ("path", 1000): "138f9e425a405376"}


@pytest.mark.parametrize("shape,n", LADDER_SHAPES)
def test_ladder_builds_the_shapes_it_built_before_its_table(shape, n, monkeypatch):
    """The shapes whose builders moved to `bench/builders.py` or into
    `BUILD` give the graphs the ladder gave them before."""
    built = _ladder(monkeypatch).BUILD[shape](dpfcolor, n, 1)
    parts = (built.rotation, built.outer, built.graph) if shape in ("fanned", "path") else (built,)
    text = repr([(list(p.vertices), p.edge_list()) if hasattr(p, "edge_list") else p
                 for p in parts])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == LADDER_SHAPES[shape, n]


def test_ladder_runs_every_op_and_prints_a_change(monkeypatch, capsys):
    """Every ladder figure comes from `bench/ladder.py`.  Run each op of
    its table on each of that op's shapes at a desk size in this process,
    fit the growth over every rung and up to a largest one, and print the
    change between two results."""
    ladder = _ladder(monkeypatch)
    cases = [ladder.run_case(op.__name__, shape, 40, ladder.SEED)
             for op, by_shape in ladder.RUNGS.items() for shape, _ in by_shape]
    assert len(cases) == 14
    by_key = {(c["op"], c["shape"]): c for c in cases}
    for case in cases:
        assert "error" not in case, case
        assert case["total_ms"] >= 0 and case["scaled_ms"] >= 0 and case["peak_rss_mb"] > 0
        assert ("pair_vertices_per_n" in case) == ("split_rows_per_n" in case) == (
            case["op"] == "solve"), case
        assert ("parts_ms" in case) == (case["op"] in ("family", "gen")), case
        assert ("nodes" in case) == case["op"].startswith("exact"), case
    assert by_key["exact", "stacked"]["nodes"] > 0
    path = by_key["exact_path", "path"]
    assert (path["nodes"], path["backtracks"]) == (60, 0)
    # a stacked triangulation of 40 vertices splits on chords below its root
    stacked = by_key["solve", "stacked"]
    assert 0 < stacked["pair_vertices_per_n"] < 40, stacked
    # ... and builds pieces at those splits
    assert 0 < stacked["split_rows_per_n"] < 40, stacked
    # a 5 x 5 grid with 7 hung triangles, and a windmill of 20 triangles
    families = [by_key["family", "pendant"], by_key["family", "windmill"]]
    assert [c["vertices"] for c in families] == [39, 41]
    assert all(list(c["parts_ms"]) == ["noadj34", "family-a"] for c in families)
    assert list(by_key["gen", "stacked"]["parts_ms"]) == ["gen-cover", "gen-budget"]
    growth, rss_growth = ladder.fits(cases * 2)
    assert list(growth) == list(rss_growth) == LADDER_SERIES
    assert all(growth[name] is not None for name in LADDER_SERIES)
    assert ladder.series("triangulate", "grid") == ["triangulate grid"]
    assert ladder.fits(cases * 2, 40)[0]["stacked"] == growth["stacked"]
    assert ladder.fits(cases * 2, 39)[0]["stacked"] is None
    solved = LADDER_SERIES[:4]
    new = {"label": "new", "commit": "b", "cases": cases, "growth": growth,
           "rss_growth": rss_growth,
           "growth_to_8k": {shape: growth[shape] for shape in solved},
           "rss_growth_to_8k": {shape: rss_growth[shape] for shape in solved}}
    ladder.print_delta(new, new)
    out = capsys.readouterr().out
    assert out.count("of the scaled time") == len(cases), out
    counters = (f"pair graphs {stacked['pair_vertices_per_n']}·n, "
                f"split rows {stacked['split_rows_per_n']}·n")
    assert out.count(f"{counters} -> {counters}") == 1, out  # no other solve shows them
    for case in families:
        parts = ladder.describe_counters(case)
        assert parts.startswith("noadj34 ") and f"{parts} -> {parts}" in out, out
    assert out.count("growth to 8k") == len(solved), out


_LOC_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment on its own line
class Box:
    """Class docstring."""

    size = 3


def area(width,
         height):
    """Function docstring,

    over three lines."""
    text = """a string that is not a docstring
spans two lines"""
    return max(width,
               height,
               len(text))
'''


def _loc():
    return _load(ROOT / "bench" / "loc.py")


def test_loc_counts_code_lines_only(tmp_path, capsys):
    """`bench/loc.py` gives ROADMAP's count: docstrings, comments and blank
    lines do not count; every line of a call or a string spread over
    several lines does."""
    loc = _loc()
    # import, class, size, def (2 lines), text (2 lines), return (3 lines)
    assert loc.code_lines(_LOC_SAMPLE) == 10
    (tmp_path / "a.py").write_text(_LOC_SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["10", "1", "11"]
    assert lines[-1].endswith("total")


def test_planar_and_solvers_stay_under_the_code_line_ceiling():
    """ROADMAP direction 1 caps `planar.py` plus `solvers.py` at 671 code
    lines, as `bench/loc.py` counts them."""
    loc = _loc()
    total = sum(loc.code_lines((SRC / name).read_text(encoding="utf-8"))
                for name in ("planar.py", "solvers.py"))
    assert total <= 671, total


@pytest.mark.parametrize("path,ceiling", [(SRC / "formats.py", 288), (SRC / "cycles.py", 60),
                                          (SRC / "cli.py", 241), (SRC / "covers.py", 190),
                                          (ROOT / "bench" / "ladder.py", 298)],
                         ids=lambda x: x.name if isinstance(x, Path) else None)
def test_module_stays_under_its_code_line_ceiling(path, ceiling):
    """ROADMAP aim 2 holds `formats.py` (one line grammar, one error path
    per parser), `cycles.py` (one closed-path walk, and family checks that
    read each edge's neighbourhoods instead of listing cycles), `cli.py`
    (each command's files declared and read once, one exit-code table),
    `covers.py` (renamed and updated copies built by the validating
    constructors) and `bench/ladder.py` (each rung declared once, in one
    table) at the code lines, as `bench/loc.py` counts them, that they
    reached with those designs."""
    assert _loc().code_lines(path.read_text(encoding="utf-8")) <= ceiling, path
