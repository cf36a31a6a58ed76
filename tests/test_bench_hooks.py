"""The benchmark's hooks into the library must hold without running it.

`perfbench/tracing.py` patches the functions and methods it lists at the
names their callers look them up under.  A refactor that deletes or
renames one of them would only show when the benchmark runs with
`--trace 1`; this test makes it fail here instead.  Likewise the planar
workloads' outputs must keep the digests `perfbench/notes.json` records.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dpfcolor

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "dpfcolor"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
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
    tracing = _tracing()
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


@pytest.mark.parametrize("name", ["planar_fan", "planar_chord", "exact_desk", "verify_files"])
def test_planar_workloads_keep_their_seed_1_digests(name, monkeypatch, tmp_path):
    """The golden corpus has no grids, no random triangulated polygons and
    no instances near the exact solver's colorability threshold, but the
    workloads do.  Rebuild the rounds that seed 1's digest covers, run and
    check each instance as `perfbench/run.py` does, and compare the digest
    with the one `perfbench/notes.json` records."""
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # run.py imports perfbench
    importlib.import_module("dpfcolor.cli")  # verify_files finds the CLI in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
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


def test_ladder_runs_every_op_and_prints_a_change(monkeypatch, capsys):
    """Every ladder figure comes from `bench/ladder.py`.  Run each of its ops
    at a tiny size in this process, fit the growth, and print the change
    between two results, with and without the calibrated times."""
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # ladder.py imports perfbench
    spec = importlib.util.spec_from_file_location("bench_ladder", ROOT / "bench" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    sizes = {"solve": ("stacked", 30), "verify": ("stacked", 40),
             "verify_cli": ("stacked", 40), "solve_cli": ("stacked", 40),
             "exact": ("stacked", 16), "exact_path": ("path", 20)}
    assert set(sizes) == set(ladder.OPS)
    cases = [ladder.run_case(op, shape, n, ladder.SEED) for op, (shape, n) in sizes.items()]
    for case in cases:
        assert "error" not in case, case
        assert case["total_ms"] >= 0 and case["scaled_ms"] >= 0 and case["peak_rss_mb"] > 0
    assert cases[-2]["nodes"] > 0
    assert (cases[-1]["nodes"], cases[-1]["backtracks"]) == (30, 0)
    growth, rss_growth = ladder.fits(cases * 2)
    assert set(growth) == set(rss_growth) == {*ladder.SHAPES, *ladder.STACKED_OPS,
                                              "exact", "exact_path"}
    new = {"label": "new", "commit": "b", "cases": cases, "growth": growth,
           "rss_growth": rss_growth}
    old = {"label": "old", "commit": "a", "growth": {},
           "cases": [{k: v for k, v in c.items() if k != "scaled_ms"} for c in cases]}
    ladder.print_delta(new, new)
    ladder.print_delta(old, new)
    out = capsys.readouterr().out
    assert out.count("of the scaled time") == len(cases), out
    assert out.count("of the total time") == len(cases), out


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
    spec = importlib.util.spec_from_file_location("bench_loc", ROOT / "bench" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    return loc


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
    """ROADMAP direction 1 caps `planar.py` plus `solvers.py` at 673 code
    lines, as `bench/loc.py` counts them."""
    loc = _loc()
    total = sum(loc.code_lines((SRC / name).read_text(encoding="utf-8"))
                for name in ("planar.py", "solvers.py"))
    assert total <= 673, total
