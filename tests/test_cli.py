import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfcolor.cli import main
from dpfcolor.formats import emit_budget, emit_coloring, emit_cover, emit_graph, emit_plane
from dpfcolor import (
    Budget,
    SimpleGraph,
    budget_list,
    complete_graph,
    gen_planar_triangulation,
    identity_cover,
)

from strategies import directive_texts, instance_texts, mutated, solver_texts


@pytest.fixture()
def k4_files(tmp_path):
    pg = gen_planar_triangulation(4, seed=0)
    g = pg.graph
    lists = {v: {1, 2, 3, 4, 5} for v in g.vertices}
    h = identity_cover(g, lists)
    f = budget_list(lists)
    paths = {}
    for name, text in [
        ("plane", emit_plane(pg)),
        ("graph", emit_graph(g)),
        ("cover", emit_cover(h)),
        ("budget", emit_budget(f)),
        ("coloring", emit_coloring({0: 1, 1: 2, 2: 3, 3: 4})),
        ("badcol", emit_coloring({0: 1, 1: 1, 2: 3, 3: 4})),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_valid_prints_order_and_exits_zero(self, k4_files, capsys):
        code, out, _ = run(capsys, "verify", "--graph", k4_files["graph"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                           "--coloring", k4_files["coloring"])
        assert code == 0
        assert out.startswith("order ")

    def test_invalid_exits_one(self, k4_files, capsys):
        code, out, _ = run(capsys, "verify", "--graph", k4_files["graph"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                           "--coloring", k4_files["badcol"])
        assert code == 1
        assert out.strip() == "invalid"

    def test_json_schema(self, k4_files, capsys):
        code, out, _ = run(capsys, "verify", "--graph", k4_files["graph"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                           "--coloring", k4_files["coloring"], "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "valid"
        assert set(payload["stats"]) == {"nodes", "backtracks", "millis"}
        assert "order" in payload["witness"]
        assert payload["diagnostics"] == []

    def test_parse_error_exits_two(self, tmp_path, k4_files, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("graph 3\nedge 0 1\nedge 0 1\n", encoding="utf-8")
        code, _, err = run(capsys, "verify", "--graph", str(bad),
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                           "--coloring", k4_files["coloring"])
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("command", ["verify", "solve-planar"])
    @pytest.mark.parametrize("tail, message", [
        ("rot 7 1 2\nouter 0 1 2\n", "rotation given at 7, which is not a vertex"),
        ("outer 0 1 9\n", "outer walk names 9, which is not a vertex"),
    ], ids=["rotation-key", "outer-vertex"])
    def test_plane_file_naming_a_missing_vertex_exits_two(self, tmp_path, capsys, command,
                                                          tail, message):
        g = complete_graph(3)
        lists = {v: {1, 2, 3, 4, 5} for v in g.vertices}
        plane = emit_graph(g) + "rot 0 1 2\nrot 1 2 0\nrot 2 0 1\n" + tail
        files = [("graph" if command == "verify" else "plane", plane),
                 ("cover", emit_cover(identity_cover(g, lists))),
                 ("budget", emit_budget(budget_list(lists)))]
        if command == "verify":
            files.append(("coloring", emit_coloring({0: 1, 1: 2, 2: 3})))
        argv = [command, "--json"]
        for name, text in files:
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
            argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [f"InvalidEmbedding: {message}"]

    def test_coloring_of_a_vertex_not_in_the_graph_exits_two(self, tmp_path, capsys):
        g = complete_graph(3)
        lists = {v: {1, 2, 3} for v in g.vertices}
        argv = ["verify", "--json"]
        for name, text in [("graph", emit_graph(g)),
                           ("cover", emit_cover(identity_cover(g, lists))),
                           ("budget", emit_budget(budget_list(lists))),
                           ("coloring", emit_coloring({0: 1, 1: 2, 2: 3, 7: 9}))]:
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
            argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
        code, out, _ = run(capsys, *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["diagnostics"] == ["InvalidInput: vertices [7] are not in the graph"]
        assert "witness" not in payload


@pytest.mark.parametrize("command, code", [
    ("verify", 2), ("solve-exact", 1), ("solve-planar", 2), ("gen-budget", 2)])
def test_vertex_without_a_list_line_has_the_empty_list(k4_files, tmp_path, capsys,
                                                       command, code):
    """A cover file with no list line for vertex 3 reads as one whose
    `list 3` line names no color: ColorNotInList, absent, BadBudget and
    InfeasibleParameters, not an internal error."""
    kept = [line for line in Path(k4_files["cover"]).read_text().splitlines()
            if not (line.startswith("list 3")
                    or (line.startswith("match ") and "3" in line.split()[1:3]))]
    outcomes = []
    for name, lines in [("omitted", kept), ("empty", kept + ["list 3"])]:
        cover = tmp_path / f"{name}.txt"
        cover.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files = ["--cover", str(cover), "--budget", k4_files["budget"]]
        argv = {
            "verify": ["verify", "--graph", k4_files["graph"], *files,
                       "--coloring", k4_files["coloring"]],
            "solve-exact": ["solve-exact", "--graph", k4_files["graph"], *files],
            "solve-planar": ["solve-planar", "--plane", k4_files["plane"], *files],
            "gen-budget": ["gen", "budget", "--graph", k4_files["graph"], "--colors", "5",
                           "--sum-min", "5", "--cap", "2", "--seed", "4",
                           "--cover", str(cover)],
        }[command]
        outcomes.append(run(capsys, *argv))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code, outcomes[0]


STATUS_OF_EXIT = {0: "valid", 1: "invalid", 2: "error"}


@settings(max_examples=120)
@given(seed=st.integers(0, 50), as_json=st.booleans(), data=st.data())
def test_fuzzed_verify_exits_with_a_documented_code(seed, as_json, data):
    """`dpfcolor verify` on a small instance's files, some of them edited a
    little or replaced by directive-shaped text: exit 0, 1 or 2 with the
    matching status, never a traceback and never an internal error."""
    texts = instance_texts(seed)
    parts = {"graph": data.draw(st.sampled_from(["graph", "plane"])),
             "cover": "cover", "budget": "budget", "coloring": "coloring"}
    disturbed = data.draw(st.sets(st.sampled_from(sorted(parts))))
    argv = ["verify"] + (["--json"] if as_json else [])
    with tempfile.TemporaryDirectory() as tmp:
        for flag, part in parts.items():
            text = texts[part]
            if flag in disturbed:
                text = data.draw(st.one_of(mutated(text), directive_texts()))
            path = Path(tmp) / f"{flag}.txt"
            path.write_text(text, encoding="utf-8", newline="")
            argv += [f"--{flag}", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code in STATUS_OF_EXIT, err.getvalue() or out.getvalue()
    if as_json:
        assert json.loads(out.getvalue())["status"] == STATUS_OF_EXIT[code]


# Per command: its file flags with the instance file each reads, and the
# JSON status of each exit code it may give on any input.
FUZZED_COMMANDS = {
    "solve-exact": ({"graph": "graph", "cover": "cover", "budget": "budget"},
                    {0: "found", 1: "absent", 2: "error"}),
    "solve-planar": ({"plane": "plane", "cover": "cover", "budget": "budget"},
                     {0: "found", 2: "error"}),
    "extend-triangle": ({"plane": "plane", "cover": "cover", "budget": "budget",
                         "precolored": "precolored"}, {0: "found", 2: "error"}),
    "reduce": ({"graph": "graph", "lists": "cover"}, {0: "ok", 2: "error"}),
    "check-family": ({"graph": "graph"}, {0: "true", 1: "false", 2: "error"}),
}


def _fuzzed_options(command: str, data) -> tuple[list[str], dict[str, str]]:
    """Options of one fuzzed run, and any file flags they add."""
    if command == "solve-exact" and data.draw(st.booleans()):
        return [], {"precolored": "precolored"}
    if command == "reduce":
        mode = data.draw(st.sampled_from(["list", "forest", "mixed"]))
        options = ["--mode", mode]
        for flag in ("--d", "--k"):
            if mode == "mixed" and data.draw(st.booleans()):
                options += [flag, str(data.draw(st.integers(-1, 4)))]
        return options, {}
    if command == "check-family":
        family = data.draw(st.sampled_from(["noadj34", "family-a", "no-cycle-lengths"]))
        options = ["--family", family]
        lengths = data.draw(st.sampled_from(
            [None, "4,6,7,9", "4,6,8,9", "4,7,8,9", "4,6,9", "4,x,8,9", ""]))
        if lengths is not None:
            options += ["--lengths", lengths]
        return options, {}
    return [], {}


@pytest.mark.parametrize("command", sorted(FUZZED_COMMANDS))
@settings(max_examples=60)
@given(seed=st.integers(0, 50), as_json=st.booleans(), data=st.data())
def test_fuzzed_commands_exit_with_a_documented_code(command, seed, as_json, data):
    """Each other command on a small instance's files, some of them edited
    a little or replaced by directive-shaped text: exit 0, 1 or 2 as the
    command may, with the matching status, never a traceback, never an
    internal error and never a theorem violation."""
    parts, status_of_exit = FUZZED_COMMANDS[command]
    options, more_parts = _fuzzed_options(command, data)
    parts = {**parts, **more_parts}
    if parts.get("graph") == "graph":
        parts["graph"] = data.draw(st.sampled_from(["graph", "plane"]))
    texts = solver_texts(seed)
    disturbed = data.draw(st.sets(st.sampled_from(sorted(parts))))
    argv = [command] + options + (["--json"] if as_json else [])
    with tempfile.TemporaryDirectory() as tmp:
        for flag, part in parts.items():
            text = texts[part]
            if flag in disturbed:
                text = data.draw(st.one_of(mutated(text), directive_texts()))
            path = Path(tmp) / f"{flag}.txt"
            path.write_text(text, encoding="utf-8", newline="")
            argv += [f"--{flag}", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code in status_of_exit, err.getvalue() or out.getvalue()
    if as_json:
        assert json.loads(out.getvalue())["status"] == status_of_exit[code]


class TestSolvers:
    def test_solve_exact_k5_four_colors_absent(self, tmp_path, capsys):
        g = complete_graph(5)
        lists = {v: {1, 2, 3, 4} for v in g.vertices}
        (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "h.txt").write_text(emit_cover(identity_cover(g, lists)), encoding="utf-8")
        (tmp_path / "f.txt").write_text(emit_budget(budget_list(lists)), encoding="utf-8")
        code, out, _ = run(capsys, "solve-exact", "--graph", str(tmp_path / "g.txt"),
                           "--cover", str(tmp_path / "h.txt"),
                           "--budget", str(tmp_path / "f.txt"))
        assert code == 1
        assert out.strip() == "absent"

    def test_solve_exact_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        g = SimpleGraph(1100)
        lists = {v: {1} for v in g.vertices}
        (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "h.txt").write_text(emit_cover(identity_cover(g, lists)), encoding="utf-8")
        (tmp_path / "f.txt").write_text(emit_budget(budget_list(lists)), encoding="utf-8")
        code, out, err = run(capsys, "solve-exact", "--graph", str(tmp_path / "g.txt"),
                             "--cover", str(tmp_path / "h.txt"),
                             "--budget", str(tmp_path / "f.txt"), "--limit", "2000", "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert (payload["stats"]["nodes"], payload["stats"]["backtracks"]) == (1100, 0)

    def test_solve_planar_output_reverifies(self, k4_files, tmp_path, capsys):
        code, out, _ = run(capsys, "solve-planar", "--plane", k4_files["plane"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"])
        assert code == 0
        color_lines = [l for l in out.splitlines() if l.startswith("color")]
        rfile = tmp_path / "r.txt"
        rfile.write_text("\n".join(color_lines) + "\n", encoding="utf-8")
        code2, out2, _ = run(capsys, "verify", "--graph", k4_files["graph"],
                             "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                             "--coloring", str(rfile))
        assert code2 == 0

    def test_solve_planar_bad_budget_exits_two(self, k4_files, tmp_path, capsys):
        weak = tmp_path / "weak.txt"
        weak.write_text("budget 5 2\nf 0 1 2\n", encoding="utf-8")
        code, _, err = run(capsys, "solve-planar", "--plane", k4_files["plane"],
                           "--cover", k4_files["cover"], "--budget", str(weak))
        assert code == 2
        assert "BadBudget" in err

    def test_extend_triangle_found(self, k4_files, tmp_path, capsys):
        pre = tmp_path / "pre.txt"
        pre.write_text("color 0 1\ncolor 1 2\ncolor 2 3\n", encoding="utf-8")
        code, out, _ = run(capsys, "extend-triangle", "--plane", k4_files["plane"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                           "--precolored", str(pre))
        assert code == 0
        assert "color 3" in out


class TestCheckFamilyAndReduce:
    def test_check_family_true_false(self, tmp_path, capsys):
        from dpfcolor import cycle_graph
        (tmp_path / "c5.txt").write_text(emit_graph(cycle_graph(5)), encoding="utf-8")
        (tmp_path / "k4.txt").write_text(emit_graph(complete_graph(4)), encoding="utf-8")
        code, out, _ = run(capsys, "check-family", "--graph", str(tmp_path / "c5.txt"),
                           "--family", "no-cycle-lengths", "--lengths", "4,6,7,9")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "check-family", "--graph", str(tmp_path / "k4.txt"),
                           "--family", "noadj34")
        assert (code, out.strip()) == (1, "false")

    def test_bad_lengths_exit_two(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text(emit_graph(complete_graph(3)), encoding="utf-8")
        code, _, err = run(capsys, "check-family", "--graph", str(tmp_path / "g.txt"),
                           "--family", "no-cycle-lengths", "--lengths", "4,5,6,9")
        assert code == 2
        assert "BadSpec" in err

    def test_reduce_writes_cover_and_budget(self, tmp_path, capsys):
        g = complete_graph(3)
        lists = {v: {1, 2, 3, 4} for v in g.vertices}
        (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "lists.txt").write_text(emit_cover(identity_cover(g, lists)),
                                            encoding="utf-8")
        out_cover = tmp_path / "out_cover.txt"
        out_budget = tmp_path / "out_budget.txt"
        code, _, _ = run(capsys, "reduce", "--mode", "mixed", "--graph",
                         str(tmp_path / "g.txt"), "--lists", str(tmp_path / "lists.txt"),
                         "--d", "4", "--k", "5",
                         "--out-cover", str(out_cover), "--out-budget", str(out_budget))
        assert code == 0
        f = out_budget.read_text(encoding="utf-8")
        assert "f 0 4 2" in f and "f 0 1 1" in f


class TestGen:
    def test_triangulation_deterministic_bytes(self, capsys):
        code1, out1, _ = run(capsys, "gen", "triangulation", "--n", "10", "--seed", "7")
        code2, out2, _ = run(capsys, "gen", "triangulation", "--n", "10", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.count("edge") == 24

    def test_cover_and_budget_deterministic(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text(emit_graph(complete_graph(5)), encoding="utf-8")
        args = ["gen", "cover", "--graph", str(tmp_path / "g.txt"), "--colors", "5",
                "--list-size", "3", "--density", "0.5", "--seed", "3"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        bargs = ["gen", "budget", "--graph", str(tmp_path / "g.txt"), "--colors", "5",
                 "--sum-min", "5", "--cap", "2", "--seed", "4"]
        _, bout1, _ = run(capsys, *bargs)
        _, bout2, _ = run(capsys, *bargs)
        assert bout1 == bout2
        assert bout1.startswith("budget 5 2")

    def test_infeasible_budget_params_exit_two(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text(emit_graph(complete_graph(3)), encoding="utf-8")
        code, _, err = run(capsys, "gen", "budget", "--graph", str(tmp_path / "g.txt"),
                           "--colors", "2", "--sum-min", "5", "--cap", "2", "--seed", "0")
        assert code == 2
        assert "InfeasibleParameters" in err


class TestExitCodeMapping:
    def test_solve_exact_with_precoloring(self, tmp_path, capsys):
        from dpfcolor import cycle_graph
        g = cycle_graph(4)
        lists = {v: {1, 2} for v in g.vertices}
        (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "h.txt").write_text(emit_cover(identity_cover(g, lists)), encoding="utf-8")
        (tmp_path / "f.txt").write_text(emit_budget(budget_list(lists)), encoding="utf-8")
        (tmp_path / "pre.txt").write_text("color 0 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve-exact", "--graph", str(tmp_path / "g.txt"),
                           "--cover", str(tmp_path / "h.txt"),
                           "--budget", str(tmp_path / "f.txt"),
                           "--precolored", str(tmp_path / "pre.txt"))
        assert code == 0
        assert "color 0 2" in out

    def test_solve_exact_output_reverifies(self, tmp_path, capsys):
        from dpfcolor import cycle_graph
        g = cycle_graph(5)
        lists = {v: {1, 2, 3} for v in g.vertices}
        (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "h.txt").write_text(emit_cover(identity_cover(g, lists)), encoding="utf-8")
        (tmp_path / "f.txt").write_text(emit_budget(budget_list(lists)), encoding="utf-8")
        code, out, _ = run(capsys, "solve-exact", "--graph", str(tmp_path / "g.txt"),
                           "--cover", str(tmp_path / "h.txt"),
                           "--budget", str(tmp_path / "f.txt"))
        assert code == 0
        rfile = tmp_path / "r.txt"
        rfile.write_text("\n".join(l for l in out.splitlines() if l.startswith("color")) + "\n",
                         encoding="utf-8")
        code2, _, _ = run(capsys, "verify", "--graph", str(tmp_path / "g.txt"),
                          "--cover", str(tmp_path / "h.txt"),
                          "--budget", str(tmp_path / "f.txt"),
                          "--coloring", str(rfile))
        assert code2 == 0

    def test_theorem_violation_maps_to_exit_three(self, k4_files, tmp_path, capsys,
                                                  monkeypatch):
        import dpfcolor.cli as cli_mod
        from dpfcolor.errors import TheoremViolation

        def boom(*args, **kwargs):
            raise TheoremViolation("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "extend_precolored_triangle", boom)
        pre = tmp_path / "pre.txt"
        pre.write_text("color 0 1\ncolor 1 2\ncolor 2 3\n", encoding="utf-8")
        code, out, err = run(capsys, "extend-triangle", "--plane", k4_files["plane"],
                             "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                             "--precolored", str(pre), "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "theorem-violation"
        assert payload["diagnostics"]

    def test_any_library_input_error_maps_to_exit_two(self, k4_files, capsys, monkeypatch):
        import dpfcolor.cli as cli_mod
        from dpfcolor.errors import NoColorAvailable

        def boom(*args, **kwargs):
            raise NoColorAvailable("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "solve_planar_dpg52", boom)
        code, out, err = run(capsys, "solve-planar", "--plane", k4_files["plane"],
                             "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                             "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["diagnostics"] == ["NoColorAvailable: forced for the exit-code test"]
        assert "Traceback" not in err

    def test_unexpected_exception_maps_to_exit_three(self, k4_files, capsys, monkeypatch):
        import dpfcolor.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "solve_planar_dpg52", boom)
        argv = ["solve-planar", "--plane", k4_files["plane"],
                "--cover", k4_files["cover"], "--budget", k4_files["budget"]]
        code, out, err = run(capsys, *argv, "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "internal-error"
        assert payload["diagnostics"] == ["RuntimeError: forced for the exit-code test"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "RuntimeError: forced for the exit-code test\n"

    @pytest.mark.parametrize("which, text", [
        ("plane", "graph 3\nedge 1\nouter 0 1 2\n"),
        ("plane", "graph -2\nouter 0 1 2\n"),
        ("cover", "cover 3\nlist\n"),
    ], ids=["edge-arity", "negative-n", "bare-list"])
    def test_malformed_files_exit_two(self, k4_files, tmp_path, capsys, which, text):
        files = dict(k4_files)
        files[which] = str(tmp_path / "malformed.txt")
        (tmp_path / "malformed.txt").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "solve-planar", "--plane", files["plane"],
                             "--cover", files["cover"], "--budget", files["budget"])
        assert code == 2
        assert err.startswith("ParseError: line ")

    @pytest.mark.parametrize("command", ["check-family", "solve-planar"])
    def test_oversized_vertex_count_exits_two(self, k4_files, tmp_path, capsys, command):
        """A vertex count past sys.maxsize is a malformed file (exit 2), not
        an internal error (exit 3) from the OverflowError of range(n)."""
        huge = tmp_path / "huge.txt"
        huge.write_text("graph 9999999999999999999\nouter 0 1 2\n", encoding="utf-8")
        argv = {"check-family": ["--graph", str(huge), "--family", "noadj34"],
                "solve-planar": ["--plane", str(huge), "--cover", k4_files["cover"],
                                 "--budget", k4_files["budget"]]}[command]
        code, out, err = run(capsys, command, *argv, "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["diagnostics"] == [
            f"ParseError: line 1: vertex count must be at most {sys.maxsize}"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check-family", "solve-planar"])
    def test_vertex_count_past_memory_exits_two(self, k4_files, tmp_path, command):
        """A vertex count below sys.maxsize whose tables do not fit in memory
        is a malformed file too (exit 2, a ParseError on the header line),
        not an internal error (exit 3) from a MemoryError.  The CLI runs in
        a child process that caps its own address space at 1 GiB."""
        huge = tmp_path / "huge.txt"
        huge.write_text("# far too many vertices\ngraph 1000000000000\nouter 0 1 2\n",
                        encoding="utf-8")
        argv = {"check-family": ["--graph", str(huge), "--family", "noadj34"],
                "solve-planar": ["--plane", str(huge), "--cover", k4_files["cover"],
                                 "--budget", k4_files["budget"]]}[command]
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from dpfcolor.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", child, command, *argv, "--json"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        payload = json.loads(done.stdout)
        assert payload["status"] == "error"
        assert payload["diagnostics"] == [
            "ParseError: line 2: vertex count 1000000000000 does not fit in memory"]
        assert "Traceback" not in done.stderr

    def test_reduce_prints_both_sections_without_out_paths(self, tmp_path, capsys):
        g = complete_graph(3)
        lists = {v: {1, 2} for v in g.vertices}
        (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "lists.txt").write_text(emit_cover(identity_cover(g, lists)),
                                            encoding="utf-8")
        code, out, _ = run(capsys, "reduce", "--mode", "forest", "--graph",
                           str(tmp_path / "g.txt"), "--lists", str(tmp_path / "lists.txt"))
        assert code == 0
        assert "cover 2" in out and "budget 2 2" in out


def test_json_reports_identical_apart_from_millis(tmp_path, capsys):
    from dpfcolor import cycle_graph
    g = cycle_graph(5)
    lists = {v: {1, 2, 3} for v in g.vertices}
    (tmp_path / "g.txt").write_text(emit_graph(g), encoding="utf-8")
    (tmp_path / "h.txt").write_text(emit_cover(identity_cover(g, lists)), encoding="utf-8")
    (tmp_path / "f.txt").write_text(emit_budget(budget_list(lists)), encoding="utf-8")
    args = ["solve-exact", "--graph", str(tmp_path / "g.txt"),
            "--cover", str(tmp_path / "h.txt"), "--budget", str(tmp_path / "f.txt"),
            "--json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1["stats"].pop("millis")
    p2["stats"].pop("millis")
    assert p1 == p2


def test_commands_repeat_alike_in_one_process(k4_files, capsys):
    """The parser is built once per process, so a second pass over the same
    argv lists, a usage error among them, gives the same exit codes and output."""
    commands = [
        ["verify", "--graph", k4_files["graph"], "--cover", k4_files["cover"],
         "--budget", k4_files["budget"], "--coloring", k4_files["coloring"]],
        ["solve-exact", "--graph", k4_files["graph"], "--cover", k4_files["cover"],
         "--budget", k4_files["budget"]],
        ["verify", "--graph", k4_files["graph"]],
        ["gen", "triangulation", "--n", "6", "--seed", "3"],
    ]

    def outcomes():
        seen = []
        for argv in commands:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        return seen

    first = outcomes()
    assert [code for code, _, _ in first] == [0, 0, 2, 0]
    assert "required" in first[2][2]
    assert outcomes() == first


def test_graph_flags_accept_plane_files(tmp_path, capsys):
    from dpfcolor import gen_planar_triangulation
    from dpfcolor.formats import emit_plane
    pg = gen_planar_triangulation(6, seed=2)
    lists = {v: {1, 2, 3, 4, 5} for v in pg.graph.vertices}
    (tmp_path / "pg.txt").write_text(emit_plane(pg), encoding="utf-8")
    (tmp_path / "h.txt").write_text(emit_cover(identity_cover(pg.graph, lists)),
                                    encoding="utf-8")
    (tmp_path / "f.txt").write_text(emit_budget(budget_list(lists)), encoding="utf-8")
    code, out, _ = run(capsys, "solve-planar", "--plane", str(tmp_path / "pg.txt"),
                       "--cover", str(tmp_path / "h.txt"),
                       "--budget", str(tmp_path / "f.txt"))
    assert code == 0
    rfile = tmp_path / "r.txt"
    rfile.write_text("\n".join(l for l in out.splitlines() if l.startswith("color")) + "\n",
                     encoding="utf-8")
    code2, _, _ = run(capsys, "verify", "--graph", str(tmp_path / "pg.txt"),
                      "--cover", str(tmp_path / "h.txt"),
                      "--budget", str(tmp_path / "f.txt"), "--coloring", str(rfile))
    assert code2 == 0
