import argparse
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

from dpfcolor.cli import build_parser, main
from dpfcolor.formats import emit_budget, emit_coloring, emit_cover, emit_graph, emit_plane
from dpfcolor import (
    Cover,
    SimpleGraph,
    budget_list,
    complete_graph,
    gen_planar_triangulation,
    identity_cover,
)

from oracles import windmill
from strategies import directive_texts, instance_texts, mutated, solver_texts


@pytest.fixture()
def k4_files(tmp_path):
    pg = gen_planar_triangulation(4, seed=0)
    g = pg.graph
    lists = {v: {1, 2, 3, 4, 5} for v in g.vertices}
    h = identity_cover(g, lists)
    f = budget_list(lists)
    return {name: write(tmp_path / f"{name}.txt", text) for name, text in [
        ("plane", emit_plane(pg)),
        ("graph", emit_graph(g)),
        ("cover", emit_cover(h)),
        ("budget", emit_budget(f)),
        ("coloring", emit_coloring({0: 1, 1: 2, 2: 3, 3: 4})),
        ("badcol", emit_coloring({0: 1, 1: 1, 2: 3, 3: 4})),
    ]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(path: Path, text: str) -> str:
    """Write `text` to `path`; the path, as an option's value."""
    path.write_text(text, encoding="utf-8")
    return str(path)


def file_options(tmp_path, **texts: str) -> list[str]:
    """Write each text to PART.txt under `tmp_path`; one `--PART PATH`
    option per text, in order."""
    return [arg for part, text in texts.items()
            for arg in (f"--{part}", write(tmp_path / f"{part}.txt", text))]


def identity_files(tmp_path, g, lists) -> list[str]:
    """The `--graph`, `--cover` and `--budget` options of files that hold
    g, its identity cover on `lists` and their list budget."""
    return file_options(tmp_path, graph=emit_graph(g),
                        cover=emit_cover(identity_cover(g, lists)),
                        budget=emit_budget(budget_list(lists)))


def check_family_in_child(path, timeout, family, *argv):
    """Exit code and output of `dpfcolor check-family` on the graph file
    at `path`, run in a child process that must end within `timeout` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "dpfcolor.cli", "check-family",
                           "--graph", str(path), "--family", family, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert done.returncode in (0, 1), done.stderr
    return done.returncode, done.stdout.strip()


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
        bad = write(tmp_path / "bad.txt", "graph 3\nedge 0 1\nedge 0 1\n")
        code, _, err = run(capsys, "verify", "--graph", bad,
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
        texts = {"graph" if command == "verify" else "plane": plane,
                 "cover": emit_cover(identity_cover(g, lists)),
                 "budget": emit_budget(budget_list(lists))}
        if command == "verify":
            texts["coloring"] = emit_coloring({0: 1, 1: 2, 2: 3})
        code, out, _ = run(capsys, command, "--json", *file_options(tmp_path, **texts))
        assert code == 2
        assert json.loads(out)["diagnostics"] == [f"InvalidEmbedding: {message}"]

    def test_coloring_of_a_vertex_not_in_the_graph_exits_two(self, tmp_path, capsys):
        g = complete_graph(3)
        lists = {v: {1, 2, 3} for v in g.vertices}
        code, out, _ = run(capsys, "verify", "--json", *identity_files(tmp_path, g, lists),
                           *file_options(tmp_path,
                                         coloring=emit_coloring({0: 1, 1: 2, 2: 3, 7: 9})))
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
        cover = write(tmp_path / f"{name}.txt", "\n".join(lines) + "\n")
        files = ["--cover", cover, "--budget", k4_files["budget"]]
        argv = {
            "verify": ["verify", "--graph", k4_files["graph"], *files,
                       "--coloring", k4_files["coloring"]],
            "solve-exact": ["solve-exact", "--graph", k4_files["graph"], *files],
            "solve-planar": ["solve-planar", "--plane", k4_files["plane"], *files],
            "gen-budget": ["gen", "budget", "--graph", k4_files["graph"], "--colors", "5",
                           "--sum-min", "5", "--cap", "2", "--seed", "4",
                           "--cover", cover],
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
    _run_fuzzed(["verify"] + (["--json"] if as_json else []), parts, texts, data, STATUS_OF_EXIT)


def _run_fuzzed(argv, parts, texts, data, status_of_exit) -> None:
    """Run `argv` with one `--FLAG PATH` per entry flag: part of `parts`,
    the path naming a file that holds the instance's text of that part,
    or, for a drawn set of flags, a mutated or directive-shaped text.
    Check that the run exits with a code of `status_of_exit`, prints its
    status under `--json`, and never prints a traceback."""
    disturbed = data.draw(st.sets(st.sampled_from(sorted(parts))))
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
    if "--json" in argv:
        assert json.loads(out.getvalue())["status"] == status_of_exit[code]


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
    _run_fuzzed([command] + options + (["--json"] if as_json else []), parts,
                solver_texts(seed), data, status_of_exit)


class TestSolvers:
    def test_solve_exact_k5_four_colors_absent(self, tmp_path, capsys):
        g = complete_graph(5)
        lists = {v: {1, 2, 3, 4} for v in g.vertices}
        code, out, _ = run(capsys, "solve-exact", *identity_files(tmp_path, g, lists))
        assert code == 1
        assert out.strip() == "absent"

    def test_solve_exact_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        g = SimpleGraph(1100)
        lists = {v: {1} for v in g.vertices}
        code, out, err = run(capsys, "solve-exact", *identity_files(tmp_path, g, lists),
                             "--limit", "2000", "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert (payload["stats"]["nodes"], payload["stats"]["backtracks"]) == (1100, 0)

    def test_solve_planar_output_reverifies(self, k4_files, tmp_path, capsys):
        code, out, _ = run(capsys, "solve-planar", "--plane", k4_files["plane"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"])
        assert code == 0
        r = "\n".join(l for l in out.splitlines() if l.startswith("color")) + "\n"
        code2, out2, _ = run(capsys, "verify", "--graph", k4_files["graph"],
                             "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                             "--coloring", write(tmp_path / "r.txt", r))
        assert code2 == 0

    def test_solve_planar_bad_budget_exits_two(self, k4_files, tmp_path, capsys):
        weak = write(tmp_path / "weak.txt", "budget 5 2\nf 0 1 2\n")
        code, _, err = run(capsys, "solve-planar", "--plane", k4_files["plane"],
                           "--cover", k4_files["cover"], "--budget", weak)
        assert code == 2
        assert "BadBudget" in err

    def test_extend_triangle_found(self, k4_files, tmp_path, capsys):
        pre = write(tmp_path / "pre.txt", "color 0 1\ncolor 1 2\ncolor 2 3\n")
        code, out, _ = run(capsys, "extend-triangle", "--plane", k4_files["plane"],
                           "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                           "--precolored", pre)
        assert code == 0
        assert "color 3" in out


class TestCheckFamilyAndReduce:
    def test_check_family_true_false(self, tmp_path, capsys):
        from dpfcolor import cycle_graph
        c5 = write(tmp_path / "c5.txt", emit_graph(cycle_graph(5)))
        k4 = write(tmp_path / "k4.txt", emit_graph(complete_graph(4)))
        code, out, _ = run(capsys, "check-family", "--graph", c5,
                           "--family", "no-cycle-lengths", "--lengths", "4,6,7,9")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "check-family", "--graph", k4,
                           "--family", "noadj34")
        assert (code, out.strip()) == (1, "false")

    def test_no_cycle_lengths_on_a_large_triangulation_stops_at_a_witness(self, tmp_path, capsys):
        """A stacked triangulation of 16,000 vertices has a 4-cycle through
        vertex 0, so the check says false at the first closed walk of a
        forbidden length, well within the child's 60 s.  Listing every
        cycle of length <= 9 before reading one does not finish in that
        time."""
        path = self._large_triangulation(tmp_path, capsys)
        assert check_family_in_child(path, 60, "no-cycle-lengths", "--lengths", "4,6,7,9") == (
            1, "false")

    def test_families_on_a_large_triangulation_stop_at_a_witness(self, tmp_path, capsys):
        """`noadj34` and `family-a` read each edge's neighbourhoods, so on
        the same triangulation each says false well within 10 s.  Listing
        every cycle of length <= 5 and testing every triangle against every
        4-cycle took 21.5 s for `family-a` alone."""
        path = self._large_triangulation(tmp_path, capsys)
        for family in ("noadj34", "family-a"):
            assert check_family_in_child(path, 10, family) == (1, "false"), family

    def test_families_on_a_large_windmill_read_hub_edges_from_their_blades(self, tmp_path):
        """A windmill of 32,000 triangles is in both families.  Each hub
        edge is read from its degree-2 end whether the hub is labelled
        last or first, so each check stays linear and ends within 10 s;
        read from the hub, each of the 64,000 hub edges would scan all of
        the hub's neighbours."""
        t = 32_000
        for hub in (2 * t, 0):
            path = write(tmp_path / f"windmill-{hub}.txt", emit_graph(windmill(t, hub)))
            for family in ("noadj34", "family-a"):
                assert check_family_in_child(path, 10, family) == (0, "true"), (hub, family)

    @staticmethod
    def _large_triangulation(tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "triangulation", "--n", "16000", "--seed", "1")
        assert code == 0
        return write(tmp_path / "tri.txt", out)

    def test_bad_lengths_exit_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "check-family",
                           "--graph", write(tmp_path / "g.txt", emit_graph(complete_graph(3))),
                           "--family", "no-cycle-lengths", "--lengths", "4,5,6,9")
        assert code == 2
        assert "BadSpec" in err

    def test_reduce_writes_cover_and_budget(self, tmp_path, capsys):
        g = complete_graph(3)
        lists = {v: {1, 2, 3, 4} for v in g.vertices}
        out_cover = tmp_path / "out_cover.txt"
        out_budget = tmp_path / "out_budget.txt"
        code, _, _ = run(capsys, "reduce", "--mode", "mixed",
                         *file_options(tmp_path, graph=emit_graph(g),
                                       lists=emit_cover(identity_cover(g, lists))),
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
        graph = write(tmp_path / "g.txt", emit_graph(complete_graph(5)))
        args = ["gen", "cover", "--graph", graph, "--colors", "5",
                "--list-size", "3", "--density", "0.5", "--seed", "3"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        bargs = ["gen", "budget", "--graph", graph, "--colors", "5",
                 "--sum-min", "5", "--cap", "2", "--seed", "4"]
        _, bout1, _ = run(capsys, *bargs)
        _, bout2, _ = run(capsys, *bargs)
        assert bout1 == bout2
        assert bout1.startswith("budget 5 2")

    def test_infeasible_budget_params_exit_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "budget",
                           "--graph", write(tmp_path / "g.txt", emit_graph(complete_graph(3))),
                           "--colors", "2", "--sum-min", "5", "--cap", "2", "--seed", "0")
        assert code == 2
        assert "InfeasibleParameters" in err

    def test_cover_colors_above_colors_exit_two(self, tmp_path, capsys):
        """A cover whose lists reach above `--colors` is an infeasible
        parameter of the budget, reported as such before any draw."""
        g = complete_graph(3)
        cover = Cover(7, {0: {1, 2, 3}, 1: {2, 7}, 2: {4, 5}})
        code, out, err = run(capsys, "gen", "budget", "--graph", write(tmp_path / "g.txt", emit_graph(g)),
                             "--cover", write(tmp_path / "c.txt", emit_cover(cover)),
                             "--colors", "5", "--sum-min", "2", "--cap", "2", "--seed", "0")
        assert code == 2 and not out
        assert "InfeasibleParameters" in err and "list of 1 has colors outside 1..5" in err

    @pytest.mark.parametrize("sum_min, cap, message", [
        ("-1", "2", "need sum_min >= 0, got -1"),
        ("0", "-1", "need cap >= 0, got -1"),
        ("5", "-1", "need cap >= 0, got -1"),
    ])
    def test_negative_budget_params_exit_two(self, tmp_path, capsys, sum_min, cap, message):
        code, out, err = run(capsys, "gen", "budget",
                             "--graph", write(tmp_path / "g.txt", emit_graph(complete_graph(3))),
                             "--colors", "5", "--sum-min", sum_min, "--cap", cap, "--seed", "0")
        assert code == 2 and not out
        assert "InfeasibleParameters" in err and message in err


class TestExitCodeMapping:
    def test_solve_exact_with_precoloring(self, tmp_path, capsys):
        from dpfcolor import cycle_graph
        g = cycle_graph(4)
        lists = {v: {1, 2} for v in g.vertices}
        code, out, _ = run(capsys, "solve-exact", *identity_files(tmp_path, g, lists),
                           "--precolored", write(tmp_path / "pre.txt", "color 0 2\n"))
        assert code == 0
        assert "color 0 2" in out

    def test_solve_exact_output_reverifies(self, tmp_path, capsys):
        from dpfcolor import cycle_graph
        g = cycle_graph(5)
        lists = {v: {1, 2, 3} for v in g.vertices}
        files = identity_files(tmp_path, g, lists)
        code, out, _ = run(capsys, "solve-exact", *files)
        assert code == 0
        r = "\n".join(l for l in out.splitlines() if l.startswith("color")) + "\n"
        code2, _, _ = run(capsys, "verify", *files, "--coloring", write(tmp_path / "r.txt", r))
        assert code2 == 0

    def test_theorem_violation_maps_to_exit_three(self, k4_files, tmp_path, capsys,
                                                  monkeypatch):
        import dpfcolor.cli as cli_mod
        from dpfcolor.errors import TheoremViolation

        def boom(*args, **kwargs):
            raise TheoremViolation("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "extend_precolored_triangle", boom)
        pre = write(tmp_path / "pre.txt", "color 0 1\ncolor 1 2\ncolor 2 3\n")
        code, out, err = run(capsys, "extend-triangle", "--plane", k4_files["plane"],
                             "--cover", k4_files["cover"], "--budget", k4_files["budget"],
                             "--precolored", pre, "--json")
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

    def test_missing_file_exits_two(self, k4_files, tmp_path, capsys):
        """An unreadable file is an input error (exit 2), not a fault of the
        program (exit 3)."""
        missing = str(tmp_path / "missing.txt")
        argv = ["solve-planar", "--plane", k4_files["plane"], "--cover", missing,
                "--budget", k4_files["budget"]]
        diagnostic = f"FileNotFoundError: [Errno 2] No such file or directory: '{missing}'"
        assert run(capsys, *argv) == (2, "", diagnostic + "\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["status"] == "error" and payload["diagnostics"] == [diagnostic]

    @pytest.mark.parametrize("which, text", [
        ("plane", "graph 3\nedge 1\nouter 0 1 2\n"),
        ("plane", "graph -2\nouter 0 1 2\n"),
        ("cover", "cover 3\nlist\n"),
    ], ids=["edge-arity", "negative-n", "bare-list"])
    def test_malformed_files_exit_two(self, k4_files, tmp_path, capsys, which, text):
        files = {**k4_files, which: write(tmp_path / "malformed.txt", text)}
        code, out, err = run(capsys, "solve-planar", "--plane", files["plane"],
                             "--cover", files["cover"], "--budget", files["budget"])
        assert code == 2
        assert err.startswith("ParseError: line ")

    @pytest.mark.parametrize("command", ["check-family", "solve-planar"])
    def test_oversized_vertex_count_exits_two(self, k4_files, tmp_path, capsys, command):
        """A vertex count past sys.maxsize is a malformed file (exit 2), not
        an internal error (exit 3) from the OverflowError of range(n)."""
        huge = write(tmp_path / "huge.txt", "graph 9999999999999999999\nouter 0 1 2\n")
        argv = {"check-family": ["--graph", huge, "--family", "noadj34"],
                "solve-planar": ["--plane", huge, "--cover", k4_files["cover"],
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
        huge = write(tmp_path / "huge.txt",
                     "# far too many vertices\ngraph 1000000000000\nouter 0 1 2\n")
        argv = {"check-family": ["--graph", huge, "--family", "noadj34"],
                "solve-planar": ["--plane", huge, "--cover", k4_files["cover"],
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
        code, out, _ = run(capsys, "reduce", "--mode", "forest",
                           *file_options(tmp_path, graph=emit_graph(g),
                                         lists=emit_cover(identity_cover(g, lists))))
        assert code == 0
        assert "cover 2" in out and "budget 2 2" in out


def test_json_reports_identical_apart_from_millis(tmp_path, capsys):
    from dpfcolor import cycle_graph
    g = cycle_graph(5)
    lists = {v: {1, 2, 3} for v in g.vertices}
    args = ["solve-exact", *identity_files(tmp_path, g, lists), "--json"]
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
    files = file_options(tmp_path, plane=emit_plane(pg),
                         cover=emit_cover(identity_cover(pg.graph, lists)),
                         budget=emit_budget(budget_list(lists)))
    code, out, _ = run(capsys, "solve-planar", *files)
    assert code == 0
    r = "\n".join(l for l in out.splitlines() if l.startswith("color")) + "\n"
    code2, _, _ = run(capsys, "verify", "--graph", *files[1:],
                      "--coloring", write(tmp_path / "r.txt", r))
    assert code2 == 0


_FILE = (True, None, None, None)      # a required file flag
_JSON = ("--json", "json", False, None, False, None)

# Each command's options after -h, in order: (flag, dest, required, type,
# default, choices).  Under `gen`, the key is the kind and there is no --json.
OPTION_TABLE = {
    "verify": [("--graph", "graph", *_FILE), ("--cover", "cover", *_FILE),
               ("--budget", "budget", *_FILE), ("--coloring", "coloring", *_FILE), _JSON],
    "solve-exact": [("--graph", "graph", *_FILE), ("--cover", "cover", *_FILE),
                    ("--budget", "budget", *_FILE),
                    ("--precolored", "precolored", False, None, None, None),
                    ("--limit", "limit", False, int, 12, None), _JSON],
    "solve-planar": [("--plane", "plane", *_FILE), ("--cover", "cover", *_FILE),
                     ("--budget", "budget", *_FILE), _JSON],
    "extend-triangle": [("--plane", "plane", *_FILE), ("--cover", "cover", *_FILE),
                        ("--budget", "budget", *_FILE), ("--precolored", "precolored", *_FILE),
                        ("--limit", "limit", False, int, 12, None), _JSON],
    "reduce": [("--mode", "mode", True, None, None, ["list", "forest", "mixed"]),
               ("--graph", "graph", *_FILE), ("--lists", "lists", *_FILE),
               ("--d", "d", False, int, None, None), ("--k", "k", False, int, None, None),
               ("--out-cover", "out_cover", False, None, None, None),
               ("--out-budget", "out_budget", False, None, None, None), _JSON],
    "check-family": [("--graph", "graph", *_FILE),
                     ("--family", "family", True, None, None,
                      ["noadj34", "family-a", "no-cycle-lengths"]),
                     ("--lengths", "lengths", False, None, None, None), _JSON],
    "gen": {
        "triangulation": [("--n", "n", True, int, None, None),
                          ("--seed", "seed", True, int, None, None)],
        "cover": [("--graph", "graph", *_FILE), ("--colors", "colors", True, int, None, None),
                  ("--list-size", "list_size", True, int, None, None),
                  ("--density", "density", True, float, None, None),
                  ("--seed", "seed", True, int, None, None)],
        "budget": [("--graph", "graph", *_FILE), ("--colors", "colors", True, int, None, None),
                   ("--sum-min", "sum_min", True, int, None, None),
                   ("--cap", "cap", True, int, None, None),
                   ("--seed", "seed", True, int, None, None),
                   ("--cover", "cover", False, None, None, None)],
    },
}


def _subcommands(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser):
    rows = []
    for a in parser._actions:
        if isinstance(a, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        [flag] = a.option_strings
        rows.append((flag, a.dest, a.required, a.type, a.default, a.choices))
    return rows


def test_every_command_keeps_its_options():
    """Commands, `gen` kinds and each one's options keep their order, names,
    types, defaults and choices."""
    commands = _subcommands(build_parser())
    assert list(commands) == list(OPTION_TABLE)
    for name, table in OPTION_TABLE.items():
        if name == "gen":
            kinds = _subcommands(commands[name])
            assert list(kinds) == list(table)
            for kind, rows in table.items():
                assert _options(kinds[kind]) == rows, kind
        else:
            assert _options(commands[name]) == table, name


# One fault per file kind, each with its own message.
MALFORMED = {
    "graph": ("edge 0 1\ngraph 3\n", "edge before graph header"),
    "cover": ("match 0 1 1 1\ncover 3\n", "match before cover header"),
    "budget": ("f 0 1 1\nbudget 3\n", "f line before budget header"),
    "coloring": ("bogus 1\n", "unknown directive 'bogus' in coloring file"),
}
MALFORMED["plane"] = MALFORMED["graph"]


@pytest.mark.parametrize("argv, files", [
    (["verify"], [("--graph", "graph"), ("--cover", "cover"), ("--budget", "budget"),
                  ("--coloring", "coloring")]),
    (["solve-exact"], [("--graph", "graph"), ("--cover", "cover"), ("--budget", "budget"),
                       ("--precolored", "coloring")]),
    (["solve-planar"], [("--plane", "plane"), ("--cover", "cover"), ("--budget", "budget")]),
    (["extend-triangle"], [("--plane", "plane"), ("--cover", "cover"), ("--budget", "budget"),
                           ("--precolored", "coloring")]),
    (["reduce", "--mode", "list"], [("--graph", "graph"), ("--lists", "cover")]),
    (["gen", "budget", "--colors", "5", "--sum-min", "5", "--cap", "2", "--seed", "3"],
     [("--graph", "graph"), ("--cover", "cover")]),
], ids=["verify", "solve-exact", "solve-planar", "extend-triangle", "reduce", "gen-budget"])
def test_files_are_read_in_flag_order(k4_files, tmp_path, capsys, argv, files):
    """With its first i files well formed and the rest malformed, a command
    reports the fault of file i: the files are read in the order of `files`."""
    bad = {part: write(tmp_path / f"bad-{part}.txt", MALFORMED[part][0]) for _, part in files}
    for i, (_, first_bad) in enumerate(files):
        args = list(argv)
        for j, (flag, part) in enumerate(files):
            args += [flag, bad[part] if j >= i else k4_files[part]]
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err == f"ParseError: line 1: {MALFORMED[first_bad][1]}\n", args
