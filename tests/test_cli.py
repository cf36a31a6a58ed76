import json

import pytest

from dpfcolor.cli import main
from dpfcolor.formats import emit_budget, emit_coloring, emit_cover, emit_graph, emit_plane
from dpfcolor import (
    Budget,
    budget_list,
    complete_graph,
    gen_planar_triangulation,
    identity_cover,
)


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
