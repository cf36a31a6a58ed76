import pytest

from dpfcolor import Budget, Cover, gen_planar_triangulation, gen_random_cover
from dpfcolor.errors import ParseError
from dpfcolor.formats import (
    emit_budget,
    emit_coloring,
    emit_cover,
    emit_graph,
    emit_order,
    emit_plane,
    parse_budget,
    parse_coloring,
    parse_cover,
    parse_graph,
    parse_plane,
)
from dpfcolor.graphs import complete_graph


TRIANGLE = "graph 3\nedge 0 1\nedge 0 2\nedge 1 2\n"


class TestGraph:
    def test_round_trip(self):
        g = parse_graph(TRIANGLE)
        assert emit_graph(g) == TRIANGLE
        assert g == complete_graph(3)

    def test_comments_and_blanks_ignored(self):
        text = "# a triangle\n\ngraph 3\nedge 0 1  # first\nedge 0 2\nedge 1 2\n"
        assert parse_graph(text) == complete_graph(3)

    def test_duplicate_edge_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("graph 3\nedge 0 1\nedge 1 0\n")
        assert exc.value.line == 3

    def test_self_loop_and_range(self):
        with pytest.raises(ParseError):
            parse_graph("graph 3\nedge 1 1\n")
        with pytest.raises(ParseError):
            parse_graph("graph 3\nedge 0 3\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("edge 0 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_graph("graph 2\nvertex 0\n")


class TestPlane:
    def test_round_trip(self):
        pg = gen_planar_triangulation(8, seed=4)
        text = emit_plane(pg)
        back = parse_plane(text)
        assert back.graph == pg.graph
        assert back.rotation == pg.rotation
        assert back.outer == pg.outer
        assert emit_plane(back) == text

    def test_missing_outer(self):
        with pytest.raises(ParseError):
            parse_plane("graph 3\nedge 0 1\nedge 1 2\nedge 0 2\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\n")

    def test_edge_line_arity_checked(self):
        with pytest.raises(ParseError) as exc:
            parse_plane("graph 3\nedge 1\nouter 0 1 2\n")
        assert exc.value.line == 2

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_plane("graph -2\nouter\n")
        assert exc.value.line == 1


class TestCover:
    def test_round_trip(self):
        h = gen_random_cover(complete_graph(4), 4, 3, 0.8, seed=5)
        text = emit_cover(h)
        assert parse_cover(text) == h
        assert emit_cover(parse_cover(text)) == text

    def test_match_color_outside_list_rejected(self):
        text = "cover 2\nlist 0 1\nlist 1 1 2\nmatch 0 1 2 1\n"
        with pytest.raises(ParseError) as exc:
            parse_cover(text)
        assert exc.value.line == 4

    def test_match_requires_u_less_than_v(self):
        with pytest.raises(ParseError):
            parse_cover("cover 1\nlist 0 1\nlist 1 1\nmatch 1 0 1 1\n")

    def test_bare_list_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_cover("cover 3\nlist\n")
        assert exc.value.line == 2

    def test_partial_bijection_enforced(self):
        with pytest.raises(ParseError):
            parse_cover("cover 2\nlist 0 1 2\nlist 1 1 2\n"
                        "match 0 1 1 1\nmatch 0 1 1 2\n")


class TestBudget:
    def test_round_trip_and_sparsity(self):
        f = Budget(3, 2, {(0, 1): 2, (5, 3): 1})
        text = emit_budget(f)
        assert text == "budget 3 2\nf 0 1 2\nf 5 3 1\n"
        assert parse_budget(text) == f

    def test_zero_entries_are_omitted(self):
        f = parse_budget("budget 2 2\nf 0 1 0\nf 0 2 2\n")
        assert f.items() == [((0, 2), 2)]

    def test_value_above_cap_rejected(self):
        with pytest.raises(ParseError):
            parse_budget("budget 2 1\nf 0 1 2\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse_budget("budget 2 2\nf 0 1 1\nf 0 1 1\n")


class TestColoringAndOrder:
    def test_round_trip(self):
        r = {3: 1, 0: 2}
        text = emit_coloring(r)
        assert text == "color 0 2\ncolor 3 1\n"
        assert parse_coloring(text) == r

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ParseError):
            parse_coloring("color 0 1\ncolor 0 2\n")

    def test_order_line(self):
        assert emit_order(((0, 1), (2, 3))) == "order (0,1) (2,3)\n"
        assert emit_order(()) == "order\n"
