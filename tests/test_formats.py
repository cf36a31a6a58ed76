import ast
import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfcolor import (
    Budget,
    Cover,
    PlaneGraph,
    SimpleGraph,
    gen_planar_triangulation,
    gen_random_budget,
    gen_random_cover,
)
from dpfcolor import formats
from dpfcolor.errors import InvalidEmbedding, ParseError
from dpfcolor.formats import (
    _LINES,
    _read_graph,
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

from oracles import token_parse_budget, token_parse_coloring, token_parse_cover, token_read_graph
from strategies import format_texts, instance_texts


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

    def test_matches_are_emitted_in_edge_then_color_order(self):
        """Whatever order the matchings and their pairs were given in."""
        h = Cover(3, {0: [1, 2, 3], 1: [1, 2, 3], 2: [1, 2]},
                  {(2, 1): [(2, 3), (1, 1)], (0, 1): [(3, 1), (1, 2)]})
        assert emit_cover(h) == ("cover 3\nlist 0 1 2 3\nlist 1 1 2 3\nlist 2 1 2\n"
                                 "match 0 1 1 2\nmatch 0 1 3 1\nmatch 1 2 1 1\nmatch 1 2 3 2\n")

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

    @pytest.mark.parametrize("resumed", [False, True], ids=["one-run", "resumed-run"])
    def test_repeated_image_on_an_edge_of_many_colors(self, resumed):
        """One edge matched on 19,999 of s = 20,000 colors, then a line that
        repeats an image: at the end of one run, or in a run that resumes
        the edge after another edge.  A check that scans the matching's
        images would be quadratic here (seconds at this size)."""
        s = 20_000
        colors = " ".join(map(str, range(1, s + 1)))
        lines = [f"cover {s}"] + [f"list {v} {colors}" for v in range(3)]
        lines += [f"match 0 1 {c} {c}" for c in range(1, s // 2)]
        if resumed:
            lines.append("match 0 2 1 1")
        lines += [f"match 0 1 {c} {c}" for c in range(s // 2, s)]
        lines.append(f"match 0 1 {s} {1 if resumed else s - 1}")
        with pytest.raises(ParseError) as exc:
            parse_cover("\n".join(lines) + "\n")
        assert exc.value.line == len(lines)
        assert str(exc.value) == f"line {len(lines)}: matching on (0,1) is not a partial bijection"
        assert parse_cover("\n".join(lines[:-1]) + "\n").matching(0, 1) == frozenset(
            (c, c) for c in range(1, s))


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


# Every error branch of the graph/plane, cover and budget parsers, with the
# exact line and message.  The parsers build their results unchecked, so
# these pin that each check still runs, and in which order.
ERRORS = [
    # graph and plane files (the shared line reader)
    (parse_graph, "graph 2\ngraph 2\n", 2, "duplicate graph header"),
    (parse_graph, "graph\n", 1, "expected: graph <n>"),
    (parse_graph, "graph 2 3\n", 1, "expected: graph <n>"),
    (parse_graph, "graph two\n", 1, "vertex count must be an integer, got 'two'"),
    (parse_graph, "graph -1\n", 1, "vertex count must be nonnegative"),
    # A count past sys.maxsize has no range length.
    (parse_graph, "graph 9999999999999999999\n", 1,
     f"vertex count must be at most {sys.maxsize}"),
    (parse_plane, "graph 9999999999999999999\nouter 0 1 2\n", 1,
     f"vertex count must be at most {sys.maxsize}"),
    (parse_graph, "# c\nedge 0 1\ngraph 2\n", 2, "edge before graph header"),
    (parse_graph, "graph 2\nedge 0\n", 2, "expected: edge <u> <v>"),
    (parse_graph, "graph 2\nedge 0 1 1\n", 2, "expected: edge <u> <v>"),
    (parse_graph, "graph 2\nedge a 1\n", 2, "endpoint must be an integer, got 'a'"),
    (parse_graph, "graph 2\nedge 0 b\n", 2, "endpoint must be an integer, got 'b'"),
    (parse_graph, "graph 2\nedge 0 2\n", 2, "endpoint outside 0..1"),
    (parse_graph, "graph 2\nedge -1 1\n", 2, "endpoint outside 0..1"),
    (parse_graph, "graph 2\nedge 1 1\n", 2, "self-loop at 1"),
    (parse_graph, "graph 3\nedge 0 1\nedge 1 0\n", 3, "duplicate edge (1,0)"),
    (parse_graph, "graph 3\nrot 0 1 2\n", 2, "unknown directive 'rot' in graph file"),
    (parse_graph, "\n# only a comment\n", 1, "missing graph header"),
    (parse_plane, "graph 2\nrot\n", 2, "expected: rot <v> <neighbors...>"),
    (parse_plane, "graph 2\nrot x 1\n", 2, "vertex must be an integer, got 'x'"),
    (parse_plane, "graph 2\nrot 0 y\n", 2, "neighbor must be an integer, got 'y'"),
    (parse_plane, "graph 2\nedge 0 1\nrot 0 1\nrot 0 1\n", 4, "duplicate rotation for 0"),
    (parse_plane, "graph 2\nouter 0 1\nouter 0 1\n", 3, "duplicate outer line"),
    (parse_plane, "graph 2\nouter 0 z\n", 2, "vertex must be an integer, got 'z'"),
    (parse_plane, "graph 2\nface 0 1\n", 2, "unknown directive 'face' in graph file"),
    (parse_plane, "graph 2\nedge 0 3\nouter\n", 2, "endpoint outside 0..1"),
    (parse_plane, "graph 2\nedge 0 1\nrot 0 1\nrot 1 0\n", 1, "missing outer line"),
    # cover files
    (parse_cover, "cover 2\ncover 2\n", 2, "duplicate cover header"),
    (parse_cover, "cover\n", 1, "expected: cover <s>"),
    (parse_cover, "cover s\n", 1, "color count must be an integer, got 's'"),
    (parse_cover, "cover 0\n", 1, "need at least one color"),
    (parse_cover, "list 0 1\n", 1, "list before cover header"),
    (parse_cover, "cover 3\nlist\n", 2, "expected: list <v> <colors...>"),
    (parse_cover, "cover 3\nlist v 1\n", 2, "vertex must be an integer, got 'v'"),
    (parse_cover, "cover 3\nlist 0 1\nlist 0 2\n", 3, "duplicate list for 0"),
    (parse_cover, "cover 3\nlist 0 1 c\n", 2, "color must be an integer, got 'c'"),
    (parse_cover, "cover 3\nlist 0 1 4\n", 2, "color outside 1..3"),
    (parse_cover, "cover 3\nlist 0 0 1\n", 2, "color outside 1..3"),
    (parse_cover, "cover 3\nlist 0 4 4\n", 2, "color outside 1..3"),
    (parse_cover, "cover 3\nlist 0 2 1 2\n", 2, "repeated color in list"),
    (parse_cover, "match 0 1 1 1\n", 1, "match before cover header"),
    (parse_cover, "cover 3\nmatch 0 1 1\n", 2, "expected: match <u> <v> <cu> <cv>"),
    (parse_cover, "cover 3\nmatch u 1 1 1\n", 2, "vertex must be an integer, got 'u'"),
    (parse_cover, "cover 3\nmatch 0 v 1 1\n", 2, "vertex must be an integer, got 'v'"),
    (parse_cover, "cover 3\nmatch 0 1 a 1\n", 2, "color must be an integer, got 'a'"),
    (parse_cover, "cover 3\nmatch 0 1 1 b\n", 2, "color must be an integer, got 'b'"),
    (parse_cover, "cover 3\nmatch 1 0 x 1\n", 2, "color must be an integer, got 'x'"),
    (parse_cover, "cover 3\nmatch 1 0 1 1\n", 2, "match lines need u < v"),
    (parse_cover, "cover 3\nmatch 1 1 1 1\n", 2, "match lines need u < v"),
    (parse_cover, "cover 3\nlist 0 1\nmatch 0 1 1 1\n", 3, "match before both list lines"),
    (parse_cover, "cover 3\nlist 0 1\nlist 1 2\nmatch 0 1 2 2\n", 4, "color 2 not in list of 0"),
    (parse_cover, "cover 3\nlist 0 1\nlist 1 2\nmatch 0 1 1 1\n", 4, "color 1 not in list of 1"),
    (parse_cover, "cover 3\nlist 0 1 2\nlist 1 1 2\nmatch 0 1 1 1\nmatch 0 1 1 2\n",
     5, "matching on (0,1) is not a partial bijection"),
    (parse_cover, "cover 3\nlist 0 1 2\nlist 1 1 2\nmatch 0 1 1 2\nmatch 0 1 2 2\n",
     5, "matching on (0,1) is not a partial bijection"),
    (parse_cover, "cover 3\nlist 0 1\nlist 1 1\nmatch 0 1 1 1\nmatch 0 1 1 1\n",
     5, "matching on (0,1) is not a partial bijection"),
    (parse_cover, "cover 3\nfiber 0 1\n", 2, "unknown directive 'fiber' in cover file"),
    (parse_cover, "# nothing\n", 1, "missing cover header"),
    # budget files
    (parse_budget, "budget 2 2\nbudget 2 2\n", 2, "duplicate budget header"),
    (parse_budget, "budget 2\n", 1, "expected: budget <s> <cap>"),
    (parse_budget, "budget s 2\n", 1, "color count must be an integer, got 's'"),
    (parse_budget, "budget 2 c\n", 1, "cap must be an integer, got 'c'"),
    (parse_budget, "budget 0 2\n", 1, "need s >= 1 and cap >= 0"),
    (parse_budget, "budget 2 -1\n", 1, "need s >= 1 and cap >= 0"),
    (parse_budget, "f 0 1 1\n", 1, "f line before budget header"),
    (parse_budget, "budget 2 2\nf 0 1\n", 2, "expected: f <v> <i> <val>"),
    (parse_budget, "budget 2 2\nf v 1 1\n", 2, "vertex must be an integer, got 'v'"),
    (parse_budget, "budget 2 2\nf 0 i 1\n", 2, "color must be an integer, got 'i'"),
    (parse_budget, "budget 2 2\nf 0 1 x\n", 2, "value must be an integer, got 'x'"),
    (parse_budget, "budget 2 2\nf 0 3 1\n", 2, "color outside 1..2"),
    (parse_budget, "budget 2 2\nf 0 0 9\n", 2, "color outside 1..2"),
    (parse_budget, "budget 2 2\nf 0 1 3\n", 2, "value outside 0..2"),
    (parse_budget, "budget 2 2\nf 0 1 -1\n", 2, "value outside 0..2"),
    (parse_budget, "budget 2 2\nf 0 1 1\nf 0 1 2\n", 3, "duplicate entry for (0,1)"),
    (parse_budget, "budget 2 2\ng 0 1 1\n", 2, "unknown directive 'g' in budget file"),
    (parse_budget, "", 1, "missing budget header"),
    (parse_budget, "budget 2 2\nf 0 1 0\nf 0 1 2\n", 3, "duplicate entry for (0,1)"),
]


@pytest.mark.parametrize("parse,text,line,message", ERRORS,
                         ids=[f"{p.__name__}-{k}" for k, (p, *_) in enumerate(ERRORS)])
def test_parse_error_line_and_message(parse, text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


# Plane files that parse but name a vertex the graph lacks: the embedding
# rejects them instead of dropping the line.
TRIANGLE_ROTATIONS = "graph 3\nedge 0 1\nedge 1 2\nedge 0 2\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\n"
EMBEDDING_ERRORS = [
    (TRIANGLE_ROTATIONS + "rot 7 1 2\nouter 0 1 2\n", "rotation given at 7, which is not a vertex"),
    (TRIANGLE_ROTATIONS + "outer 0 1 9\n", "outer walk names 9, which is not a vertex"),
]


@pytest.mark.parametrize("text,message", EMBEDDING_ERRORS, ids=["rotation-key", "outer-vertex"])
def test_plane_file_naming_a_missing_vertex_is_rejected(text, message):
    with pytest.raises(InvalidEmbedding, match=f"^{message}$"):
        parse_plane(text)
    assert parse_plane(TRIANGLE_ROTATIONS + "outer 0 1 2\n").outer == (0, 1, 2)


def _graph_tables(g: SimpleGraph):
    assert type(g.vertices) is tuple and type(g.edges) is frozenset
    assert all(type(ns) is frozenset for ns in g.adj.values())
    return g.vertices, g.edges, g.adj


def _cover_tables(h: Cover):
    assert all(type(cs) is frozenset for cs in h.lists.values())
    assert all(type(ps) is frozenset and ps for _, ps in h.matching_items())
    return h.s, h.lists, h.matching_items()


def _budget_tables(f: Budget, vertices):
    return f.s, f.cap, f.items(), [(f.support(v), f.total(v)) for v in vertices]


def test_parsed_objects_equal_validated_ones():
    """parse(emit(x)) equals, table by table, the object the validating
    constructor builds from the same data."""
    for seed in range(40):
        rng = random.Random(f"formats/{seed}")
        pg = gen_planar_triangulation(rng.randint(3, 40), rng.randrange(10**6))
        g = pg.graph
        s = rng.randint(1, 6)
        cap = rng.randint(1, 3)
        h = gen_random_cover(g, s, rng.randint(1, s), rng.choice([0.0, 0.5, 1.0]),
                             rng.randrange(10**6))
        f = gen_random_budget(g, s, rng.randint(1, cap), cap, rng.randrange(10**6),
                              lists=h.lists)

        graph = SimpleGraph(g.n, g.edge_list())
        assert _graph_tables(parse_graph(emit_graph(g))) == _graph_tables(graph)
        back = parse_plane(emit_plane(pg))
        plane = PlaneGraph(graph, pg.rotation, pg.outer)
        assert _graph_tables(back.graph) == _graph_tables(plane.graph)
        assert (back.rotation, back.outer) == (plane.rotation, plane.outer)

        cover = Cover(s, {v: sorted(cs) for v, cs in h.lists.items()},
                      {e: sorted(ps) for e, ps in h.matching_items()})
        parsed = parse_cover(emit_cover(h))
        assert parsed == cover
        assert _cover_tables(parsed) == _cover_tables(cover)
        for u, v in g.edge_list():
            assert parsed.matching(v, u) == cover.matching(v, u)

        budget = Budget(s, cap, f.items())
        parsed_f = parse_budget(emit_budget(f))
        assert parsed_f == budget
        assert _budget_tables(parsed_f, g.vertices) == _budget_tables(budget, g.vertices)


# -- the one-pass parsers against the per-token ones (tests/oracles.py) ------

def _read_tables(result):
    g, rotation, outer = result
    return _graph_tables(g), list(rotation.items()), outer


def _cover_key_order(h: Cover):
    return _cover_tables(h), list(h.lists), list(h._matchings)


def _budget_rows(f: Budget):
    return f.s, f.cap, [(v, list(row.items())) for v, row in f._rows.items()]


PARSER_PAIRS = {
    "graph": (lambda t: _read_graph(t, False), lambda t: token_read_graph(t, False), _read_tables),
    "plane": (lambda t: _read_graph(t, True), lambda t: token_read_graph(t, True), _read_tables),
    "cover": (parse_cover, token_parse_cover, _cover_key_order),
    "budget": (parse_budget, token_parse_budget, _budget_rows),
    "coloring": (parse_coloring, token_parse_coloring, lambda r: list(r.items())),
}


def _outcome(parse, tables, text):
    try:
        return "parsed", tables(parse(text))
    except ParseError as exc:
        return "error", exc.line, str(exc)


def assert_same_as_token_parsers(text: str) -> None:
    for part, (parse, reference, tables) in PARSER_PAIRS.items():
        assert _outcome(parse, tables, text) == _outcome(reference, tables, text), (part, text)


# Lines with more than one fault: the parser must report the one its checks
# meet first, e.g. a repeated vertex before a bad token after it.
SEVERAL_FAULTS = [
    "cover 3\nlist 0 1\nlist 0 c\n",
    "graph 2\nrot 0 1\nrot 0 y\n",
    "graph 2\nedge 0 1\nrot 0 1\nrot 0\n",
    "cover 3\nlist 0 1\nlist 0\n",
    "cover 3\nmatch 0 1 x\n",
    "cover 3\nlist 0 1\nlist 1 2\nmatch 1 0 x y\n",
    "cover 3\nlist x y\n",
    "cover x y\n",
    "cover 3\ncover x\n",
    "budget 2 2\nf 0 x\n",
    "budget 2 2\nf 0 9 x\n",
    "budget x\n",
    "budget x -1\n",
    "graph x y\n",
    "graph 2\ngraph x\n",
    "graph 2\nedge x\n",
    "graph 2\nedge 5 x\n",
    "graph 2\nrot x y\n",
    "graph 2\nouter 0 x y\n",
    "graph 2\nouter 0\nouter x\n",
    "color 0\n",
    "color x 1 2\n",
    "color 0 1\ncolor 0 x\n",
]
LINE_BREAKS = ["\r\n", "\r", "\x0c", "\x1c", "\u2028"]


@pytest.mark.parametrize("text", [text for _, text, *_ in ERRORS] + SEVERAL_FAULTS)
def test_same_result_or_error_as_token_parsers(text):
    assert_same_as_token_parsers(text)
    for brk in LINE_BREAKS:
        assert_same_as_token_parsers(text.replace("\n", brk))
    spelled = text.replace("\n", " # c\n").replace(" 1", "\t+1").replace(" 0", " \u0660")
    assert_same_as_token_parsers(spelled)


@pytest.mark.parametrize("seed", range(20))
def test_emitted_files_parse_as_with_token_parsers(seed):
    for text in instance_texts(seed).values():
        assert_same_as_token_parsers(text)
        assert_same_as_token_parsers(text.replace("\n", "\r\n").replace(" 1", " 1_0"))


# Cover files whose match lines leave the emitted order: `parse_cover` reads
# match lines in runs of one edge, and a run that ends, resumes or meets a
# fault must read as the token parser reads it.  The last texts spell one
# integer in several ways, which the per-parse integer memo must keep apart
# as tokens and equal as numbers.
LISTS = "cover 4\nlist 0 1 2 3\nlist 1 1 2 3\nlist 2 1 2 3 4\n"
RUN_TEXTS = [
    # an edge resumed after another edge, and image 1 free again on (0,2)
    LISTS + "match 0 1 1 1\nmatch 0 1 2 2\nmatch 0 2 1 1\nmatch 0 1 3 3\n"
            "match 1 2 1 4\nmatch 0 2 2 2\nmatch 1 2 3 3\n",
    # list lines between two match lines of one edge
    "cover 3\nlist 0 1 2\nlist 1 1 2\nmatch 0 1 1 2\nlist 2 3\nlist 3 1\n"
    "match 0 1 2 1\nmatch 0 2 1 3\nmatch 1 3 2 1\n",
    # faults inside a resumed run: a duplicate cu, a duplicate cv, a color
    # outside either list
    LISTS + "match 0 1 1 1\nmatch 0 2 1 1\nmatch 0 1 1 2\n",
    LISTS + "match 0 1 1 1\nmatch 0 2 1 1\nmatch 0 1 2 1\n",
    # the same, with the repeated cv matched on the edge's second run
    LISTS + "match 0 1 1 1\nmatch 0 2 1 1\nmatch 0 1 2 2\nmatch 0 2 2 2\nmatch 0 1 3 2\n",
    LISTS + "match 0 1 1 1\nmatch 0 2 1 4\nmatch 0 1 2 2\nmatch 0 1 4 3\n",
    LISTS + "match 0 1 1 1\nmatch 0 2 1 4\nmatch 0 1 2 2\nmatch 0 1 3 4\n",
    # faults that start a new run after a good one
    LISTS + "match 0 1 1 1\nmatch 1 1 2 2\n",
    LISTS + "match 0 1 1 1\nmatch 0 3 2 2\n",
    LISTS + "match 0 1 1 1\nmatch 0 1 x 2\n",
    LISTS + "match 0 1 1 1\nmatch 0 y 2 2\n",
    # one run that ends where only u or only v changes
    LISTS + "match 0 2 1 1\nmatch 1 2 1 2\nmatch 1 2 2 1\nmatch 0 2 2 2\nmatch 0 1 2 1\n",
    # one integer spelled 1, +1, 01 and ١ (Arabic-Indic one) in one run
    LISTS + "match 0 1 1 2\nmatch 0 +1 2 3\nmatch 0 01 3 1\nmatch 0 ١ 2 2\n",
    LISTS + "match 0 1 1 2\nmatch 0 +1 2 3\nmatch 00 01 3 ١\n",
    LISTS + "match 0 1 1 2\nmatch +0 ١ +2 1\nmatch 0 01 3 +2\n",
    # colors whose numbers dwarf the pairs matched: the injectivity check
    # must cost memory by pairs, not by color number
    "cover 1000000000000000000\nlist 0 1 1000000000000000000\nlist 1 1 1000000000000000000\n"
    "match 0 1 1 1000000000000000000\nmatch 0 1 1000000000000000000 1\n"
    "match 0 1 1000000000000000000 1000000000000000000\n",
    "graph 3\nedge 0 1\nedge +0 02\nedge ١ 2\nedge 01 2\n",
    "budget 2 2\nf 1 1 1\nf +1 2 1\nf 01 ١ 2\n",
]


@pytest.mark.parametrize("text", RUN_TEXTS)
def test_match_runs_parse_as_with_token_parsers(text):
    assert_same_as_token_parsers(text)
    for brk in LINE_BREAKS:
        assert_same_as_token_parsers(text.replace("\n", brk))


@pytest.mark.parametrize("seed", range(20))
def test_shuffled_match_lines_parse_as_with_token_parsers(seed):
    """Emitted covers with their match lines shuffled, as given and with
    one match line repeated at a random later position."""
    rng = random.Random(f"formats/shuffled/{seed}")
    if seed < 10:
        text = instance_texts(seed)["cover"]
    else:
        g = gen_planar_triangulation(rng.randint(10, 60), rng.randrange(10**6)).graph
        text = emit_cover(gen_random_cover(g, 5, rng.randint(2, 5), rng.choice([0.5, 1.0]),
                                           rng.randrange(10**6)))
    lines = text.splitlines()
    head = [line for line in lines if not line.startswith("match")]
    matches = [line for line in lines if line.startswith("match")]
    rng.shuffle(matches)
    texts = ["\n".join(head + matches) + "\n"]
    if matches:
        k = rng.randrange(len(matches))
        again = matches[:]
        again.insert(rng.randint(k + 1, len(matches)), matches[k])
        texts.append("\n".join(head + again) + "\n")
    for shuffled in texts:
        assert_same_as_token_parsers(shuffled)
        for brk in LINE_BREAKS:
            assert_same_as_token_parsers(shuffled.replace("\n", brk))


@settings(max_examples=400)
@given(text=format_texts("plane") | format_texts("cover") | format_texts("budget")
       | format_texts("coloring"))
def test_fuzzed_texts_parse_as_with_token_parsers(text):
    assert_same_as_token_parsers(text)


# -- the line grammar ---------------------------------------------------------

# Each directive's file kind (a key of PARSER_PAIRS) and that kind's header.
KINDS = {"graph": "graph", "edge": "graph", "rot": "plane", "outer": "plane",
         "cover": "cover", "list": "cover", "match": "cover",
         "budget": "budget", "f": "budget", "color": "coloring"}
HEADER_LINES = {"graph": "graph 4\n", "plane": "graph 4\n", "cover": "cover 3\n",
                "budget": "budget 3 2\n", "coloring": ""}


def _grammar_lines(directive):
    """(line, message prefix) for the line one field short, one field long
    (fixed counts only), with a bad first field and with a bad last field."""
    form, count, names = _LINES[directive]
    listed = form.endswith("...>")
    fields = ["1"] * (count - 1) + (["1", "1"] if listed else [])
    lines = []
    if count > 1:
        lines.append((" ".join([directive] + fields[:count - 2]), f"expected: {form}"))
    if not listed:
        lines.append((" ".join([directive] + fields + ["1"]), f"expected: {form}"))
    lines.append((" ".join([directive, "x"] + fields[1:]), f"{names[0]} must be an integer"))
    lines.append((" ".join([directive] + fields[:-1] + ["y"]), f"{names[-1]} must be an integer"))
    return lines


@pytest.mark.parametrize("directive", sorted(_LINES))
def test_every_directive_reports_its_grammar_faults_as_the_token_parsers(directive):
    kind = KINDS[directive]
    parse, reference, tables = PARSER_PAIRS[kind]
    header = "" if directive in ("graph", "cover", "budget") else HEADER_LINES[kind]
    for line, message in _grammar_lines(directive):
        text = header + line + "\n"
        outcome = _outcome(parse, tables, text)
        assert outcome == _outcome(reference, tables, text), text
        assert outcome[:2] == ("error", text.count("\n")), text
        assert outcome[2].startswith(f"line {outcome[1]}: {message}"), (text, outcome)


def test_grammar_table_names_exactly_the_directives_the_parsers_read():
    """The strings the parsers compare a line's first token with are the
    keys of `_LINES`, and each file kind's parser reads its own."""
    compared = set()
    for node in ast.walk(ast.parse(inspect.getsource(formats))):
        if isinstance(node, ast.Compare) and ast.unparse(node.left) in ("d", "toks[0]"):
            compared.update(c.value for c in node.comparators if isinstance(c, ast.Constant))
    assert compared == set(_LINES) == set(KINDS)
    for directive, kind in KINDS.items():
        parse, _, tables = PARSER_PAIRS[kind]
        outcome = _outcome(parse, tables, HEADER_LINES[kind] + directive + " x\n")
        assert "unknown directive" not in outcome[-1], (directive, outcome)


# -- round trips of whatever parses -------------------------------------------

def _plane_tables(pg: PlaneGraph):
    return _graph_tables(pg.graph), pg.rotation, pg.outer


ROUND_TRIPS = {
    "graph": (parse_graph, emit_graph, _graph_tables),
    "plane": (parse_plane, emit_plane, _plane_tables),
    "cover": (parse_cover, emit_cover, _cover_tables),
    "budget": (parse_budget, emit_budget, lambda f: (f.s, f.cap, f.items(), f._rows)),
    "coloring": (parse_coloring, emit_coloring, lambda r: r),
}


@pytest.mark.parametrize("part", sorted(ROUND_TRIPS))
@settings(max_examples=150)
@given(data=st.data())
def test_any_text_fails_to_parse_or_round_trips(part, data):
    """Every text either raises ParseError (or, for a plane graph, the
    embedding's InvalidEmbedding) or parses to x with parse(emit(x)) equal
    to x, table by table."""
    parse, emit, tables = ROUND_TRIPS[part]
    text = data.draw(format_texts(part))
    try:
        x = parse(text)
    except (ParseError, InvalidEmbedding) as exc:
        assert part == "plane" or isinstance(exc, ParseError)
        return
    assert tables(parse(emit(x))) == tables(x)
