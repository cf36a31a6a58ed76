"""Hypothesis strategies for texts in the file formats, valid and not.

`directive_texts` draws lines shaped like directives, with arbitrary
arity, tokens and directive names.  `mutated` draws a few edits of a
valid file: lines dropped, repeated or swapped, one token replaced,
comments and blank lines added.  Both break lines with LF, CRLF, CR, form
feed, U+001C, U+2028 and NEL, separate tokens with tabs and no-break spaces as
well as spaces, and spell integers in ways `int()` accepts beyond plain
ASCII digits (`+1`, `1_0`, Arabic-Indic digits).
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from dpfcolor import gen_planar_triangulation, gen_random_budget, gen_random_cover
from dpfcolor.formats import emit_budget, emit_coloring, emit_cover, emit_graph, emit_plane

TOKENS = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from(["+1", "1_0", "\u0661", "\u0663", "00", "x", "2.0", "-", "0x1", "1__0"]),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0"])
BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"])
COMMENTS = st.sampled_from(["", "", " # note", "#", "# edge 0 1", "\t#x"])
BLANKS = st.sampled_from(["", " \t", "# only a comment"])
DIRECTIVES = st.sampled_from(["graph", "edge", "rot", "outer", "cover", "list", "match",
                              "budget", "f", "color", "face", "#edge"])
HEADERS = st.sampled_from(["", "graph 4", "cover 3", "budget 3 2"])


@st.composite
def _directive_line(draw) -> str:
    words = [draw(DIRECTIVES)] + draw(st.lists(TOKENS, max_size=5))
    line = draw(st.sampled_from(["", " ", "\t"])) + words[0]
    for word in words[1:]:
        line += draw(SEPARATORS) + word
    return line + draw(COMMENTS)


def _join(draw, lines: list[str]) -> str:
    ends = [draw(BREAKS) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no break after the last line
    return "".join(map(str.__add__, lines, ends))


@st.composite
def directive_texts(draw) -> str:
    lines = [draw(HEADERS)] + draw(st.lists(st.one_of(_directive_line(), BLANKS), max_size=10))
    return _join(draw, lines)


def instance_texts(seed: int) -> dict[str, str]:
    """The five files of a small seeded instance.  Its coloring takes, in
    vertex order, a list color whose budget exceeds its matched earlier
    neighbours where there is one and a random list color elsewhere, so it
    may or may not verify."""
    rng = random.Random(f"strategies/{seed}")
    pg = gen_planar_triangulation(rng.randint(3, 7), rng.randrange(10**6))
    g = pg.graph
    s = rng.randint(1, 4)
    h = gen_random_cover(g, s, rng.randint(1, s), rng.choice([0.0, 0.5, 1.0]),
                         rng.randrange(10**6))
    f = gen_random_budget(g, s, 1, 2, rng.randrange(10**6), lists=h.lists)
    r = _greedy_coloring(g, h, f, g.vertices, rng)
    return {"graph": emit_graph(g), "plane": emit_plane(pg), "cover": emit_cover(h),
            "budget": emit_budget(f), "coloring": emit_coloring(r)}


def solver_texts(seed: int) -> dict[str, str]:
    """The files of a small seeded instance that meets the planar solvers'
    preconditions: lists of 3 to 5 of 5 colors, budgets of total 5 and cap
    2, and as `precolored` a coloring of the outer triangle that verifies
    on its own."""
    rng = random.Random(f"strategies/solvers/{seed}")
    pg = gen_planar_triangulation(rng.randint(3, 7), rng.randrange(10**6))
    g = pg.graph
    h = gen_random_cover(g, 5, rng.randint(3, 5), rng.choice([0.0, 0.5, 1.0]),
                         rng.randrange(10**6))
    f = gen_random_budget(g, 5, 5, 2, rng.randrange(10**6), lists=h.lists)
    pre = _greedy_coloring(g, h, f, pg.outer, rng)
    return {"graph": emit_graph(g), "plane": emit_plane(pg), "cover": emit_cover(h),
            "budget": emit_budget(f), "precolored": emit_coloring(pre)}


def _greedy_coloring(g, h, f, vertices, rng: random.Random) -> dict[int, int]:
    """Colors `vertices` in turn: a list color whose budget exceeds its
    matched earlier neighbours where there is one, a random list color
    elsewhere."""
    r: dict[int, int] = {}
    for v in vertices:
        colors = sorted(h.lists[v])
        r[v] = next((c for c in colors
                     if sum((c, r[u]) in h.matching(v, u) for u in g.adj[v] if u in r)
                     < f.get(v, c)), rng.choice(colors))
    return r


@st.composite
def mutated(draw, text: str) -> str:
    """A few random edits of `text`, rejoined with random line breaks."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "swap", "token", "comment", "blank"]))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            toks = lines[i].split()
            if toks:
                toks[draw(st.integers(0, len(toks) - 1))] = draw(TOKENS)
                lines[i] = draw(SEPARATORS).join(toks)
        elif kind == "comment":
            lines[i] += draw(COMMENTS)
        else:
            lines.insert(i, draw(BLANKS))
    return _join(draw, lines)


@st.composite
def format_texts(draw, part: str) -> str:
    """A text for file kind `part`: shaped like directives, or a mutated
    instance file."""
    if draw(st.booleans()):
        return draw(directive_texts())
    return draw(mutated(instance_texts(draw(st.integers(0, 50)))[part]))
