"""Text formats for graphs, plane graphs, covers, budgets and colorings.

Files are UTF-8.  A line ends at any line break `str.splitlines` knows
(LF, CRLF, CR, form feed, U+2028 and the rest), tokens are split at any
whitespace `str.split` knows, and an integer is any token `int()` accepts,
so `+1`, `1_0` and non-ASCII digits read as numbers.  `#` starts a comment
and blank lines are ignored.  A malformed file raises ParseError naming the
first faulty line; a missing header or outer line is reported at line 1.
Emitters produce canonical ascending order so that parse(emit(x)) == x and
equal objects serialize to identical bytes.

Each parser is one loop over the lines.  A line's integers are converted
inline; only when a conversion fails is the line walked again, by
`_int_error`, to name the token at fault.

Graph, cover and budget files name each vertex and color many times, so
their parsers convert through `_Ints`, a memo made afresh per call that
runs `int()` once per distinct token; a repeated token then costs one
dict lookup, about half an `int()` call.  A token `int()` rejects is never
stored, so `_int_error` still names it.  Coloring files name each vertex
once, where the memo would only add its misses, so `parse_coloring` calls
`int()` directly.

`parse_cover` reads match lines in runs: emitted covers list each edge's
matches together, and a line on the edge of the line before it skips what
depends only on the edge (the `u < v` check, both list lookups, the key
tuple and the matching lookup).  Match lines may come in any order; a line
that starts a run pays those lookups.  Injectivity is one lookup in the
run's inverse matching cv -> cu.  A run on a new edge drops its inverse
when it ends; a run that returns to an edge inverts its matching once and
keeps that inverse for later returns, so no order of the lines makes the
check quadratic.  An inverse holds only ints, so the garbage collector does
not track it, and its size follows the pairs matched; a bitmask of the
used colors would follow the color numbers instead (125 KB per edge for a
color near 10^6).
"""

from __future__ import annotations

import sys

from .covers import Budget, Coloring, Cover, Order
from .errors import ParseError
from .graphs import SimpleGraph
from .planar import PlaneGraph


class _Ints(dict):
    """token -> int(token), converted on the first lookup of each token."""

    __slots__ = ()

    def __missing__(self, tok: str) -> int:
        self[tok] = n = int(tok)
        return n


def _int_error(no: int, toks: list[str], *names: str) -> ParseError:
    """The error for the first of toks[1:] that int() rejects.

    names[k] names toks[k + 1], and the last name names every later token.
    Called only after int() has rejected one of them.
    """
    last = len(names) - 1
    for k, tok in enumerate(toks[1:]):
        try:
            int(tok)
        except ValueError:
            return ParseError(no, f"{names[min(k, last)]} must be an integer, got {tok!r}")
    raise AssertionError(f"line {no} has no malformed integer")


def _read_graph(text: str, plane: bool) -> tuple[SimpleGraph, dict[int, tuple[int, ...]],
                                               tuple[int, ...] | None]:
    """Graph, rotation lines and outer line of a graph or (with `plane`) plane graph file.

    Every edge line is checked here, so the graph is built unchecked; the
    rotations and the outer walk are left to `PlaneGraph`.  A vertex count
    whose tables do not fit in memory is an error of the header line.
    """
    n = None
    adj: dict[int, set[int]] = {}  # rows of vertices with an edge so far
    rotation: dict[int, tuple[int, ...]] = {}
    outer: tuple[int, ...] | None = None
    ints = _Ints()
    for no, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        d = toks[0]
        if d == "edge":
            if n is None:
                raise ParseError(no, "edge before graph header")
            if len(toks) != 3:
                raise ParseError(no, "expected: edge <u> <v>")
            try:
                u = ints[toks[1]]
                v = ints[toks[2]]
            except ValueError:
                raise _int_error(no, toks, "endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"endpoint outside 0..{n - 1}")
            if u == v:
                raise ParseError(no, f"self-loop at {u}")
            row = adj.get(u)
            if row is None:
                adj[u] = {v}
            elif v in row:
                raise ParseError(no, f"duplicate edge ({u},{v})")
            else:
                row.add(v)
            row = adj.get(v)
            if row is None:
                adj[v] = {u}
            else:
                row.add(u)
        elif d == "graph":
            if n is not None:
                raise ParseError(no, "duplicate graph header")
            if len(toks) != 2:
                raise ParseError(no, "expected: graph <n>")
            try:
                n, header = int(toks[1]), no
            except ValueError:
                raise _int_error(no, toks, "vertex count") from None
            if n < 0:
                raise ParseError(no, "vertex count must be nonnegative")
            if n > sys.maxsize:  # range(n) would have no length
                raise ParseError(no, f"vertex count must be at most {sys.maxsize}")
        elif plane and d == "rot":
            if len(toks) < 2:
                raise ParseError(no, "expected: rot <v> <neighbors...>")
            try:
                v = ints[toks[1]]
            except ValueError:
                raise _int_error(no, toks, "vertex") from None
            if v in rotation:
                raise ParseError(no, f"duplicate rotation for {v}")
            try:
                rotation[v] = tuple(map(ints.__getitem__, toks[2:]))
            except ValueError:
                raise _int_error(no, toks, "vertex", "neighbor") from None
        elif plane and d == "outer":
            if outer is not None:
                raise ParseError(no, "duplicate outer line")
            try:
                outer = tuple(map(ints.__getitem__, toks[1:]))
            except ValueError:
                raise _int_error(no, toks, "vertex") from None
        else:
            raise ParseError(no, f"unknown directive {d!r} in graph file")
    if n is None:
        raise ParseError(1, "missing graph header")
    try:
        g = SimpleGraph._trusted(tuple(range(n)), {v: frozenset(adj.get(v, ())) for v in range(n)})
    except MemoryError:  # the tables of n vertices do not fit in memory
        raise ParseError(header, f"vertex count {n} does not fit in memory") from None
    return g, rotation, outer


def _plane(g: SimpleGraph, rotation: dict[int, tuple[int, ...]],
           outer: tuple[int, ...] | None) -> PlaneGraph:
    if outer is None:
        raise ParseError(1, "missing outer line")
    return PlaneGraph(g, rotation, outer)


def parse_graph(text: str) -> SimpleGraph:
    return _read_graph(text, plane=False)[0]


def emit_graph(g: SimpleGraph) -> str:
    if g.vertices != tuple(range(g.n)):
        raise ValueError("only contiguous 0..n-1 graphs can be emitted")
    out = [f"graph {g.n}"]
    out.extend(f"edge {u} {v}" for u, v in g.edge_list())
    return "\n".join(out) + "\n"


def parse_graph_or_plane(text: str) -> SimpleGraph:
    """Underlying simple graph of either a graph file or a plane graph file."""
    g, rotation, outer = _read_graph(text, plane=True)
    if rotation or outer is not None:
        return _plane(g, rotation, outer).graph
    return g


def parse_plane(text: str) -> PlaneGraph:
    return _plane(*_read_graph(text, plane=True))


def emit_plane(pg: PlaneGraph) -> str:
    g = pg.graph
    if g.vertices != tuple(range(g.n)):
        raise ValueError("only contiguous 0..n-1 plane graphs can be emitted")
    out = [f"graph {g.n}"]
    out.extend(f"edge {u} {v}" for u, v in g.edge_list())
    for v in g.vertices:
        if pg.rotation[v]:
            out.append("rot " + " ".join(str(u) for u in (v,) + pg.rotation[v]))
    out.append("outer " + " ".join(str(v) for v in pg.outer))
    return "\n".join(out) + "\n"


def parse_cover(text: str) -> Cover:
    """Cover of a cover file; every line is checked once, here."""
    s = None
    lists: dict[int, frozenset[int]] = {}
    # Per edge (u, v): its matching as a map cu -> cv, the table `Cover` keeps,
    # so it is handed over as it is.
    matchings: dict[tuple[int, int], dict[int, int]] = {}
    # The run: the edge of the last match line, its two lists, its matching
    # and that matching's inverse cv -> cu.  Only a line on another edge
    # looks these up again.  `inverses` keeps the inverse of each edge that
    # a later run has returned to.
    ru = rv = list_u = list_v = pairs = inverse = None
    inverses: dict[tuple[int, int], dict[int, int]] = {}
    ints = _Ints()
    for no, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        d = toks[0]
        if d == "match":
            if s is None:
                raise ParseError(no, "match before cover header")
            if len(toks) != 5:
                raise ParseError(no, "expected: match <u> <v> <cu> <cv>")
            try:
                u = ints[toks[1]]
                v = ints[toks[2]]
                cu = ints[toks[3]]
                cv = ints[toks[4]]
            except ValueError:
                raise _int_error(no, toks, "vertex", "vertex", "color") from None
            if u != ru or v != rv:
                # A new run: check its edge and look up what depends on it.
                # A list never changes once given, so both hold for every
                # later line of the run.
                if u >= v:
                    raise ParseError(no, "match lines need u < v")
                list_u = lists.get(u)
                list_v = lists.get(v)
                if list_u is None or list_v is None:
                    raise ParseError(no, "match before both list lines")
                ru = u
                rv = v
                key = (u, v)
                pairs = matchings.get(key)
                if pairs is None:
                    pairs = matchings[key] = {}
                    inverse = {}
                else:
                    inverse = inverses.get(key)
                    if inverse is None:
                        inverse = inverses[key] = dict(zip(pairs.values(), pairs))
            if cu not in list_u:
                raise ParseError(no, f"color {cu} not in list of {u}")
            if cv not in list_v:
                raise ParseError(no, f"color {cv} not in list of {v}")
            if cu in pairs or cv in inverse:
                raise ParseError(no, f"matching on ({u},{v}) is not a partial bijection")
            pairs[cu] = cv
            inverse[cv] = cu
        elif d == "list":
            if s is None:
                raise ParseError(no, "list before cover header")
            if len(toks) < 2:
                raise ParseError(no, "expected: list <v> <colors...>")
            try:
                v = ints[toks[1]]
            except ValueError:
                raise _int_error(no, toks, "vertex") from None
            if v in lists:
                raise ParseError(no, f"duplicate list for {v}")
            try:
                colors = list(map(ints.__getitem__, toks[2:]))
            except ValueError:
                raise _int_error(no, toks, "vertex", "color") from None
            if colors and (min(colors) < 1 or max(colors) > s):
                raise ParseError(no, f"color outside 1..{s}")
            cs = frozenset(colors)
            if len(cs) != len(colors):
                raise ParseError(no, "repeated color in list")
            lists[v] = cs
        elif d == "cover":
            if s is not None:
                raise ParseError(no, "duplicate cover header")
            if len(toks) != 2:
                raise ParseError(no, "expected: cover <s>")
            try:
                s = int(toks[1])
            except ValueError:
                raise _int_error(no, toks, "color count") from None
            if s < 1:
                raise ParseError(no, "need at least one color")
        else:
            raise ParseError(no, f"unknown directive {d!r} in cover file")
    if s is None:
        raise ParseError(1, "missing cover header")
    return Cover._trusted(s, lists, matchings)


def emit_cover(h: Cover) -> str:
    out = [f"cover {h.s}"]
    for v in sorted(h.lists):
        out.append("list " + " ".join(str(x) for x in (v,) + tuple(sorted(h.lists[v]))))
    for (u, v), pairs in h.matching_items():
        for cu, cv in sorted(pairs):
            out.append(f"match {u} {v} {cu} {cv}")
    return "\n".join(out) + "\n"


def parse_budget(text: str) -> Budget:
    """Budget of a budget file; every line is checked once, here."""
    s = cap = None
    rows: dict[int, dict[int, int]] = {}
    zeros: set[tuple[int, int]] = set()  # keys given as 0, which `rows` omits
    ints = _Ints()
    for no, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        d = toks[0]
        if d == "f":
            if s is None:
                raise ParseError(no, "f line before budget header")
            if len(toks) != 4:
                raise ParseError(no, "expected: f <v> <i> <val>")
            try:
                v = ints[toks[1]]
                i = ints[toks[2]]
                val = ints[toks[3]]
            except ValueError:
                raise _int_error(no, toks, "vertex", "color", "value") from None
            if not 1 <= i <= s:
                raise ParseError(no, f"color outside 1..{s}")
            if not 0 <= val <= cap:
                raise ParseError(no, f"value outside 0..{cap}")
            row = rows.get(v)
            if (row is not None and i in row) or (v, i) in zeros:
                raise ParseError(no, f"duplicate entry for ({v},{i})")
            if not val:
                zeros.add((v, i))
            elif row is None:
                rows[v] = {i: val}
            else:
                row[i] = val
        elif d == "budget":
            if s is not None:
                raise ParseError(no, "duplicate budget header")
            if len(toks) != 3:
                raise ParseError(no, "expected: budget <s> <cap>")
            try:
                s = int(toks[1])
                cap = int(toks[2])
            except ValueError:
                raise _int_error(no, toks, "color count", "cap") from None
            if s < 1 or cap < 0:
                raise ParseError(no, "need s >= 1 and cap >= 0")
        else:
            raise ParseError(no, f"unknown directive {d!r} in budget file")
    if s is None:
        raise ParseError(1, "missing budget header")
    return Budget._trusted(s, cap, rows)


def emit_budget(f: Budget) -> str:
    out = [f"budget {f.s} {f.cap}"]
    out.extend(f"f {v} {i} {val}" for (v, i), val in f.items())
    return "\n".join(out) + "\n"


def parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for no, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        if toks[0] != "color":
            raise ParseError(no, f"unknown directive {toks[0]!r} in coloring file")
        if len(toks) != 3:
            raise ParseError(no, "expected: color <v> <c>")
        try:
            v = int(toks[1])
            c = int(toks[2])
        except ValueError:
            raise _int_error(no, toks, "vertex", "color") from None
        if v in out:
            raise ParseError(no, f"vertex {v} colored twice")
        out[v] = c
    return out


def emit_coloring(r: Coloring) -> str:
    out = [f"color {v} {r[v]}" for v in sorted(r)]
    return "\n".join(out) + ("\n" if out else "")


def emit_order(order: Order) -> str:
    toks = " ".join(f"({v},{c})" for v, c in order)
    return ("order " + toks).rstrip() + "\n"
