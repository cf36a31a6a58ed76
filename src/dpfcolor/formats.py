"""Text formats for graphs, plane graphs, covers, budgets and colorings.

All files are UTF-8 with LF line endings; `#` starts a comment and blank
lines are ignored.  Emitters produce canonical ascending order so that
parse(emit(x)) == x and equal objects serialize to identical bytes.
"""

from __future__ import annotations

from .covers import Budget, Coloring, Cover, Order
from .errors import ParseError
from .graphs import SimpleGraph
from .planar import PlaneGraph


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield no, toks


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"{what} must be an integer, got {tok!r}") from None


def _read_graph(text: str, plane: bool) -> tuple[SimpleGraph, dict[int, tuple[int, ...]],
                                               tuple[int, ...] | None]:
    """Graph, rotation lines and outer line of a graph or (with `plane`) plane graph file.

    Every edge line is checked here, so the graph is built unchecked; the
    rotations are left to `PlaneGraph`.
    """
    n = None
    seen: set[tuple[int, int]] = set()
    rotation: dict[int, tuple[int, ...]] = {}
    outer: tuple[int, ...] | None = None
    for no, toks in _lines(text):
        if toks[0] == "graph":
            if n is not None:
                raise ParseError(no, "duplicate graph header")
            if len(toks) != 2:
                raise ParseError(no, "expected: graph <n>")
            n = _int(toks[1], no, "vertex count")
            if n < 0:
                raise ParseError(no, "vertex count must be nonnegative")
        elif toks[0] == "edge":
            if n is None:
                raise ParseError(no, "edge before graph header")
            if len(toks) != 3:
                raise ParseError(no, "expected: edge <u> <v>")
            u = _int(toks[1], no, "endpoint")
            v = _int(toks[2], no, "endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"endpoint outside 0..{n - 1}")
            if u == v:
                raise ParseError(no, f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParseError(no, f"duplicate edge ({u},{v})")
            seen.add(key)
        elif plane and toks[0] == "rot":
            if len(toks) < 2:
                raise ParseError(no, "expected: rot <v> <neighbors...>")
            v = _int(toks[1], no, "vertex")
            if v in rotation:
                raise ParseError(no, f"duplicate rotation for {v}")
            rotation[v] = tuple(_int(t, no, "neighbor") for t in toks[2:])
        elif plane and toks[0] == "outer":
            if outer is not None:
                raise ParseError(no, "duplicate outer line")
            outer = tuple(_int(t, no, "vertex") for t in toks[1:])
        else:
            raise ParseError(no, f"unknown directive {toks[0]!r} in graph file")
    if n is None:
        raise ParseError(1, "missing graph header")
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in seen:
        adj[u].add(v)
        adj[v].add(u)
    g = SimpleGraph._trusted(tuple(range(n)), frozenset(seen),
                             {v: frozenset(ns) for v, ns in adj.items()})
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
    # Per edge (u, v): its matching as a map cu -> cv, and the colors of v used.
    matchings: dict[tuple[int, int], tuple[dict[int, int], set[int]]] = {}
    for no, toks in _lines(text):
        if toks[0] == "cover":
            if s is not None:
                raise ParseError(no, "duplicate cover header")
            if len(toks) != 2:
                raise ParseError(no, "expected: cover <s>")
            s = _int(toks[1], no, "color count")
            if s < 1:
                raise ParseError(no, "need at least one color")
        elif toks[0] == "list":
            if s is None:
                raise ParseError(no, "list before cover header")
            if len(toks) < 2:
                raise ParseError(no, "expected: list <v> <colors...>")
            v = _int(toks[1], no, "vertex")
            if v in lists:
                raise ParseError(no, f"duplicate list for {v}")
            colors = tuple(_int(t, no, "color") for t in toks[2:])
            if any(not 1 <= c <= s for c in colors):
                raise ParseError(no, f"color outside 1..{s}")
            cs = frozenset(colors)
            if len(cs) != len(colors):
                raise ParseError(no, "repeated color in list")
            lists[v] = cs
        elif toks[0] == "match":
            if s is None:
                raise ParseError(no, "match before cover header")
            if len(toks) != 5:
                raise ParseError(no, "expected: match <u> <v> <cu> <cv>")
            u = _int(toks[1], no, "vertex")
            v = _int(toks[2], no, "vertex")
            cu = _int(toks[3], no, "color")
            cv = _int(toks[4], no, "color")
            if u >= v:
                raise ParseError(no, "match lines need u < v")
            if u not in lists or v not in lists:
                raise ParseError(no, "match before both list lines")
            if cu not in lists[u]:
                raise ParseError(no, f"color {cu} not in list of {u}")
            if cv not in lists[v]:
                raise ParseError(no, f"color {cv} not in list of {v}")
            edge = matchings.get((u, v))
            if edge is None:
                edge = matchings[(u, v)] = ({}, set())
            pairs, used_v = edge
            if cu in pairs or cv in used_v:
                raise ParseError(no, f"matching on ({u},{v}) is not a partial bijection")
            pairs[cu] = cv
            used_v.add(cv)
        else:
            raise ParseError(no, f"unknown directive {toks[0]!r} in cover file")
    if s is None:
        raise ParseError(1, "missing cover header")
    return Cover._trusted(s, lists, {e: frozenset(pairs.items())
                                     for e, (pairs, _) in matchings.items()})


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
    values: dict[tuple[int, int], int] = {}
    by_vertex: dict[int, dict[int, int]] = {}
    zeros: set[tuple[int, int]] = set()  # keys given as 0, which `values` omits
    for no, toks in _lines(text):
        if toks[0] == "budget":
            if s is not None:
                raise ParseError(no, "duplicate budget header")
            if len(toks) != 3:
                raise ParseError(no, "expected: budget <s> <cap>")
            s = _int(toks[1], no, "color count")
            cap = _int(toks[2], no, "cap")
            if s < 1 or cap < 0:
                raise ParseError(no, "need s >= 1 and cap >= 0")
        elif toks[0] == "f":
            if s is None:
                raise ParseError(no, "f line before budget header")
            if len(toks) != 4:
                raise ParseError(no, "expected: f <v> <i> <val>")
            v = _int(toks[1], no, "vertex")
            i = _int(toks[2], no, "color")
            val = _int(toks[3], no, "value")
            if not 1 <= i <= s:
                raise ParseError(no, f"color outside 1..{s}")
            if not 0 <= val <= cap:
                raise ParseError(no, f"value outside 0..{cap}")
            key = (v, i)
            if key in values or key in zeros:
                raise ParseError(no, f"duplicate entry for ({v},{i})")
            if val:
                values[key] = val
                by_vertex.setdefault(v, {})[i] = val
            else:
                zeros.add(key)
        else:
            raise ParseError(no, f"unknown directive {toks[0]!r} in budget file")
    if s is None:
        raise ParseError(1, "missing budget header")
    return Budget._trusted(s, cap, values, by_vertex)


def emit_budget(f: Budget) -> str:
    out = [f"budget {f.s} {f.cap}"]
    out.extend(f"f {v} {i} {val}" for (v, i), val in f.items())
    return "\n".join(out) + "\n"


def parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for no, toks in _lines(text):
        if toks[0] != "color":
            raise ParseError(no, f"unknown directive {toks[0]!r} in coloring file")
        if len(toks) != 3:
            raise ParseError(no, "expected: color <v> <c>")
        v = _int(toks[1], no, "vertex")
        c = _int(toks[2], no, "color")
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
