"""Covers, budgets and pair graphs for correspondence coloring.

A cover assigns each vertex a color list and each graph edge a partial
matching between the two fibers {u} x L(u) and {v} x L(v).  Fiber cliques
are never materialized: a representative set picks exactly one pair per
fiber, so clique edges can never appear in an induced pair graph.

Each edge's matching is stored as a plain dict {cu: cv} from the colors of
its smaller endpoint to those of the larger.  Such a dict holds only ints,
so the cyclic garbage collector never tracks it.

Colorings are plain dicts vertex -> color; witness orders are tuples of
(vertex, color) pairs.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Pair = tuple[int, int]
Order = tuple[Pair, ...]
Coloring = Mapping[int, int]

_NO_MATCHES: dict[int, int] = {}  # the matching of an unmatched edge; never mutated


def _check_permutations(perms: Mapping[int, Mapping[int, int]]) -> None:
    """Raise ValueError unless each perms[v] is a bijection of 1..k for some k."""
    for v, p in perms.items():
        domain = set(range(1, len(p) + 1))
        if set(p) != domain or set(p.values()) != domain:
            raise ValueError(f"renaming at {v} is not a bijection of 1..{len(p)}")


class Budget:
    """Sparse per-(vertex, color) degeneracy allowances.

    Colors are indexed 1..s; missing entries are 0 and every stored value
    is at most `cap`.
    """

    __slots__ = ("s", "cap", "_rows")

    def __init__(self, s: int, cap: int,
                 values: Mapping[Pair, int] | Iterable[tuple[Pair, int]] = ()):
        if s < 1:
            raise ValueError("need at least one color")
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        items = values.items() if isinstance(values, Mapping) else values
        rows: dict[int, dict[int, int]] = {}
        zeros: set[Pair] = set()  # keys given as 0, which `rows` omits
        for (v, i), val in items:
            if not 1 <= i <= s:
                raise ValueError(f"color {i} outside 1..{s}")
            if val < 0 or val > cap:
                raise ValueError(f"value {val} for ({v},{i}) outside 0..{cap}")
            if i in rows.get(v, ()) or (v, i) in zeros:
                raise ValueError(f"duplicate entry for ({v},{i})")
            if val > 0:
                rows.setdefault(v, {})[i] = val
            else:
                zeros.add((v, i))
        self.s = s
        self.cap = cap
        self._rows = rows

    def get(self, v: int, i: int) -> int:
        row = self._rows.get(v)
        return row.get(i, 0) if row else 0

    def total(self, v: int) -> int:
        """|f(v)|: the sum of the vertex's values over all colors."""
        return sum(self._rows.get(v, {}).values())

    def support(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._rows.get(v, ())))

    def items(self) -> list[tuple[Pair, int]]:
        return sorted(((v, i), val) for v, row in self._rows.items() for i, val in row.items())

    @classmethod
    def _trusted(cls, s: int, cap: int, rows: dict[int, dict[int, int]]) -> "Budget":
        """Wrap a valid table unchecked: nonempty rows v -> {i: f_i(v)} with
        i in 1..s and values in 1..cap.  Rows may be shared, so none is ever
        mutated."""
        b = cls.__new__(cls)
        b.s, b.cap, b._rows = s, cap, rows
        return b

    def assign(self, updates: Mapping[Pair, int]) -> "Budget":
        """New budget with the given entries replaced (0 deletes)."""
        rows = dict(self._rows)
        copied: set[int] = set()
        for (v, i), val in updates.items():
            if not 1 <= i <= self.s:
                raise ValueError(f"color {i} outside 1..{self.s}")
            if val < 0 or val > self.cap:
                raise ValueError(f"value {val} for ({v},{i}) outside 0..{self.cap}")
            if v not in copied:
                copied.add(v)
                rows[v] = dict(rows.get(v, ()))
            if val == 0:
                rows[v].pop(i, None)
            else:
                rows[v][i] = val
        for v in copied:
            if not rows[v]:
                del rows[v]
        return Budget._trusted(self.s, self.cap, rows)

    def relabel(self, perms: Mapping[int, Mapping[int, int]]) -> "Budget":
        """Rename colors per vertex: new index perms[v][i] gets f_i(v).

        Each perms[v] must be a bijection of 1..k for some k; colors above k
        keep their labels.  A renamed entry outside 1..s raises ValueError.
        """
        _check_permutations(perms)
        rows = dict(self._rows)
        for v, p in perms.items():
            row = rows.get(v)
            if row is None:
                continue
            rows[v] = new_row = {p.get(i, i): val for i, val in row.items()}
            if max(new_row) > self.s:
                raise ValueError(f"color {max(new_row)} outside 1..{self.s}")
        return Budget._trusted(self.s, self.cap, rows)

    def __eq__(self, other):
        if not isinstance(other, Budget):
            return NotImplemented
        return (self.s, self.cap, self._rows) == (other.s, other.cap, other._rows)

    def __repr__(self):
        entries = sum(map(len, self._rows.values()))
        return f"Budget(s={self.s}, cap={self.cap}, entries={entries})"


class Cover:
    """Color lists plus per-edge partial matchings between fibers."""

    __slots__ = ("s", "lists", "_matchings", "_at")

    def __init__(self, s: int, lists: Mapping[int, Iterable[int]],
                 matchings: Mapping[tuple[int, int], Iterable[Pair]] = ()):
        if s < 1:
            raise ValueError("need at least one color")
        clean_lists: dict[int, frozenset[int]] = {}
        for v, colors in lists.items():
            cs = frozenset(colors)
            if any(not 1 <= c <= s for c in cs):
                raise ValueError(f"list of {v} has colors outside 1..{s}")
            clean_lists[v] = cs
        clean: dict[tuple[int, int], dict[int, int]] = {}
        empty: set[tuple[int, int]] = set()  # edges given an empty matching, which `clean` omits
        items = matchings.items() if isinstance(matchings, Mapping) else matchings
        for (u, v), pairs in items:
            if u == v:
                raise ValueError(f"matching on a loop at {u}")
            if u > v:
                u, v = v, u
                pairs = [(cv, cu) for (cu, cv) in pairs]
            if (u, v) in clean or (u, v) in empty:
                raise ValueError(f"duplicate matching for ({u},{v})")
            if u not in clean_lists or v not in clean_lists:
                raise ValueError(f"matching ({u},{v}) on a vertex without a list")
            norm: dict[int, int] = {}
            seen_v: set[int] = set()
            for cu, cv in pairs:
                if cu not in clean_lists[u]:
                    raise ValueError(f"matched color {cu} not in list of {u}")
                if cv not in clean_lists[v]:
                    raise ValueError(f"matched color {cv} not in list of {v}")
                if cu in norm or cv in seen_v:
                    raise ValueError(f"matching ({u},{v}) is not a partial bijection")
                norm[cu] = cv
                seen_v.add(cv)
            if norm:
                clean[(u, v)] = norm
            else:
                empty.add((u, v))
        self.s = s
        self.lists = clean_lists
        self._matchings = clean
        self._at = None

    @classmethod
    def _trusted(cls, s: int, lists: dict[int, frozenset[int]],
                 matchings: dict[tuple[int, int], dict[int, int]],
                 at: dict[int, tuple[tuple[int, int], ...]] | None = None) -> "Cover":
        """Wrap valid tables unchecked: lists within 1..s, and nonempty partial
        bijections keyed (u, v) with u < v, each an injective dict {cu: cv}
        between listed colors of u and v.  Rows may be shared, so none is
        ever mutated.

        `at`, when given, must be the index of `matchings`' keys by
        endpoint (see `_edges_at`); without it the index is built on first
        use.  Relabeling keeps every key, so a relabeled cover shares its
        parent's index."""
        h = cls.__new__(cls)
        h.s, h.lists, h._matchings, h._at = s, lists, matchings, at
        return h

    def _edges_at(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Each vertex with a matched edge -> the keys (u, v) of its matched
        edges.  Built by one pass over the matchings on first use and then
        kept; it reads only the keys, which no cover ever changes."""
        if self._at is None:
            at: dict[int, list[tuple[int, int]]] = {}
            for e in self._matchings:
                u, v = e
                at.setdefault(u, []).append(e)
                at.setdefault(v, []).append(e)
            self._at = {v: tuple(es) for v, es in at.items()}
        return self._at

    def list_of(self, v: int) -> frozenset[int]:
        """The list of v; a vertex without one has the empty list."""
        return self.lists.get(v, frozenset())

    def matching(self, u: int, v: int) -> frozenset[Pair]:
        """Matched color pairs oriented (color of u, color of v), built on each call."""
        if u < v:
            return frozenset(self._matchings.get((u, v), _NO_MATCHES).items())
        m = self._matchings.get((v, u), _NO_MATCHES)
        return frozenset(zip(m.values(), m.keys()))

    def matched(self, u: int, cu: int, v: int, cv: int) -> bool:
        if u < v:
            return self._matchings.get((u, v), _NO_MATCHES).get(cu) == cv
        return self._matchings.get((v, u), _NO_MATCHES).get(cv) == cu

    def matching_items(self) -> list[tuple[tuple[int, int], frozenset[Pair]]]:
        """Each matched edge (u, v), u < v, with its pairs (cu, cv), in edge order."""
        return [(e, frozenset(m.items())) for e, m in sorted(self._matchings.items())]

    def relabel(self, perms: Mapping[int, Mapping[int, int]]) -> "Cover":
        """Rename colors inside the fibers of the vertices in `perms`.

        Each perms[v] must be a bijection of 1..k for some k; colors above
        k, and vertices absent from `perms`, keep their labels.  A renamed
        color outside 1..s raises ValueError.  Relabeling is an isomorphism
        of the cover, so colorability is preserved exactly and the result
        needs no further validation: only the renamed fibers and the
        matchings at them are rebuilt, and the untouched ones are shared
        with this cover.

        The matchings at the renamed vertices are found through the
        cover's index of matched edges by endpoint (`_edges_at`), so a
        call reads only those, not every matching.  The result shares the
        index, since relabeling changes no edge key; a chain of relabels
        therefore pays for the index once, on the first cover that lacks it.
        """
        _check_permutations(perms)
        lists = dict(self.lists)
        for v, p in perms.items():
            if v in lists:
                lists[v] = cs = frozenset(p.get(c, c) for c in lists[v])
                if cs and max(cs) > self.s:
                    raise ValueError(f"list of {v} has colors outside 1..{self.s}")
        at = self._edges_at()
        matchings = dict(self._matchings)
        for e in {e for v in perms for e in at.get(v, ())}:
            u, v = e
            pu, pv = perms.get(u, {}), perms.get(v, {})
            matchings[e] = {pu.get(cu, cu): pv.get(cv, cv) for cu, cv in self._matchings[e].items()}
        return Cover._trusted(self.s, lists, matchings, at)

    def __eq__(self, other):
        if not isinstance(other, Cover):
            return NotImplemented
        return (self.s, self.lists, self._matchings) == (other.s, other.lists, other._matchings)

    def __repr__(self):
        return f"Cover(s={self.s}, vertices={len(self.lists)}, matched_edges={len(self._matchings)})"


class PairGraph:
    """Graph on (vertex, color) pairs with a budget per pair."""

    __slots__ = ("pairs", "index", "adj", "budgets")

    def __init__(self, pairs: Iterable[Pair], edges: Iterable[tuple[Pair, Pair]],
                 budgets: Mapping[Pair, int]):
        ps = tuple(sorted(set(pairs)))
        index = {p: k for k, p in enumerate(ps)}
        adj = [set() for _ in ps]
        for p, q in edges:
            if p == q:
                raise ValueError(f"self-loop at pair {p}")
            i, j = index[p], index[q]
            adj[i].add(j)
            adj[j].add(i)
        self.pairs = ps
        self.index = index
        self.adj = tuple(frozenset(a) for a in adj)
        self.budgets = tuple(budgets.get(p, 0) for p in ps)

    @classmethod
    def _trusted(cls, pairs: tuple[Pair, ...], index: dict[Pair, int],
                 adj: tuple[frozenset[int], ...], budgets: tuple[int, ...]) -> "PairGraph":
        """Wrap valid tables unchecked: sorted distinct pairs, their positions,
        symmetric loop-free adjacency by position, and a budget per pair."""
        pg = cls.__new__(cls)
        pg.pairs, pg.index, pg.adj, pg.budgets = pairs, index, adj, budgets
        return pg

    @property
    def n(self) -> int:
        return len(self.pairs)

    def budget_of(self, p: Pair) -> int:
        return self.budgets[self.index[p]]

    def __repr__(self):
        m = sum(len(a) for a in self.adj) // 2
        return f"PairGraph(n={self.n}, m={m})"


def complete_permutation(partial: Mapping[int, int], s: int) -> dict[int, int]:
    """Extend an injective partial map on 1..s to a full bijection.

    Unmapped sources are sent to the unused targets in ascending order,
    which keeps the completion deterministic.
    """
    for c, d in partial.items():
        if not (1 <= c <= s and 1 <= d <= s):
            raise ValueError(f"entry {c}->{d} outside 1..{s}")
    targets = set(partial.values())
    if len(targets) != len(partial):
        raise ValueError("partial map is not injective")
    free_src = sorted(set(range(1, s + 1)) - set(partial.keys()))
    free_tgt = sorted(set(range(1, s + 1)) - targets)
    full = dict(partial)
    full.update(zip(free_src, free_tgt))
    return full


def invert_permutations(perms: Mapping[int, Mapping[int, int]]) -> dict[int, dict[int, int]]:
    return {v: {d: c for c, d in p.items()} for v, p in perms.items()}


def relabel_coloring(coloring: Coloring,
                     perms: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    return {v: (perms[v][c] if v in perms else c) for v, c in coloring.items()}


def relabel_order(order: Order, perms: Mapping[int, Mapping[int, int]]) -> Order:
    return tuple((v, perms[v][c] if v in perms else c) for v, c in order)
