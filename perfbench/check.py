"""Output checks that share no code with the library's degeneracy kernel.

Witness orders are re-checked against the definition, element by element,
using only the plain data held by the graph, cover and budget objects.
Verdicts of the exact workload are decided here by an independent search,
so an "absent" answer is checked as well as a "found" one.
"""

from __future__ import annotations

import hashlib


def order_errors(g, h, f, coloring, order) -> str | None:
    """Why `order` is not a witness for `coloring`, or None if it is one.

    Each element must use its vertex's color from `coloring`, that color must
    be in the vertex's list, every vertex appears exactly once, and each
    element has fewer earlier matched neighbours than its budget.
    """
    if sorted(v for v, _ in order) != list(g.vertices):
        return "order does not list every vertex exactly once"
    placed: dict[int, int] = {}
    for v, c in order:
        if coloring.get(v) != c:
            return f"order pair ({v},{c}) disagrees with the coloring"
        if c not in h.lists[v]:
            return f"color {c} is not in the list of {v}"
        earlier = 0
        for u in g.adj[v]:
            if u in placed and (c, placed[u]) in h.matching(v, u):
                earlier += 1
        if earlier >= f.get(v, c):
            return f"({v},{c}) has {earlier} earlier matched neighbours, budget {f.get(v, c)}"
        placed[v] = c
    return None


def _orderable(adj_bits: list[int], budgets: list[int]) -> bool:
    """Whether pairs with these adjacency bitmasks admit a strictly degenerate order.

    Repeatedly deletes every element whose remaining degree is below its
    budget; deletions never make another element harder to delete.
    """
    alive = (1 << len(budgets)) - 1
    changed = True
    while alive and changed:
        changed = False
        for i in range(len(budgets)):
            if alive >> i & 1 and (adj_bits[i] & alive).bit_count() < budgets[i]:
                alive &= ~(1 << i)
                changed = True
    return alive == 0


def coloring_exists(g, h, f, precolored=None) -> bool:
    """Decide by exhaustive search whether a valid coloring extends `precolored`.

    Vertices are tried in increasing order, colors in increasing order; a
    branch stops when the chosen pairs cannot be ordered, which is sound
    because an order restricted to a subset of its pairs stays valid.
    """
    pre = dict(precolored or {})
    verts = sorted(pre) + [v for v in g.vertices if v not in pre]
    choice: dict[int, int] = {}
    index: dict[int, int] = {}
    bits: list[int] = []
    budgets: list[int] = []

    def push(v, c):
        k = len(bits)
        m = 0
        for u in g.adj[v]:
            if u in choice and (c, choice[u]) in h.matching(v, u):
                m |= 1 << index[u]
                bits[index[u]] |= 1 << k
        choice[v] = c
        index[v] = k
        bits.append(m)
        budgets.append(f.get(v, c))

    def pop(v):
        k = index.pop(v)
        del choice[v]
        bits.pop()
        budgets.pop()
        for t in range(k):
            bits[t] &= ~(1 << k)

    def search(depth):
        if depth == len(verts):
            return True
        v = verts[depth]
        colors = (pre[v],) if v in pre else sorted(h.lists[v])
        for c in colors:
            if f.get(v, c) < 1:
                continue
            push(v, c)
            if _orderable(bits, budgets) and search(depth + 1):
                return True
            pop(v)
        return False

    return search(0)


class Digest:
    """sha256 over the canonical output text of each instance, in key order.

    Remembers each instance's first output, so a later run of the same
    instance that prints something else is caught.
    """

    def __init__(self, keys):
        self.keys = frozenset(keys)
        self._texts: dict[int, str] = {}

    def add(self, key: int, text: str) -> bool:
        """Record an output; False if the instance printed something else before."""
        return self._texts.setdefault(key, text) == text

    def covered(self) -> int:
        return len(self.keys.intersection(self._texts))

    def hexdigest(self) -> str:
        sha = hashlib.sha256()
        for key in sorted(self.keys.intersection(self._texts)):
            sha.update(f"{key}:{self._texts[key]}\n".encode())
        return sha.hexdigest()


def canonical(coloring, order) -> str:
    return ("color " + " ".join(f"{v}:{coloring[v]}" for v in sorted(coloring))
            + " order " + " ".join(f"{v}:{c}" for v, c in order))
