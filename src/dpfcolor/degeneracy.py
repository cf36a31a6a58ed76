"""Strictly degenerate orders of pair graphs.

An order is valid when every element has strictly fewer neighbors earlier
in the sequence than its budget.  Orders are found by reverse elimination:
repeatedly remove any element whose current degree is below its budget and
place removals from the back of the order forward.  Degrees only drop as
elements are removed, so a removable element stays removable; any greedy
tie-break therefore succeeds exactly when some valid order exists.
The exact solver tests orderability millions of times on small pair graphs,
so `_orderable` keeps a bitmask form of the same loop that answers only
whether an order exists.
"""

from __future__ import annotations

import random
from typing import Iterable

from .covers import Order, Pair, PairGraph


def _eliminate(pg: PairGraph, rng: random.Random | None = None,
               prefix: frozenset[int] = frozenset()) -> Order | None:
    """Reverse elimination; the order it builds, or None when it gets stuck.

    Each step removes the lowest removable element, or a random one when
    `rng` is given.  While elements outside the index set `prefix` remain
    only they may be removed, so the prefix block ends up first.
    """
    alive = set(range(pg.n))
    deg = [len(a) for a in pg.adj]
    removed: list[int] = []
    while alive:
        pool = alive - prefix if prefix and len(alive) > len(prefix) else alive
        candidates = sorted(i for i in pool if deg[i] < pg.budgets[i])
        if not candidates:
            return None
        i = candidates[0] if rng is None else rng.choice(candidates)
        alive.discard(i)
        for j in pg.adj[i]:
            if j in alive:
                deg[j] -= 1
        removed.append(i)
    return tuple(pg.pairs[i] for i in reversed(removed))


def strictly_degenerate_order(pg: PairGraph, seed: int | None = None) -> Order | None:
    """A strictly degenerate order of all pairs, or None if none exists.

    With the default tie-break the lowest (vertex, color) pair is removed
    first; a seed randomizes the choice among removable elements without
    affecting success or failure.
    """
    return _eliminate(pg, random.Random(seed) if seed is not None else None)


def order_is_valid(pg: PairGraph, order: Iterable[Pair]) -> bool:
    """Direct definition check: earlier-neighbor count < budget, all pairs used once."""
    seq = tuple(order)
    if sorted(seq) != list(pg.pairs):
        return False
    placed: set[int] = set()
    for p in seq:
        i = pg.index[p]
        if len(pg.adj[i] & placed) >= pg.budgets[i]:
            return False
        placed.add(i)
    return True


def eliminate_with_prefix(pg: PairGraph, prefix: Iterable[Pair]) -> Order | None:
    """A valid order whose first elements are exactly `prefix`, or None.

    Constrained reverse elimination: while non-prefix elements remain only
    they may be removed, then the prefix block is eliminated.  Since
    removability is monotone under deletions this finds an order whenever
    a prefix-first order exists.
    """
    return _eliminate(pg, prefix=frozenset(pg.index[p] for p in prefix))


def _orderable(masks: list[int], budgets: list[int], alive: int) -> bool:
    """Greedy elimination on a bitmask pair graph; True iff fully reducible."""
    while alive:
        progressed = False
        m = alive
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if (masks[i] & alive).bit_count() < budgets[i]:
                alive ^= 1 << i
                progressed = True
        if not progressed:
            return False
    return True
