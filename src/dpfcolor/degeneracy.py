"""Strictly degenerate orders of pair graphs.

An order is valid when every element has strictly fewer neighbors earlier
in the sequence than its budget.  Orders are found by reverse elimination:
repeatedly remove any element whose current degree is below its budget and
place removals from the back of the order forward.  Degrees only drop as
elements are removed, so a removable element stays removable; any greedy
tie-break therefore succeeds exactly when some valid order exists.

The elimination keeps a degree counter per element and a ready queue of the
removable ones (Matula & Beck's smallest-last scheme, JACM 1983).  An
element joins the queue once, when its degree first falls below its budget,
and stays removable until it is taken, so the queue always holds exactly
the removable live elements.  Taking its lowest element is therefore the
same choice a fresh scan of all live elements would make, and the default
elimination costs O((n + m) log n) instead of a sort per step.

The exact solver tests orderability millions of times on small pair graphs,
so `_orderable` keeps a bitmask form of the same loop that answers only
whether an order exists.  It runs on the masks of the solver's whole
candidate pair graph, built once per search, restricted to the pairs whose
bits are set in `alive`: a pair's degree is its mask's popcount within
`alive`, and pairs outside `alive` are never read.  The search only ever
adds one pair to a set it already found orderable, so it asks
`_orderable_with`, which stops as soon as the added pair is removable;
`_orderable`, the whole elimination, is the reference it is tested against.
"""

from __future__ import annotations

import bisect
import heapq
import random
from typing import Iterable

from .covers import Order, Pair, PairGraph


def _eliminate(pg: PairGraph, rng: random.Random | None = None,
               prefix: frozenset[int] = frozenset()) -> Order | None:
    """Reverse elimination; the order it builds, or None when it gets stuck.

    Each step removes the lowest removable element, or a random one when
    `rng` is given.  While elements outside the index set `prefix` remain
    only they may be removed, so the prefix block ends up first.

    The removable elements wait in two ready pools, one for the prefix and
    one for the rest.  A pool is a min-heap by default.  With `rng` it is a
    sorted list and the draw is `rng.choice(range(len(pool)))`, which
    consumes the same random numbers as choosing from the sorted list of
    candidates.
    """
    budgets, adj = pg.budgets, pg.adj
    deg = [len(a) for a in adj]
    ready: list[int] = []
    ready_prefix: list[int] = []
    for i in range(pg.n):  # ascending, so both pools start as valid heaps
        if deg[i] < budgets[i]:
            (ready_prefix if i in prefix else ready).append(i)
    if rng is None:
        push, pop = heapq.heappush, heapq.heappop
    else:
        push = bisect.insort

        def pop(pool: list[int]) -> int:
            return pool.pop(rng.choice(range(len(pool))))
    rest = pg.n - len(prefix)
    removed: list[int] = []
    while len(removed) < pg.n:
        pool = ready if rest else ready_prefix
        if not pool:
            return None
        i = pop(pool)
        if i not in prefix:
            rest -= 1
        # Counters of removed neighbors fall too, but a removed element was
        # already below its budget, so its counter never again meets the
        # push condition.
        for j in adj[i]:
            deg[j] -= 1
            if deg[j] == budgets[j] - 1:
                push(ready_prefix if j in prefix else ready, j)
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


def _orderable_with(masks: list[int], budgets: list[int], alive: int, k: int) -> bool:
    """Whether alive | 1 << k is orderable, given that `alive` is.

    Elimination on alive | 1 << k succeeds iff it removes k at some point:
    what is left then is a subset of `alive`, and a subset of an orderable
    set is orderable (its pairs keep their budgets and lose neighbours).
    So the loop stops as soon as k is removable.
    """
    bit = 1 << k
    alive |= bit
    mask, budget = masks[k], budgets[k]
    while (mask & alive).bit_count() >= budget:
        progressed = False
        m = alive ^ bit
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if (masks[i] & alive).bit_count() < budgets[i]:
                alive ^= low
                progressed = True
        if not progressed:
            return False
    return True
