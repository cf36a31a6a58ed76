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
so `_orderable_with` keeps a bitmask form of the same loop that answers only
whether an order exists.  It runs on the masks of the solver's whole
candidate pair graph, built once per search, restricted to the pairs whose
bits are set in `alive`: a pair's degree is its mask's popcount within
`alive`, and pairs outside `alive` are never read.  The search only ever
adds one pair k to a set it already found orderable, and the elimination
on the larger set succeeds exactly when it removes k, so `_orderable_with`
stops as soon as k is removable.  Until then it reads only k's connected
component inside `alive`: removing a pair outside that component lowers
no degree inside it, and since the elimination's outcome does not depend
on the order of removals, eliminating the component alone removes k
exactly when eliminating all of `alive` would.  The component is grown
from k one frontier at a time, each step the union of the frontier's
masks, so a probe costs the size of k's component, not of the partial
coloring.  The search calls it once per node on the pair it tries, and
again on the candidates of an uncolored vertex only when its residual
counters show every one of them at zero residual.  The whole bitmask
elimination it is tested against lives with the test oracles
(`tests/oracles.py`).
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
    budgets, adj, n = pg.budgets, pg.adj, pg.n
    deg = [len(a) for a in adj]
    ready: list[int] = []
    ready_prefix: list[int] = []
    for i in range(n):  # ascending, so both pools start as valid heaps
        if deg[i] < budgets[i]:
            (ready_prefix if i in prefix else ready).append(i)
    if rng is None:
        push, pop = heapq.heappush, heapq.heappop
    else:
        push = bisect.insort

        def pop(pool: list[int]) -> int:
            return pool.pop(rng.choice(range(len(pool))))
    rest = n - len(prefix)
    removed: list[int] = []
    while len(removed) < n:
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


def _orderable_with(masks: list[int], budgets: list[int], alive: int, k: int) -> bool:
    """Whether alive | 1 << k is orderable, given that `alive` is.

    Elimination on alive | 1 << k succeeds iff it removes k at some point:
    what is left then is a subset of `alive`, and a subset of an orderable
    set is orderable (its pairs keep their budgets and lose neighbours).
    So the loop stops as soon as k is removable.  Only removals inside k's
    connected component can lower k's count, and a removal outside it
    changes no degree inside it, so the sweeps run on that component
    alone: grown from k with one mask union per frontier pair, it is the
    live set from then on, and a sweep that removes nothing from it ends
    the test.
    """
    mask, budget, bit = masks[k], budgets[k], 1 << k
    if (mask & alive).bit_count() < budget:
        return True
    comp = frontier = mask & alive
    comp |= bit
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & alive & ~comp
        comp |= frontier
    while True:
        left = comp
        m = comp ^ bit
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if (masks[i] & comp).bit_count() < budgets[i]:
                comp ^= low
        if (mask & comp).bit_count() < budget:
            return True
        if comp == left:
            return False
