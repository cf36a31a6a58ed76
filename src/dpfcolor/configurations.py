"""Extension of colorings across ordered fan-like configurations.

Given an ordered vertex list K = v1..vm inside G whose degrees satisfy the
three conditions checked below, any valid coloring of G - K extends to all
of G when every vertex has budget total at least k.  The construction
names colors, as the planar fan step does, so the matchings of vm toward
v1 and v_{m-1} pair equal names, then colors v2.. by the greedy placement
the planar steps use (`coloring._color_greedily`), either through vm or
up to v_{m-1}, placing vm's pair at the front of the order.  The cover, the
budgets and the coloring stay in input colors.
"""

from __future__ import annotations

from .coloring import (
    _color_greedily,
    _residuals,
    combine_colorings,
    induced_pair_graph,
    verify_on_domain,
)
from .covers import Budget, Coloring, Cover, Order, complete_permutation
from .degeneracy import order_is_valid
from .errors import (
    BadIndex,
    InternalInvariantViolated,
    NotInduced,
    PreconditionViolated,
)
from .graphs import SimpleGraph


def check_configuration_conditions(g: SimpleGraph, f: Budget, k: int,
                                   K: list[int] | tuple[int, ...]) -> bool:
    """Degree conditions under which extension over K = v1..vm is guaranteed.

    (i)   k - (deg_G(v1) - deg_K(v1)) >= 3;
    (ii)  deg_G(vm) <= k and vm's neighbors inside K are exactly v1, v_{m-1};
    (iii) each middle v_i has at most k-1 neighbors among its predecessors
          in K and the vertices outside K combined.

    The budget `f` is accepted but not read: the verdict depends on g, k
    and K alone.  `extend_over_configuration` checks its budget itself
    (values capped at 2, total at least k over every vertex's list).
    """
    if k < 3:
        raise BadIndex(f"need k >= 3, got {k}")
    K = tuple(K)
    if len(K) < 3:
        raise BadIndex(f"need at least 3 configuration vertices, got {len(K)}")
    kset = set(K)
    if len(kset) != len(K):
        raise NotInduced("configuration vertices repeat")
    unknown = sorted(v for v in kset if v not in g.adj)
    if unknown:
        raise NotInduced(f"unknown vertices {unknown}")
    m = len(K)
    v1, vm = K[0], K[-1]

    if k - (g.degree(v1) - len(g.adj[v1] & kset)) < 3:
        return False
    if g.degree(vm) > k:
        return False
    if g.adj[vm] & kset != {v1, K[-2]}:
        return False
    # (iii) reads a neighbor's position in K, -1 outside it, so each call
    # costs the degrees of K, not |K| times the order of g.
    pos = {v: idx for idx, v in enumerate(K)}
    for idx in range(1, m - 1):
        if sum(pos.get(u, -1) < idx for u in g.adj[K[idx]]) > k - 1:
            return False
    return True


def _reduce_to_two(values: dict[int, int]) -> dict[int, int]:
    """Keep the lowest-color units of a residual vector down to total 2."""
    out: dict[int, int] = {}
    need = 2
    for i in sorted(values):
        take = min(values[i], need)
        if take:
            out[i] = take
        need -= take
        if need == 0:
            break
    if need:
        raise InternalInvariantViolated("residual of vm dropped below 2")
    return out


def extend_over_configuration(g: SimpleGraph, h: Cover, f: Budget, k: int,
                              K: list[int] | tuple[int, ...],
                              r0: Coloring) -> tuple[dict[int, int], Order]:
    """Extend a coloring of G - K across the configuration K = v1..vm.

    Preconditions: the configuration conditions hold, every vertex has
    budget total >= k over its list with values capped at 2 (entries off
    the list count for nothing and are never read), and r0 is a verified
    coloring of exactly G - K.  Success is guaranteed; a failure past the
    precondition checks raises InternalInvariantViolated.
    """
    K = tuple(K)
    if not check_configuration_conditions(g, f, k, K):
        raise PreconditionViolated("configuration conditions do not hold")
    if f.cap > 2:
        raise PreconditionViolated(f"budget cap {f.cap} exceeds 2")
    low = [v for v in g.vertices if sum(f.get(v, i) for i in h.list_of(v)) < k]
    if low:
        raise PreconditionViolated(f"list-restricted budget total below {k} at {low}")
    if set(r0) != set(g.vertices) - set(K):
        raise PreconditionViolated("r0 must color exactly the vertices outside K")
    s0 = verify_on_domain(g, h, f, r0)
    if s0 is None:
        raise PreconditionViolated("r0 fails verification on its domain")

    v1, vm, vm1 = K[0], K[-1], K[-2]
    f_star = _residuals(g, h, f, r0)

    # Residual vector of vm over its list, trimmed to total exactly 2 (lowest
    # colors kept); solving under the smaller vector is enough since raising
    # budgets never invalidates an order.  A budget entry off a vertex's list
    # is never read.
    bm = _reduce_to_two({i: f_star.get(vm, i) for i in f_star.support(vm) if i in h.lists[vm]})

    # Align the fibers of v1 and v_{m-1} with vm's colors.
    pi1 = complete_permutation({c1: cm for cm, c1 in h.matching(vm, v1)}, h.s)
    pi2 = complete_permutation({c2: cm for cm, c2 in h.matching(vm, vm1)}, h.s)
    b1 = {pi1[i]: f_star.get(v1, i) for i in f_star.support(v1) if i in h.lists[v1]}
    if sum(b1.values()) < 3:
        raise InternalInvariantViolated("residual of v1 dropped below 3")

    # Pick the color where v1 strictly out-budgets vm and name it 1.  Each
    # of v1, v_{m-1} and vm gets a name table {input color: name} in which
    # matched colors share a name, as in the planar fan step.
    c = min(i for i in range(1, h.s + 1) if b1.get(i, 0) > bm.get(i, 0))
    case_two = bm.get(c, 0) >= 1
    swap = {c: 1}
    if case_two:
        c2 = min(i for i in bm if i != c)
        swap[c2] = 2
    tau = complete_permutation(swap, h.s)
    names = {v1: {i: tau[j] for i, j in pi1.items()},
             vm1: {i: tau[j] for i, j in pi2.items()},
             vm: tau}

    # Replace vm's residual entries with the trimmed vector.
    fsub = f_star.assign({(vm, i): bm.get(i, 0) for i in f_star.support(vm)})

    gk = g.induced(K)
    one = next(i for i, name in names[v1].items() if name == 1)
    if fsub.get(v1, one) < 1:
        raise InternalInvariantViolated("color 1 of v1 lost its residual")
    partial = {v1: one}
    order = ((v1, one),) + _color_greedily(gk, h, fsub, partial, K[1:-1] if case_two else K[1:],
                                           names)
    if case_two:
        t = 2 if names[vm1][partial[vm1]] != 2 else 1
        partial[vm] = cm = next(i for i, name in tau.items() if name == t)
        order = ((vm, cm),) + order
    if not order_is_valid(induced_pair_graph(gk, h, fsub, partial), order):
        raise InternalInvariantViolated("constructed configuration order is invalid")
    return combine_colorings(g, h, f, r0, s0, partial, order)
