"""Extension of colorings across ordered fan-like configurations.

Given an ordered vertex list K = v1..vm inside G whose degrees satisfy the
three conditions checked below, any valid coloring of G - K extends to all
of G when every vertex has budget total at least k.  The construction
renames fibers so the matchings of vm toward v1 and v_{m-1} pair equal
color indices, then either colors greedily through vm or places vm's pair
at the front of the order.
"""

from __future__ import annotations

from .coloring import (
    _residuals,
    combine_colorings,
    greedy_extend,
    induced_pair_graph,
    verify_on_domain,
)
from .covers import (
    Budget,
    Coloring,
    Cover,
    Order,
    complete_permutation,
    invert_permutations,
    relabel_coloring,
    relabel_order,
)
from .degeneracy import order_is_valid
from .errors import (
    BadIndex,
    InternalInvariantViolated,
    NoColorAvailable,
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
    """
    if k < 3:
        raise BadIndex(f"need k >= 3, got {k}")
    K = tuple(K)
    if len(K) < 3:
        raise BadIndex(f"need at least 3 configuration vertices, got {len(K)}")
    kset = set(K)
    if len(kset) != len(K):
        raise NotInduced("configuration vertices repeat")
    unknown = kset - set(g.vertices)
    if unknown:
        raise NotInduced(f"unknown vertices {sorted(unknown)}")
    m = len(K)
    v1, vm = K[0], K[-1]

    if k - (g.degree(v1) - len(g.adj[v1] & kset)) < 3:
        return False
    if g.degree(vm) > k:
        return False
    if g.adj[vm] & kset != {v1, K[-2]}:
        return False
    outside = set(g.vertices) - kset
    for idx in range(1, m - 1):
        allowed = set(K[:idx]) | outside
        if len(g.adj[K[idx]] & allowed) > k - 1:
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
    budget total >= k with values capped at 2, and r0 is a verified
    coloring of exactly G - K.  Success is guaranteed; a failure past the
    precondition checks raises InternalInvariantViolated.
    """
    K = tuple(K)
    if not check_configuration_conditions(g, f, k, K):
        raise PreconditionViolated("configuration conditions do not hold")
    if f.cap > 2:
        raise PreconditionViolated(f"budget cap {f.cap} exceeds 2")
    low = [v for v in g.vertices if f.total(v) < k]
    if low:
        raise PreconditionViolated(f"budget total below {k} at {low}")
    if set(r0) != set(g.vertices) - set(K):
        raise PreconditionViolated("r0 must color exactly the vertices outside K")
    s0 = verify_on_domain(g, h, f, r0)
    if s0 is None:
        raise PreconditionViolated("r0 fails verification on its domain")

    v1, vm, vm1 = K[0], K[-1], K[-2]
    f_star = _residuals(g, h, f, r0)

    # Residual vector of vm trimmed to total exactly 2 (lowest colors kept);
    # solving under the smaller vector is enough since raising budgets never
    # invalidates an order.
    bm = _reduce_to_two({i: f_star.get(vm, i) for i in f_star.support(vm)})

    # Align the fibers of v1 and v_{m-1} with vm's colors.
    pi1 = complete_permutation({c1: cm for cm, c1 in h.matching(vm, v1)}, h.s)
    pi2 = complete_permutation({c2: cm for cm, c2 in h.matching(vm, vm1)}, h.s)
    b1 = {pi1[i]: f_star.get(v1, i) for i in f_star.support(v1)}
    if sum(b1.values()) < 3:
        raise InternalInvariantViolated("residual of v1 dropped below 3")

    # Pick the color where v1 strictly out-budgets vm and rename it to 1.
    c = min(i for i in range(1, h.s + 1) if b1.get(i, 0) > bm.get(i, 0))
    case_two = bm.get(c, 0) >= 1
    swap = {c: 1}
    if case_two:
        c2 = min(i for i in bm if i != c)
        swap[c2] = 2
    tau = complete_permutation(swap, h.s)

    perms = {
        v1: {i: tau[pi1[i]] for i in pi1},
        vm1: {i: tau[pi2[i]] for i in pi2},
        vm: tau,
    }
    h2 = h.relabel(perms)
    f2 = f.relabel(perms)
    f_star2 = f_star.relabel(perms)

    # Replace vm's residual entries with the trimmed vector.
    updates = {(vm, i): 0 for i in f_star2.support(vm)}
    updates.update({(vm, tau[i]): val for i, val in bm.items()})
    fsub = f_star2.assign(updates)

    gk = g.induced(K)
    if fsub.get(v1, 1) < 1:
        raise InternalInvariantViolated("color 1 of v1 lost its residual")
    partial: dict[int, int] = {v1: 1}
    order: Order = ((v1, 1),)
    try:
        for idx in range(1, len(K) - 1):
            partial, order = greedy_extend(gk, h2, fsub, partial, order, K[idx])
        if case_two:
            t = 2 if partial[vm1] != 2 else 1
            order = ((vm, t),) + order
            partial[vm] = t
        else:
            partial, order = greedy_extend(gk, h2, fsub, partial, order, vm)
    except NoColorAvailable as exc:
        raise InternalInvariantViolated(f"greedy step failed: {exc}") from exc
    if not order_is_valid(induced_pair_graph(gk, h2, fsub, partial), order):
        raise InternalInvariantViolated("constructed configuration order is invalid")

    union, full_order = combine_colorings(g, h2, f2, r0, s0, partial, order)
    inv = invert_permutations(perms)
    result = relabel_coloring(union, inv)
    result_order = relabel_order(full_order, inv)
    if not order_is_valid(induced_pair_graph(g, h, f, result), result_order):
        raise InternalInvariantViolated("final order failed the definition check")
    return result, result_order
