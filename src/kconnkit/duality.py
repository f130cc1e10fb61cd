"""Width measures under adhesion limits, and duality reports.

Conventions (finite analogues of the cardinal statements):

* ``k_tree_width`` is the minimum over tree-decompositions of adhesion
  below k of the largest part size, so a bound of the shape "every part
  smaller than kappa" translates to ``k_tree_width <= kappa - 1``.
* ``tree_width`` is the usual tree-width (min over all decompositions of
  largest part size minus one).

The min-max search runs over rooted, normalised decompositions: the root
part is chosen, every component hanging off it becomes its own child whose
interface (its neighbourhood, necessarily smaller than k) must be covered
by the child's root part.  Any decomposition can be normalised into this
shape without increasing part sizes, so the recursion is exhaustive.  A
state is a component alone, since its interface is its neighbourhood.

Both exact searches work on vertex bitmasks and share one kernel,
``graph_core.component_masks``: the components of a vertex mask, each with
its neighbourhood mask.  The min-max search calls it once per remainder
of a candidate part, the tree-width DP once per eliminated set.

The bounds ``verify_sec1_bounds`` checks are those of Diestel, Jensen,
Gorbunov & Thomassen, JCTB 75 (1999), and Geelen & Joeris,
arXiv:1609.09098.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

# menger is unused here but kept: the benchmark's tracer wraps duality.menger.
from .graph_core import Graph, SizeGuardError, _bits, check_k, component_masks, menger  # noqa: F401
from .graph_core import menger_count as min_separator_size  # equal by Menger's theorem
from .kconn import is_k_connected, max_k_connected_subset
from .sepsys import TreeDecomposition, validate_td

# Size guards: the most vertices k_tree_width, check_duality and
# verify_sec1_bounds accept (their decomposition search is exhaustive), and
# the most tree_width's DP over all 2^n vertex subsets accepts.
_MAX_EXACT_N = 8
_MAX_TREE_WIDTH_N = 10

# ---------------------------------------------------------------------------
# Exact min-max search over adhesion-bounded decompositions


def _min_max_decomposition(
    g: Graph, k: int, cost: Callable[[frozenset[int]], int]
) -> tuple[int, TreeDecomposition]:
    """Minimise the maximum part cost over decompositions of adhesion < k.

    Exact, memoised on the component alone: its interface is always its
    neighbourhood N(comp).  At a root N(comp) is empty, and a child region is
    a component of ``comp - part``, so its neighbours lie in ``part``.  States
    and parts are vertex masks.  The extra vertices of a part are tried by
    size, then lexicographically, and the first strictly better part wins.
    Each part's cost, and the split of each remainder ``comp - part`` into
    child regions, is computed once per call.  Returns the optimum value
    together with a witnessing decomposition.
    """
    if g.n == 0:
        return 0, TreeDecomposition(Graph.from_edges(1), (frozenset(),))
    if k <= 0:
        part = g.vertex_set
        return cost(part), TreeDecomposition(Graph.from_edges(1), (part,))

    masks = g.adjacency_masks
    memo: dict[int, tuple[int, tuple]] = {}
    part_costs: dict[int, int] = {}
    splits: dict[int, list[tuple[int, int]]] = {}

    def best_for(interface: int, comp: int) -> tuple[int, tuple]:
        if comp in memo:
            return memo[comp]
        best_val = math.inf
        best_struct: tuple | None = None
        singles = [1 << v for v in _bits(comp)]
        for size in range(1, len(singles) + 1):
            for extra in combinations(singles, size):
                extra_mask = sum(extra)
                part = interface | extra_mask
                part_cost = part_costs.get(part)
                if part_cost is None:
                    part_cost = part_costs[part] = cost(frozenset(_bits(part)))
                if part_cost >= best_val:
                    continue
                rest = comp & ~extra_mask
                split = splits.get(rest)
                if split is None:
                    split = splits[rest] = component_masks(masks, rest)
                val = part_cost
                children = []
                feasible = True
                for child_comp, child_if in split:
                    if child_if.bit_count() >= k:
                        feasible = False
                        break
                    child_val, child_struct = best_for(child_if, child_comp)
                    val = max(val, child_val)
                    children.append(child_struct)
                    if val >= best_val:
                        feasible = False
                        break
                if feasible and val < best_val:
                    best_val = val
                    best_struct = (part, tuple(children))
        if best_struct is None:
            raise AssertionError("taking the whole region as one part always works")
        memo[comp] = (best_val, best_struct)
        return memo[comp]

    structures = []
    value = 0
    for comp, _ in component_masks(masks, (1 << g.n) - 1):
        v, s = best_for(0, comp)
        value = max(value, v)
        structures.append(s)

    parts: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []

    def emit(struct: tuple, parent: int | None) -> None:
        part, children = struct
        idx = len(parts)
        parts.append(frozenset(_bits(part)))
        if parent is not None:
            edges.append((parent, idx))
        for ch in children:
            emit(ch, idx)

    root_ids = []
    for s in structures:
        root_ids.append(len(parts))
        emit(s, None)
    for r1, r2 in zip(root_ids, root_ids[1:]):
        edges.append((r1, r2))
    td = TreeDecomposition(Graph.from_edges(len(parts), edges), tuple(parts))
    return value, td


def k_tree_width(g: Graph, k: int) -> int:
    """Minimum over adhesion-<k tree-decompositions of the largest part size."""
    check_k(k)
    if g.n > _MAX_EXACT_N:
        raise SizeGuardError(f"k_tree_width exact search limited to n <= _MAX_EXACT_N = {_MAX_EXACT_N}")
    value, td = _min_max_decomposition(g, k, len)
    if not validate_td(g, td) or any(len(s) >= k for s in td.adhesion_sets()):
        raise AssertionError("witness decomposition failed validation")
    return value


def tree_width(g: Graph) -> int:
    """Exact tree-width via the elimination-ordering subset DP.

    ``f[S]`` is the least width of an order that eliminates S first.
    Eliminating v after S costs the number of vertices outside S + v that v
    reaches through S: its own neighbours and those of every component of
    G[S] it touches.  The DP pushes: once ``f[S]`` is final, the components
    of G[S] are found once, with their neighbourhoods, and ``f[S + v]`` is
    relaxed for every v outside S.
    """
    if g.n > _MAX_TREE_WIDTH_N:
        raise SizeGuardError(
            f"tree_width exact search limited to n <= _MAX_TREE_WIDTH_N = {_MAX_TREE_WIDTH_N}"
        )
    n = g.n
    if n == 0:
        return -1
    masks = g.adjacency_masks
    full = (1 << n) - 1
    f = [n] * (1 << n)
    f[0] = 0
    for s in range(full):
        f_s = f[s]
        # reach[v]: the neighbours of v and of each component of G[s] next to v
        reach = list(masks)
        for _, nb in component_masks(masks, s):
            for v in _bits(nb):
                reach[v] |= nb
        outside = full & ~s
        m = outside
        while m:
            b = m & -m
            m ^= b
            t = s | b
            cand = max(f_s, (reach[b.bit_length() - 1] & outside & ~b).bit_count())
            if cand < f[t]:
                f[t] = cand
    return f[full]


# ---------------------------------------------------------------------------
# Duality certificates


def verify_td_certificate(
    g: Graph, a: frozenset[int], k: int, m: int, td: TreeDecomposition
) -> bool:
    """Adhesion below k and every part separable from ``a`` by fewer than m."""
    check_k(k)
    if not validate_td(g, td):
        raise ValueError("invalid tree-decomposition")
    if any(len(s) >= k for s in td.adhesion_sets()):
        return False
    return all(min_separator_size(g, a, p) < m for p in td.parts)


@dataclass(frozen=True)
class DualityReport:
    k: int
    m: int
    max_kconn: int
    ktw: int
    tw: int
    set_certificate: frozenset[int] | None
    td_certificate: TreeDecomposition | None
    separability: tuple[int, ...]
    best_td: TreeDecomposition


def check_duality(g: Graph, a, k: int, m: int) -> DualityReport:
    """Search both sides of the duality and report verified certificates.

    The set certificate is a k-connected subset of ``a`` of size at least m;
    the decomposition certificate is an adhesion-<k tree-decomposition whose
    parts can all be separated from ``a`` by fewer than m vertices.  Both
    searches are exhaustive; neither side is inferred from the other.
    """
    if g.n > _MAX_EXACT_N:
        raise SizeGuardError(f"check_duality limited to n <= _MAX_EXACT_N = {_MAX_EXACT_N}")
    if m < k:
        raise ValueError("m must be at least k")
    fa = frozenset(a)
    subset = max_k_connected_subset(g, fa, k)
    set_cert = subset.vertices if subset.vertices is not None and subset.size >= m else None
    if set_cert is not None and not is_k_connected(g, set_cert, k).ok:
        raise AssertionError("set certificate failed re-verification")

    value, td = _min_max_decomposition(g, k, lambda p: min_separator_size(g, fa, p))
    separability = tuple(min_separator_size(g, fa, p) for p in td.parts)
    td_cert = td if value < m else None
    if td_cert is not None and not verify_td_certificate(g, fa, k, m, td_cert):
        raise AssertionError("decomposition certificate failed re-verification")
    return DualityReport(
        k=k,
        m=m,
        max_kconn=subset.size,
        ktw=k_tree_width(g, k),
        tw=tree_width(g),
        set_certificate=set_cert,
        td_certificate=td_cert,
        separability=separability,
        best_td=td,
    )


# ---------------------------------------------------------------------------
# Quantitative bounds


@dataclass(frozen=True)
class SectionBoundsReport:
    k: int
    s_bigger: int  # largest (k+1)-connected set size (sentinel k if none)
    s_prime: int  # largest k-connected set size (sentinel k-1 if none)
    w: int  # k-tree-width (min-max part size convention)
    tw: int
    djgt_lower_ok: bool  # s >= 3k implies tw >= k
    djgt_upper_ok: bool  # s < 3k implies tw < 4k
    gj_lower_ok: bool | None  # w <= s' (when s' >= k)
    gj_upper_ok: bool | None  # s' <= C(w+1, k-1)(k-1) (when s' >= k and k >= 2)


def verify_sec1_bounds(g: Graph, k: int) -> SectionBoundsReport:
    """Evaluate the two classical connectivity/width bounds on one graph."""
    if g.n > _MAX_EXACT_N:
        raise SizeGuardError(f"verify_sec1_bounds limited to n <= _MAX_EXACT_N = {_MAX_EXACT_N}")
    s_big = max_k_connected_subset(g, g.vertex_set, k + 1).size
    s_prime = max_k_connected_subset(g, g.vertex_set, k).size
    w = k_tree_width(g, k)
    tw = tree_width(g)
    djgt_lower = (s_big < 3 * k) or (tw >= k)
    djgt_upper = (s_big >= 3 * k) or (tw < 4 * k)
    gj_lower = gj_upper = None
    if s_prime >= k:
        gj_lower = w <= s_prime
        if k >= 2:
            gj_upper = s_prime <= math.comb(w + 1, k - 1) * (k - 1)
    return SectionBoundsReport(
        k=k,
        s_bigger=s_big,
        s_prime=s_prime,
        w=w,
        tw=tw,
        djgt_lower_ok=djgt_lower,
        djgt_upper_ok=djgt_upper,
        gj_lower_ok=gj_lower,
        gj_upper_ok=gj_upper,
    )
