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

The min-max search is the one exact width search: ``k_tree_width``,
``check_duality`` and ``verify_sec1_bounds`` run it, and so does
``tree_width`` when its greedy bounds differ.  It works on vertex bitmasks
and calls ``graph_core.component_masks`` (the components of a vertex mask,
each with its neighbourhood mask) once per remainder of a candidate part,
to decide whether the part is feasible before costing it.

The bounds ``verify_sec1_bounds`` checks are those of Diestel, Jensen,
Gorbunov & Thomassen, JCTB 75 (1999), and Geelen & Joeris,
arXiv:1609.09098.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .graph_core import Graph, SizeGuardError, _bits, _check_int, check_k, check_vertices
from .graph_core import component_masks
# menger is unused here but kept: the benchmark's tracer wraps duality.menger.
from .graph_core import menger  # noqa: F401
from .graph_core import menger_count as min_separator_size  # equal by Menger's theorem
from .kconn import is_k_connected, max_k_connected_subset
from .sepsys import TreeDecomposition, validate_td

# Size guard: the most vertices the exhaustive min-max search accepts, and
# so every caller that reaches it.
_MAX_EXACT_N = 10

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

    A part is feasible when every component of the remainder ``comp - part``
    has fewer than k neighbours.  That verdict, with the split of the
    remainder into child regions, is decided once per remainder and before
    the part is costed; only feasible parts are costed, each once per call.
    Skipping the others keeps the value and the witness: an infeasible part
    never wins, and a memo entry does not depend on when its state is first
    reached.  No monotone cost is assumed.  Returns the optimum value
    together with a witnessing decomposition.
    """
    if g.n > _MAX_EXACT_N:
        raise SizeGuardError(
            f"exact decomposition search limited to n <= _MAX_EXACT_N = {_MAX_EXACT_N}"
        )
    if g.n == 0:
        return 0, TreeDecomposition(Graph.from_edges(1), (frozenset(),))
    if k <= 0:
        part = g.vertex_set
        return cost(part), TreeDecomposition(Graph.from_edges(1), (part,))

    masks = g.adjacency_masks
    memo: dict[int, tuple[int, tuple]] = {}
    part_costs: dict[int, int] = {}
    # the child regions of a remainder, or None if one has k or more neighbours
    splits: dict[int, list[tuple[int, int]] | None] = {}

    def best_for(interface: int, comp: int) -> tuple[int, tuple]:
        if comp in memo:
            return memo[comp]
        best_val = math.inf
        best_struct: tuple | None = None
        singles = [1 << v for v in _bits(comp)]
        for size in range(1, len(singles) + 1):
            for extra in combinations(singles, size):
                extra_mask = sum(extra)
                rest = comp & ~extra_mask
                if rest not in splits:
                    split = component_masks(masks, rest)
                    splits[rest] = None if any(nb.bit_count() >= k for _, nb in split) else split
                split = splits[rest]
                if split is None:
                    continue
                part = interface | extra_mask
                part_cost = part_costs.get(part)
                if part_cost is None:
                    part_cost = part_costs[part] = cost(frozenset(_bits(part)))
                if part_cost >= best_val:
                    continue
                val = part_cost
                children = []
                for child_comp, child_if in split:
                    child_val, child_struct = best_for(child_if, child_comp)
                    val = max(val, child_val)
                    if val >= best_val:
                        break
                    children.append(child_struct)
                else:
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

    def emit(struct: tuple, parent: int | None) -> int:
        part, children = struct
        idx = len(parts)
        parts.append(frozenset(_bits(part)))
        if parent is not None:
            edges.append((parent, idx))
        for ch in children:
            emit(ch, idx)
        return idx

    root = None
    for s in structures:  # each root hangs off the previous one
        root = emit(s, root)
    td = TreeDecomposition(Graph.from_edges(len(parts), edges), tuple(parts))
    return value, td


def k_tree_width(g: Graph, k: int) -> int:
    """Minimum over adhesion-<k tree-decompositions of the largest part size."""
    check_k(k)
    value, td = _min_max_decomposition(g, k, len)
    if not validate_td(g, td) or any(len(s) >= k for s in td.adhesion_sets()):
        raise AssertionError("witness decomposition failed validation")
    return value


def _min_degree_width(masks: Sequence[int]) -> int:
    """Width of the elimination order that always takes a vertex of least
    degree (the smallest such): an upper bound on tree-width."""
    adj = list(masks)
    left = (1 << len(adj)) - 1
    width = 0
    while left:
        v = min(_bits(left), key=lambda u: adj[u].bit_count())
        nb = adj[v]
        width = max(width, nb.bit_count())
        for u in _bits(nb):
            adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
        left ^= 1 << v
    return width


def _contraction_degeneracy(masks: Sequence[int]) -> int:
    """Largest least degree met while contracting a vertex of least degree
    into its neighbour of least degree (the smallest of each): a lower bound
    on tree-width, since each graph met is a minor of the first."""
    adj = list(masks)
    left = (1 << len(adj)) - 1
    bound = 0
    while left & (left - 1):
        v = min(_bits(left), key=lambda u: adj[u].bit_count())
        nb = adj[v]
        bound = max(bound, nb.bit_count())
        if nb:
            u = min(_bits(nb), key=lambda w: adj[w].bit_count())
            merged = (adj[u] | nb) & ~(1 << u | 1 << v)
            for w in _bits(nb):
                adj[w] &= ~(1 << v)
            for w in _bits(merged):
                adj[w] |= 1 << u
            adj[u] = merged
        left ^= 1 << v
    return bound


def tree_width(g: Graph) -> int:
    """Exact tree-width: two greedy bounds, then the min-max search if they
    differ.

    The upper bound is the width of the min-degree elimination order, the
    lower bound the contraction degeneracy (Bodlaender & Koster, *Treewidth
    computations I. Upper bounds*, Inf. Comput. 208, 2010, and *II. Lower
    bounds*, Inf. Comput. 209, 2011).  When they meet, that is the
    tree-width.  Otherwise it is the min-max largest part size, less one,
    at adhesion below n + 1, where adhesion is unbounded.
    """
    if g.n == 0:
        return -1
    ub = _min_degree_width(g.adjacency_masks)
    if _contraction_degeneracy(g.adjacency_masks) == ub:
        return ub
    return _min_max_decomposition(g, g.n + 1, len)[0] - 1


# ---------------------------------------------------------------------------
# Duality certificates


def verify_td_certificate(
    g: Graph, a: frozenset[int], k: int, m: int, td: TreeDecomposition
) -> bool:
    """Adhesion below k and every part separable from ``a`` by fewer than m."""
    a = check_vertices(g, a)
    check_k(k)
    _check_int(m)
    if not isinstance(td, TreeDecomposition):
        raise ValueError(f"td must be a TreeDecomposition, got {type(td).__name__}")
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
    fa = check_vertices(g, a)
    check_k(k)
    if _check_int(m) < k:
        raise ValueError("m must be at least k")
    value, td = _min_max_decomposition(g, k, lambda p: min_separator_size(g, fa, p))
    separability = tuple(min_separator_size(g, fa, p) for p in td.parts)
    td_cert = td if value < m else None
    if td_cert is not None and not verify_td_certificate(g, fa, k, m, td_cert):
        raise AssertionError("decomposition certificate failed re-verification")

    subset = max_k_connected_subset(g, fa, k)
    set_cert = subset.vertices if subset.vertices is not None and subset.size >= m else None
    if set_cert is not None and not is_k_connected(g, set_cert, k).ok:
        raise AssertionError("set certificate failed re-verification")
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
    w = k_tree_width(g, k)
    s_big = max_k_connected_subset(g, g.vertex_set, k + 1).size
    s_prime = max_k_connected_subset(g, g.vertex_set, k).size
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
