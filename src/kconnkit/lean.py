"""k-lean checking and construction of k-lean tree-decompositions.

A decomposition of adhesion below k is k-lean when every demand of two
equal-size vertex sets of at most k vertices, placed in two (possibly
equal) parts, is answered either by that many disjoint paths or by an edge
of the decomposition tree between the parts inducing a separation smaller
than the demand.  Demands of size up to ``top`` between parts P1 and P2 hold
iff no separation (C, D) of order s < top has more than s vertices of P1 in C
and more than s of P2 in D.  :func:`kconnkit.kconn.first_failed_pair` tests
this by a separator scan without flows and returns the first failed demand.

Each host graph keeps the set of demands that passed a scan, as triples
(p1, p2, top) with the sets as masks and ``top`` clipped to ``min(top,
|p1|, |p2|)``; a demand already in it passes without a scan.  The
condition is symmetric in the two sets, so the two masks are stored in
ascending order.  A failed demand is never stored, so every violation
comes from a fresh scan.  The store is a weak mapping keyed by the graph,
and equal graphs share an entry.  It is weak in name only: the bounded
caches keyed by the graph, ``graph_core._flow_net`` (every split runs
:func:`~kconnkit.graph_core.menger`) and ``kconn._tight_separators``, hold
their hosts strongly, so an entry lives until those caches evict its host.

The builder starts from the trivial decomposition and resolves violations
by splitting along one :func:`~kconnkit.graph_core.menger` system of the
violating sets z1, z2: a minimum separator X, its side A (X plus the
components of G - X meeting z1 - X) and as many disjoint paths, each
meeting X once (Bellenbaum & Diestel, CPC 11, 2002).  The tree is doubled
into an A-copy and a B-copy, B = (V - A) | X, whose parts are trimmed to
the respective side and padded with the vertex of X on each path whose
other-side half meets them.  That split never increases any part or
adhesion set, and the two copies join at the nodes holding the violating
sets.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

from .graph_core import Graph, SizeGuardError, _mask_of, check_k, check_vertices, menger
# menger_count is unused here but kept: the benchmark's tracer wraps lean.menger_count.
from .graph_core import menger_count  # noqa: F401
from .kconn import first_failed_pair
from .sepsys import NestedSeparationSystem, TreeDecomposition, consistent_orientations, part_of
from .sepsys import tree_edge_sides


@dataclass(frozen=True)
class LeanViolation:
    """A failed demand: exactly ``len(z1) - 1`` disjoint z1-z2 paths and no
    small inducing separation between the holding parts (t1, t2)."""

    t1: int
    t2: int
    z1: frozenset[int]
    z2: frozenset[int]

    def __bool__(self) -> bool:
        return False


# The demands of each host graph that passed a scan, as (low mask, high mask, top).
_passed: weakref.WeakKeyDictionary[Graph, set[tuple[int, int, int]]] = weakref.WeakKeyDictionary()


def _first_violation(
    g: Graph,
    parts: list[frozenset[int]],
    k: int,
    cut_order: Callable[[int, int], int | None],
) -> LeanViolation | None:
    """The first failed demand between parts ``i <= j``, in scan order.

    ``cut_order(i, j)`` is the smallest order of a separation the structure
    offers between the two parts (None if it offers none); demands larger
    than it are answered by that separation.  A demand that already passed
    on ``g``, with the two parts either way round, is not scanned.
    """
    masks = [_mask_of(p) for p in parts]
    passed = _passed.setdefault(g, set())
    for i, part_i in enumerate(parts):
        for j in range(i, len(parts)):
            cut = cut_order(i, j)
            top = min(k if cut is None else min(k, cut), len(part_i), len(parts[j]))
            demand = (min(masks[i], masks[j]), max(masks[i], masks[j]), top)
            if demand in passed:
                continue
            failed = first_failed_pair(g, part_i, parts[j], top)
            if failed is not None:
                return LeanViolation(i, j, *failed)
            passed.add(demand)
    return None


def is_k_lean_td(g: Graph, td: TreeDecomposition, k: int):
    """True, or the first violation in deterministic scan order.

    Requires a tree, parts inside ``g`` and adhesion sets of fewer than k
    vertices.
    """
    check_k(k)
    if not td.tree.is_tree():
        raise ValueError("the decomposition's tree is not a tree")
    check_vertices(g, frozenset().union(*td.parts))
    cuts = [(side, td.parts[u] & td.parts[w]) for u, w, side in tree_edge_sides(td.tree)]
    for _, s in cuts:
        if len(s) >= k:
            raise ValueError(f"adhesion set {sorted(s)} has size >= k={k}")

    # an edge lies on the t1-t2 tree path iff exactly one of t1, t2 is on u's side
    def cut_order(t1: int, t2: int) -> int | None:
        return min((len(s) for side, s in cuts if (side >> t1 ^ side >> t2) & 1), default=None)

    violation = _first_violation(g, list(td.parts), k, cut_order)
    return True if violation is None else violation


def is_k_lean_nss(n: NestedSeparationSystem, k: int):
    """k-leanness for a nested separation system, over orientation parts.

    The empty system is k-lean exactly when the whole vertex set satisfies
    every demand up to min(k, n), which the general scan covers via its one
    (empty) orientation.  The scan runs on the orientation parts directly
    rather than through :func:`nss_to_td`, which rejects systems with a
    separation onto the whole vertex set.
    """
    check_k(k)
    for s in n.seps:
        if s.order >= k:
            raise ValueError(f"member of order {s.order} >= k={k}")
    parts = [part_of(n, o) for o in consistent_orientations(n)]

    def min_sep_between(i: int, j: int) -> int | None:
        return min(
            (s.order for s in n.seps if parts[i] <= s.a and parts[j] <= s.b),
            default=None,
        )

    violation = _first_violation(n.graph, parts, k, min_sep_between)
    return True if violation is None else violation


# ---------------------------------------------------------------------------
# Construction


# The most splits build_k_lean_td makes before it gives up.
_MAX_ROUNDS = 10_000


def build_k_lean_td(g: Graph, k: int) -> TreeDecomposition:
    """A k-lean tree-decomposition of ``g`` by iterative refinement."""
    parts: list[frozenset[int]] = [g.vertex_set]
    edges: list[tuple[int, int]] = []
    rounds = 0
    while True:
        td = TreeDecomposition(Graph.from_edges(len(parts), edges), tuple(parts))
        verdict = is_k_lean_td(g, td, k)
        if verdict is True:
            return td
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise SizeGuardError(f"k-lean refinement exceeded _MAX_ROUNDS = {_MAX_ROUNDS} splits")
        parts, edges = _split_on_violation(g, td, verdict)
        parts, edges = _normalize(parts, edges)


def _split_on_violation(
    g: Graph, td: TreeDecomposition, v: LeanViolation
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    m = menger(g, v.z1, v.z2)
    x = m.separator
    # the separation (a, b) with z1 in a, read off menger's flow
    a = m.side
    b = (g.vertex_set - a) | x

    # each of the len(x) disjoint z1-z2 paths meets x once, at xx: its half up
    # to xx lies in the a-side, its half from xx in the b-side; each copy is
    # padded along the other side's halves, keyed by xx
    halves = [(xx, frozenset(p[: p.index(xx) + 1]), frozenset(p[p.index(xx) :]))
              for p in m.paths for xx in x.intersection(p)]
    n_old = td.tree.n
    new_parts = [(part & a) | {xx for xx, _, q in halves if q & part} for part in td.parts]
    new_parts += [(part & b) | {xx for xx, p, _ in halves if p & part} for part in td.parts]
    edges = td.tree.sorted_edges()
    new_edges = edges + [(u + n_old, w + n_old) for u, w in edges] + [(v.t2, v.t1 + n_old)]
    return new_parts, new_edges


def _normalize(
    parts: list[frozenset[int]], edges: list[tuple[int, int]]
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """Contract tree edges whose one part is contained in the other."""
    adj: dict[int, set[int]] = {t: set() for t in range(len(parts))}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    while pair := next(
        ((u, w) for u in sorted(adj) for w in sorted(adj[u]) if parts[u] <= parts[w]), None
    ):
        u, w = pair
        for nb in adj.pop(u) - {w}:
            adj[nb].discard(u)
            adj[nb].add(w)
            adj[w].add(nb)
        adj[w].discard(u)
    order = sorted(adj)
    rename = {t: i for i, t in enumerate(order)}
    new_parts = [parts[t] for t in order]
    # ``rename`` keeps the order, so u < w gives each edge once as (low, high)
    new_edges = sorted((rename[u], rename[w]) for u in order for w in adj[u] if u < w)
    return new_parts, new_edges