"""k-lean checking and construction of k-lean tree-decompositions.

A decomposition of adhesion below k is k-lean when every demand of two
equal-size vertex sets of at most k vertices, placed in two (possibly
equal) parts, is answered either by that many disjoint paths or by an edge
of the decomposition tree between the parts inducing a separation smaller
than the demand.  Demands of size up to ``top`` between parts P1 and P2 hold
iff no separation (C, D) of order s < top has more than s vertices of P1 in C
and more than s of P2 in D.  :func:`kconnkit.kconn.first_failed_pair` tests
this by a separator scan without flows, or a flow per demand on hosts where
that is cheaper, and returns the first failed demand.

The builder starts from the trivial decomposition and resolves violations
by splitting along a minimum separator: the tree is doubled into an A-copy
and a B-copy whose parts are trimmed to the respective side and padded with
separator vertices along witness path systems.  That split never increases
any part or adhesion set, and the two copies join at the nodes holding the
violating sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# menger_count is unused here but kept: the benchmark's tracer wraps lean.menger_count.
from .graph_core import Graph, check_k, check_vertices, components, menger, menger_count  # noqa: F401
from .kconn import first_failed_pair
from .sepsys import NestedSeparationSystem, TreeDecomposition, consistent_orientations, part_of


@dataclass(frozen=True)
class LeanViolation:
    """A failed demand: fewer than ``len(z1)`` disjoint paths and no small
    inducing separation between the holding parts (t1, t2)."""

    t1: int
    t2: int
    z1: frozenset[int]
    z2: frozenset[int]
    max_paths: int

    def __bool__(self) -> bool:
        return False


def _min_path_adhesion(td: TreeDecomposition, t1: int, t2: int) -> int | None:
    """Smallest adhesion set size along the t1-t2 tree path; None if t1 == t2."""
    if t1 == t2:
        return None
    prev = {t1: t1}
    queue = [t1]
    for t in queue:
        for w in td.tree.neighbors(t):
            if w not in prev:
                prev[w] = t
                queue.append(w)
    sizes = []
    while t2 != t1:
        sizes.append(len(td.parts[t2] & td.parts[prev[t2]]))
        t2 = prev[t2]
    return min(sizes)


def _first_violation(
    g: Graph,
    parts: list[frozenset[int]],
    k: int,
    cut_order: Callable[[int, int], int | None],
) -> LeanViolation | None:
    """The first failed demand between parts ``i <= j``, in scan order.

    ``cut_order(i, j)`` is the smallest order of a separation the structure
    offers between the two parts (None if it offers none); demands larger
    than it are answered by that separation.
    """
    for i, part_i in enumerate(parts):
        for j in range(i, len(parts)):
            cut = cut_order(i, j)
            top = k if cut is None else min(k, cut)
            failed = first_failed_pair(g, part_i, parts[j], top)
            if failed is not None:
                return LeanViolation(i, j, *failed)
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
    for s in td.adhesion_sets():
        if len(s) >= k:
            raise ValueError(f"adhesion set {sorted(s)} has size >= k={k}")
    violation = _first_violation(
        g, list(td.parts), k, lambda t1, t2: _min_path_adhesion(td, t1, t2)
    )
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


def build_k_lean_td(g: Graph, k: int, max_rounds: int = 10_000) -> TreeDecomposition:
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
        if rounds > max_rounds:
            raise RuntimeError("k-lean refinement did not converge")
        parts, edges = _split_on_violation(g, td, verdict)
        parts, edges = _normalize(parts, edges)


def _split_on_violation(
    g: Graph, td: TreeDecomposition, v: LeanViolation
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    res = menger(g, v.z1, v.z2)
    x = res.separator
    # orient the separation so that z1 lies in the a-side
    side_a = set(x)
    for comp in components(g, g.vertex_set - x):
        if comp & (v.z1 - x):
            side_a |= comp
    a = frozenset(side_a)
    b = (g.vertex_set - a) | x

    p_paths = _endpoint_paths(g, a, v.z1, x, start_in_x=False)
    q_paths = _endpoint_paths(g, b, x, v.z2, start_in_x=True)
    if set(p_paths) != set(x) or set(q_paths) != set(x):
        raise AssertionError("witness path systems must hit every separator vertex")

    n_old = td.tree.n
    new_parts: list[frozenset[int]] = []
    for t in range(n_old):  # A-copy
        extra = {xx for xx, pv in q_paths.items() if pv & td.parts[t]}
        new_parts.append((td.parts[t] & a) | frozenset(extra))
    for t in range(n_old):  # B-copy
        extra = {xx for xx, pv in p_paths.items() if pv & td.parts[t]}
        new_parts.append((td.parts[t] & b) | frozenset(extra))
    new_edges = [(u, w) for u, w in td.tree.sorted_edges()]
    new_edges += [(u + n_old, w + n_old) for u, w in td.tree.sorted_edges()]
    new_edges.append((v.t2, v.t1 + n_old))
    return new_parts, new_edges


def _endpoint_paths(
    g: Graph, side: frozenset[int], src: frozenset[int], dst: frozenset[int], start_in_x: bool
) -> dict[int, frozenset[int]]:
    """Disjoint path system inside ``g[side]``, indexed by its endpoint in
    the separator (src-to-dst with the separator at ``dst`` or ``src``)."""
    sub, old = g.induced_subgraph(side)
    idx = {o: i for i, o in enumerate(old)}
    res = menger(sub, {idx[v] for v in src if v in side}, {idx[v] for v in dst if v in side})
    out: dict[int, frozenset[int]] = {}
    for p in res.paths.paths:
        verts = frozenset(old[v] for v in p)
        endpoint = old[p[0]] if start_in_x else old[p[-1]]
        out[endpoint] = verts
    return out


def _normalize(
    parts: list[frozenset[int]], edges: list[tuple[int, int]]
) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """Contract tree edges whose one part is contained in the other."""
    adj: dict[int, set[int]] = {t: set() for t in range(len(parts))}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    alive = set(range(len(parts)))
    changed = True
    while changed:
        changed = False
        for u in sorted(alive):
            for w in sorted(adj[u]):
                if parts[u] <= parts[w]:
                    for nb in adj[u]:
                        if nb != w:
                            adj[nb].discard(u)
                            adj[nb].add(w)
                            adj[w].add(nb)
                    adj[w].discard(u)
                    alive.discard(u)
                    adj[u] = set()
                    changed = True
                    break
            if changed:
                break
    order = sorted(alive)
    rename = {t: i for i, t in enumerate(order)}
    new_parts = [parts[t] for t in order]
    # ``rename`` keeps the order, so u < w gives each edge once as (low, high)
    new_edges = sorted((rename[u], rename[w]) for u in order for w in adj[u] if u < w)
    return new_parts, new_edges