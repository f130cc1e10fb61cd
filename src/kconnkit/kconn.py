"""Deciding and searching k-connected sets.

A set ``a`` is k-connected in ``g`` when every two subsets of equal size
``l <= k`` are joined by ``l`` pairwise vertex-disjoint paths.  By Menger's
theorem two l-sets fail exactly when a separation (C, D) of order s < l has
them on its two sides, so ``a`` is k-connected iff no separation of order
s < k has more than s vertices of ``a`` on each side.

:func:`is_k_connected` decides this either by that separation criterion,
enumerating every separator of fewer than k vertices, or by running a flow
for every pair of subsets; it picks whichever a cost estimate from
``len(a)``, ``g.n`` and ``k`` says is cheaper.  Both give the same verdict
and the same witness: subset pairs are ranked ascending in ``l`` and then
lexicographically, and a negative verdict names the first failing pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .graph_core import (
    Graph,
    _min_separator,
    check_vertices,
    components,
    menger,
    menger_count,
    reachable_mask,
)


@dataclass(frozen=True)
class KConnWitness:
    z1: frozenset[int]
    z2: frozenset[int]
    separator: frozenset[int]


@dataclass(frozen=True)
class KConnVerdict:
    ok: bool
    witness: KConnWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


# The weight of one separator visit against one subset-pair flow.  Timing
# both scans on random connected graphs (n = 10..40, p = 0.1..0.4,
# |a| = 4..10, k = 2..4), every weight from 0.015 to 0.02 picked the cheaper
# scan on all 90 measured shapes (BENCH_3.json, "crossover").
_SCAN_PER_FLOW = 0.02


def is_k_connected(g: Graph, a: Iterable[int], k: int) -> KConnVerdict:
    """Decide whether ``a`` is k-connected in ``g``.

    Requires ``0 <= k <= len(a)`` and every vertex of ``a`` in ``g``.  On
    failure the verdict carries the first violating pair -- smallest pair
    size ``l``, then lexicographically least -- together with a minimum
    separator smaller than ``l``.  Pairs with ``z1 == z2`` always have
    trivial witnesses and are skipped.

    The pair scan runs a flow for each of about ``sum C(len(a), l)**2 / 2``
    pairs.  The separator scan visits the ``sum_{s<k} C(g.n, s)`` sets S of
    fewer than k vertices and looks for a separation of order s = len(S)
    with more than s vertices of ``a`` on each side.  When it is the cheaper
    of the two it decides a positive verdict alone; on a negative one its
    smallest violating s fixes the first failing pair size ``l = s + 1``,
    and the pair scan runs at that size only.
    """
    fa = check_vertices(g, a)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if len(fa) < k:
        raise ValueError(f"set of size {len(fa)} cannot be {k}-connected (needs >= {k})")
    sizes: Iterable[int] = range(1, k + 1)
    pair_cost = sum(math.comb(len(fa), ell) ** 2 for ell in sizes) / 2
    scan_cost = _SCAN_PER_FLOW * sum(math.comb(g.n, s) for s in range(k))
    if scan_cost < pair_cost:
        s = _smallest_violating_order(g, fa, k)
        if s is None:
            return KConnVerdict(True)
        sizes = (s + 1,)
    ordered = sorted(fa)
    for ell in sizes:
        subsets = [frozenset(z) for z in itertools.combinations(ordered, ell)]
        for i, z1 in enumerate(subsets):
            for z2 in subsets[i + 1 :]:
                if menger_count(g, z1, z2) < ell:
                    return KConnVerdict(False, KConnWitness(z1, z2, _min_separator(g, z1, z2)))
    return KConnVerdict(True)


def _smallest_violating_order(g: Graph, fa: frozenset[int], k: int) -> int | None:
    """Least s < k such that some separation of order s has more than s
    vertices of ``fa`` on each side, or ``None``.

    For each separator S the components of ``g - S`` that meet ``fa`` are
    grouped into two sides; each side also holds ``fa & S``.  A subset sum
    over the components' counts of ``fa`` tells whether some grouping gives
    both sides more than s.
    """
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    amask = sum(1 << v for v in fa)
    bits = [1 << v for v in range(g.n)]
    for s in range(k):
        for sep in itertools.combinations(bits, s):
            smask = sum(sep)
            rest = amask & ~smask
            total = rest.bit_count()
            # each side needs `need` vertices of fa outside S
            need = s + 1 - (len(fa) - total)
            if total < 2 * need:
                continue
            allowed = full & ~smask
            sums = 1
            while rest:
                comp = reachable_mask(masks, rest & -rest, allowed)
                rest &= ~comp
                sums |= sums << (comp & amask).bit_count()
            if (sums >> need) & ((1 << (total - 2 * need + 1)) - 1):
                return s
    return None


@dataclass(frozen=True)
class MaxKConnResult:
    size: int
    vertices: frozenset[int] | None


def max_k_connected_subset(g: Graph, a: Iterable[int], k: int) -> MaxKConnResult:
    """A maximum-size k-connected subset of ``a``.

    Exact search from large to small candidate sizes.  Failing witness pairs
    prune supersets: if some (z1, z2) already failed, any candidate
    containing z1 and z2 fails for the same reason.  Among maximum witnesses
    the lexicographically least is returned.  If no subset of size >= k is
    k-connected the sentinel size ``k - 1`` is reported with no vertex set.
    Requires ``k >= 0``.
    """
    fa = check_vertices(g, a)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return MaxKConnResult(len(fa), fa)
    ordered = sorted(fa)
    bad_pairs: list[frozenset[int]] = []
    for size in range(len(fa), k - 1, -1):
        for cand in itertools.combinations(ordered, size):
            cset = frozenset(cand)
            if any(bad <= cset for bad in bad_pairs):
                continue
            verdict = is_k_connected(g, cset, k)
            if verdict.ok:
                return MaxKConnResult(size, cset)
            w = verdict.witness
            bad_pairs.append(w.z1 | w.z2)
    return MaxKConnResult(k - 1, None)


# ---------------------------------------------------------------------------
# Star-or-path dichotomy


@dataclass(frozen=True)
class StarWitness:
    centre: int
    legs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PathWitness:
    path: tuple[int, ...]


def star_or_path(
    g: Graph, u: Iterable[int], m: int
) -> StarWitness | PathWitness | None:
    """Find a star with >= m legs ending in ``u`` or a path visiting >= m
    vertices of ``u``.

    First tries the fast dichotomy on a pruned spanning tree of the
    component of ``u`` (every leaf in ``u``): a node with ``m`` u-reaching
    branches yields a star, otherwise the best u-path of the tree is taken.
    If the tree recipe finds neither, an exact search over the whole graph
    settles existence, so ``None`` really means neither structure exists.
    Success is guaranteed for ``len(u) >= m ** m``.
    """
    fu = frozenset(u)
    if not fu:
        raise ValueError("u must be non-empty")
    comp = next(c for c in components(g) if next(iter(fu)) in c)
    if not fu <= comp:
        raise ValueError("u spans multiple components")

    tree_adj = _pruned_u_tree(g, fu)
    star = _tree_star(tree_adj, fu, m)
    if star is not None:
        return star
    path = _tree_best_u_path(tree_adj, fu)
    if path is not None and sum(1 for v in path if v in fu) >= m:
        return PathWitness(path)
    return _exact_star_or_path(g, fu, m)


def _pruned_u_tree(g: Graph, fu: frozenset[int]) -> dict[int, set[int]]:
    """BFS spanning tree of u's component, pruned until every leaf is in u."""
    root = min(fu)
    parent = {root: root}
    order = [root]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for w in sorted(g.neighbors(v)):
            if w not in parent:
                parent[w] = v
                order.append(w)
    adj: dict[int, set[int]] = {v: set() for v in parent}
    for v, p in parent.items():
        if v != p:
            adj[v].add(p)
            adj[p].add(v)
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v not in fu and len(adj[v]) <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
    return adj


def _tree_star(
    adj: dict[int, set[int]], fu: frozenset[int], m: int
) -> StarWitness | None:
    for c in sorted(adj):
        legs = []
        for nb in sorted(adj[c]):
            leg = _leg_to_u(adj, fu, c, nb)
            if leg is not None:
                legs.append(leg)
            if len(legs) >= m:
                return StarWitness(c, tuple(legs))
    return None


def _leg_to_u(
    adj: dict[int, set[int]], fu: frozenset[int], c: int, nb: int
) -> tuple[int, ...] | None:
    """Shortest path from c into u through the branch at nb (BFS)."""
    prev = {nb: c}
    queue = [nb]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v in fu:
            leg = [v]
            while leg[-1] != c:
                leg.append(prev[leg[-1]])
            return tuple(reversed(leg))
        for w in sorted(adj[v]):
            if w != c and w not in prev:
                prev[w] = v
                queue.append(w)
    return None


def _tree_best_u_path(
    adj: dict[int, set[int]], fu: frozenset[int]
) -> tuple[int, ...] | None:
    """Path of the tree maximising the number of u-vertices visited."""
    if not adj:
        return None
    root = min(adj)
    best: dict = {"count": -1, "path": None}
    down: dict[int, tuple[int, tuple[int, ...]]] = {}

    def dfs(v: int, par: int) -> None:
        child_paths = []
        for w in sorted(adj[v]):
            if w != par:
                dfs(w, v)
                child_paths.append(down[w])
        here = 1 if v in fu else 0
        child_paths.sort(key=lambda t: -t[0])
        if not child_paths:
            down[v] = (here, (v,))
        else:
            c0, p0 = child_paths[0]
            down[v] = (here + c0, (v,) + p0)
        if len(child_paths) >= 2:
            c1, p1 = child_paths[1]
            through = child_paths[0][0] + here + c1
            if through > best["count"]:
                best["count"] = through
                best["path"] = tuple(reversed(child_paths[0][1])) + (v,) + p1
        if down[v][0] > best["count"]:
            best["count"] = down[v][0]
            best["path"] = down[v][1]

    dfs(root, -1)
    return best["path"]


def _exact_star_or_path(
    g: Graph, fu: frozenset[int], m: int
) -> StarWitness | PathWitness | None:
    # star: legs at c are disjoint N(c)-u paths in g - c
    for c in sorted(g.vertices):
        nbrs = g.neighbors(c)
        if len(nbrs) < m:
            continue
        sub, old = g.induced_subgraph(g.vertex_set - {c})
        idx = {o: i for i, o in enumerate(old)}
        res = menger(sub, {idx[v] for v in nbrs}, {idx[v] for v in fu if v != c})
        if res.count >= m:
            legs = tuple(
                (c,) + tuple(old[v] for v in p) for p in res.paths.paths[:m]
            )
            return StarWitness(c, legs)
    # path: DFS over simple paths, pruned by remaining u supply
    target = m
    found: list[tuple[int, ...]] = []

    def dfs(path: list[int], visited: set[int], count: int) -> bool:
        if count >= target:
            found.append(tuple(path))
            return True
        if count + len(fu - visited) < target:
            return False
        for w in sorted(g.neighbors(path[-1])):
            if w not in visited:
                path.append(w)
                visited.add(w)
                if dfs(path, visited, count + (1 if w in fu else 0)):
                    return True
                visited.discard(w)
                path.pop()
        return False

    for s in sorted(g.vertices):
        if dfs([s], {s}, 1 if s in fu else 0):
            return PathWitness(found[0])
    return None


# ---------------------------------------------------------------------------
# Component restrictions and deletion behaviour


def largest_component_restriction(
    g: Graph, a: Iterable[int], s: Iterable[int]
) -> frozenset[int]:
    """``a`` restricted to a component of ``g - s`` carrying most of ``a``.

    Ties go to the component with the smallest vertex.  When ``a`` is
    k-connected and ``len(s) < k`` the result has at least
    ``ceil((len(a) // k - 1) / k)`` vertices (pigeonhole over disjoint
    k-blocks of ``a``).
    """
    fa = frozenset(a)
    best: frozenset[int] = frozenset()
    best_key = (-1, 0)
    for comp in components(g, g.vertex_set - frozenset(s)):
        inter = comp & fa
        key = (len(inter), -min(comp))
        if key > best_key:
            best_key = key
            best = inter
    return best


def kconn_after_deletion(
    g: Graph, a: Iterable[int], k: int, v: int
) -> MaxKConnResult:
    """Largest (k-1)-connected subset of ``a - {v}`` in ``g - v``.

    Exploratory: the size is reported, not bounded.  Requires ``a`` to be
    k-connected in ``g`` and ``k >= 1``.
    """
    fa = frozenset(a)
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_k_connected(g, fa, k).ok:
        raise ValueError("a is not k-connected in g")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside graph")
    sub, old = g.induced_subgraph(g.vertex_set - {v})
    idx = {o: i for i, o in enumerate(old)}
    res = max_k_connected_subset(sub, {idx[w] for w in fa if w != v}, k - 1)
    if res.vertices is None:
        return res
    return MaxKConnResult(res.size, frozenset(old[w] for w in res.vertices))
