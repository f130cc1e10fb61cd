"""Deciding and searching k-connected sets.

A set ``a`` is k-connected in ``g`` when every two subsets of equal size
``l <= k`` are joined by ``l`` pairwise vertex-disjoint paths; a k-lean
decomposition (:mod:`kconnkit.lean`) asks the same of l-subsets of two parts
``p1`` and ``p2``.  By Menger's theorem no such pair with ``l <= top`` fails
iff no separation (C, D) of order s < top has more than s vertices of ``p1``
in C and more than s of ``p2`` in D.

:func:`first_failed_pair`, the one demand scan of the package, decides this
either by enumerating every separator of fewer than ``top`` vertices or by
running a flow for every pair of subsets, whichever a cost estimate says is
cheaper.  Both return the first failing pair, ranked ascending in ``l`` and
then lexicographically.  The separator scan runs no flow: its least violating
order s fixes ``l = s + 1`` and the failing pair's ``s`` paths, and bitmask
tests against ``z1 & z2`` (route a) or the order-s separators (route b)
decide each pair.  Only the witness separator of :func:`is_k_connected`
comes from a flow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph_core import (
    Graph,
    _bits,
    _min_separator,
    check_k,
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
    """
    fa = check_vertices(g, a)
    check_k(k)
    if len(fa) < k:
        raise ValueError(f"set of size {len(fa)} cannot be {k}-connected (needs >= {k})")
    failed = first_failed_pair(g, fa, fa, k)
    if failed is None:
        return KConnVerdict(True)
    z1, z2, _ = failed
    return KConnVerdict(False, KConnWitness(z1, z2, _min_separator(g, z1, z2)))


def first_failed_pair(
    g: Graph, p1: frozenset[int], p2: frozenset[int], top: int
) -> tuple[frozenset[int], frozenset[int], int] | None:
    """The first ``(z1, z2, paths)`` with ``z1 <= p1``, ``z2 <= p2``, ``z1 !=
    z2``, ``len(z1) == len(z2) = l <= top`` and only ``paths < l`` disjoint
    z1-z2 paths, or ``None``.  When ``p1 == p2`` only pairs with ``z1 < z2``
    are scanned.  Every vertex must lie in ``g``.

    The pair scan runs about ``sum C(len(p1), l) * C(len(p2), l)`` flows.  The
    separator scan visits ``sum_{s<top} C(g.n, s)`` sets and runs no flow: its
    smallest violating order s leaves only the pairs of size ``s + 1``, and a
    pair fails iff some X of at most s vertices separates it.  Such an X is a
    violating separator, so ``len(X) == s`` by minimality and ``paths == s``.
    If ``z1 & z2`` has s vertices it is X, and one reachability test decides
    the pair (route a); otherwise the pair fails iff some violating separator
    of order s leaves no component meeting both ``z1 - S`` and ``z2 - S``
    (route b), the rest of that level being enumerated only while no
    separator found so far splits the pair.
    """
    same = p1 == p2
    top = min(top, len(p1), len(p2))
    pairs = sum(math.comb(len(p1), ell) * math.comb(len(p2), ell) for ell in range(1, top + 1))
    if _SCAN_PER_FLOW * sum(math.comb(g.n, s) for s in range(top)) < pairs / (2 if same else 1):
        level = _smallest_violating_order(g, p1, p2, top)
        return None if level is None else _first_split_pair(g, p1, p2, *level)
    for ell in range(1, top + 1):
        left = [frozenset(z) for z in itertools.combinations(sorted(p1), ell)]
        right = left if same else [frozenset(z) for z in itertools.combinations(sorted(p2), ell)]
        for i, z1 in enumerate(left):
            for z2 in right[i + 1 :] if same else right:
                if z1 != z2 and (paths := menger_count(g, z1, z2)) < ell:
                    return z1, z2, paths
    return None


_Separator = list[int]  # S given by the components of g - S that meet p1 | p2, as masks


def _first_split_pair(
    g: Graph,
    p1: frozenset[int],
    p2: frozenset[int],
    s: int,
    first: _Separator,
    level: Iterator[_Separator],
) -> tuple[frozenset[int], frozenset[int], int]:
    """The first pair of size ``s + 1`` that a separator of order s splits,
    in the pair scan's order (see :func:`first_failed_pair`)."""
    same = p1 == p2
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    found = [first]

    def cuts(comps: _Separator, m1: int, m2: int) -> bool:
        return not any(c & m1 and c & m2 for c in comps)

    def separated(m1: int, m2: int) -> bool:
        if any(cuts(sep, m1, m2) for sep in found):
            return True
        for sep in level:  # finish level s only as far as this pair needs
            found.append(sep)
            if cuts(sep, m1, m2):
                return True
        return False

    def subsets(p: frozenset[int]) -> list[int]:
        return list(map(sum, itertools.combinations([1 << v for v in sorted(p)], s + 1)))

    left = subsets(p1)
    right = left if same else subsets(p2)
    for i, m1 in enumerate(left):
        for m2 in right[i + 1 :] if same else right:
            if m1 == m2:
                continue
            common = m1 & m2
            if common.bit_count() == s:  # route a: the separator is z1 & z2
                if reachable_mask(masks, m1 & ~common, full & ~common) & m2:
                    continue
            elif not separated(m1, m2):  # route b
                continue
            return frozenset(_bits(m1)), frozenset(_bits(m2)), s
    raise AssertionError("violating separation but no failing pair")


def _smallest_violating_order(
    g: Graph, p1: frozenset[int], p2: frozenset[int], top: int
) -> tuple[int, _Separator, Iterator[_Separator]] | None:
    """Least s < top such that a separation (C, D) of order s has more than s
    vertices of ``p1`` in C and more than s of ``p2`` in D, with the first
    such separator and the unvisited rest of level s; or ``None``."""
    for s in range(top):
        level = _violating_separators(g, p1, p2, s)
        first = next(level, None)
        if first is not None:
            return s, first, level
    return None


def _violating_separators(
    g: Graph, p1: frozenset[int], p2: frozenset[int], s: int
) -> Iterator[_Separator]:
    """Each separator S of s vertices, in combination order, of a separation
    (C, D) with more than s vertices of ``p1`` in C and more than s of ``p2``
    in D, as the components of ``g - S`` that meet ``p1 | p2``.

    A subset sum groups the components of ``g - S`` that meet ``p1 | p2``.  A
    component with ``c1`` vertices of ``p1`` and ``c2`` of ``p2`` shifts its
    bitset by ``c1 * w + c2``, ``w = len(p2 - S) + 1``, so bit ``a * w + b`` is
    a side C with ``a`` and ``b`` of them outside S.
    """
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    m1 = sum(1 << v for v in p1)
    m2 = sum(1 << v for v in p2)
    both = m1 | m2
    for sep in itertools.combinations([1 << v for v in range(g.n)], s):
        smask = sum(sep)
        rest = both & ~smask
        # C needs need1 vertices of p1 outside S, D needs need2 of p2
        need1 = s + 1 - (m1 & smask).bit_count()
        need2 = s + 1 - (m2 & smask).bit_count()
        if rest.bit_count() < need1 + need2:
            continue
        allowed = full & ~smask
        comp = reachable_mask(masks, rest & -rest, allowed)
        if not rest & ~comp:
            continue  # one component: the other side has no vertex outside S
        comps = [comp]
        rest &= ~comp
        while rest:
            comps.append(reachable_mask(masks, rest & -rest, allowed))
            rest &= ~comps[-1]
        w = len(p2) - s + need2  # len(p2 - S) + 1
        sums = 1
        for comp in comps:
            sums |= sums << ((comp & m1).bit_count() * w + (comp & m2).bit_count())
        # a side C with a >= need1 (the shift) leaving D need2 (the low bits)
        fields = ((1 << w * (len(p1) - s)) - 1) // ((1 << w) - 1)
        if (sums >> need1 * w) & fields * ((1 << (len(p2) - s)) - 1):
            yield comps


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
    check_k(k)
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
    fu = check_vertices(g, u)
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
    fa = check_vertices(g, a)
    best: frozenset[int] = frozenset()
    best_key = (-1, 0)
    for comp in components(g, g.vertex_set - check_vertices(g, s)):
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
    check_vertices(g, (v,))
    sub, old = g.induced_subgraph(g.vertex_set - {v})
    idx = {o: i for i, o in enumerate(old)}
    res = max_k_connected_subset(sub, {idx[w] for w in fa if w != v}, k - 1)
    if res.vertices is None:
        return res
    return MaxKConnResult(res.size, frozenset(old[w] for w in res.vertices))
