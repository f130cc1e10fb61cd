"""Deciding and searching k-connected sets.

A set ``a`` is k-connected in ``g`` when every two subsets of equal size
``l <= k`` are joined by ``l`` pairwise vertex-disjoint paths; a k-lean
decomposition (:mod:`kconnkit.lean`) asks the same of l-subsets of two parts
``p1`` and ``p2``.  By Menger's theorem no such pair with ``l <= top`` fails
iff no separation (C, D) of order s < top has more than s vertices of ``p1``
in C and more than s of ``p2`` in D.

:func:`first_failed_pair`, the one demand scan of the package, decides this
by enumerating separators of fewer than ``top`` vertices, and returns the
first failing pair, ranked ascending in ``l`` and then lexicographically.  It
runs no flow: the least violating order s fixes ``l = s + 1`` and the
failing pair's ``s`` paths, and bitmask tests against ``z1 & z2`` (route a)
or the order-s separators (route b) decide each pair.  Only the witness
separator of :func:`is_k_connected` comes from a flow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

# menger and menger_count are unused here but kept: the benchmark's tracer
# wraps kconn.menger and kconn.menger_count.
from .graph_core import (
    Graph,
    SizeGuardError,
    _bits,
    _disjoint_paths,
    _mask_of,
    _min_separator,
    check_k,
    check_vertices,
    menger,  # noqa: F401
    menger_count,  # noqa: F401
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

    No flow runs.  The smallest violating order s leaves only the pairs of
    size ``s + 1``, and a pair fails iff some X of at most s vertices
    separates it.  Such an X is a violating separator, so ``len(X) == s`` by
    minimality and ``paths == s``.  If ``z1 & z2`` has s vertices it is X,
    and one reachability test decides the pair (route a); otherwise the pair
    fails iff some violating separator of order s leaves no component meeting
    both ``z1 - S`` and ``z2 - S`` (route b), the rest of that level being
    enumerated only while no separator found so far splits the pair.  A level
    is enumerated T-then-U (see :func:`_violating_separators`), which cannot
    change the witness: each pair, in its fixed order, asks only whether some
    separator of level s splits it.
    """
    top = min(top, len(p1), len(p2))
    level = _smallest_violating_order(g, p1, p2, top)
    return None if level is None else _first_split_pair(g, p1, p2, *level)


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
    in the order of :func:`first_failed_pair`."""
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
    """Each separator S of s vertices of a separation (C, D) with more than s
    vertices of ``p1`` in C and more than s of ``p2`` in D, as the components
    of ``g - S`` that meet ``p1 | p2``.

    S is T, its part inside ``p1 | p2``, plus U outside it: ``t = len(T)``
    descending, then T and U in combination order.  U changes neither what C
    and D need nor ``(p1 | p2) - S``, so the count prefilter runs once per T;
    it implies ``t >= 2s + 2 - len(p1 | p2)``, which is exact when ``p1 ==
    p2``.  A subset sum groups the components of ``g - S`` that meet ``p1 |
    p2``.  One with ``c1`` vertices of ``p1`` and ``c2`` of ``p2`` shifts the
    bitset by ``c1 * w + c2``, ``w = len(p2 - S) + 1``, so bit ``a * w + b``
    is a side C with ``a`` and ``b`` of them outside S.
    """
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    m1 = sum(1 << v for v in p1)
    m2 = sum(1 << v for v in p2)
    both = m1 | m2
    bits = [1 << v for v in range(g.n)] if s else []  # s = 0 needs no lists
    inside = [b for b in bits if b & both]
    outside = [b for b in bits if not b & both]
    low = max(2 * s + 2 - both.bit_count(), s - len(outside), 0)
    for t in range(min(s, len(inside)), low - 1, -1):
        unions = None
        for tsep in itertools.combinations(inside, t):
            tmask = sum(tsep)
            rest = both & ~tmask
            # C needs need1 vertices of p1 outside S, D needs need2 of p2
            need1 = s + 1 - (m1 & tmask).bit_count()
            need2 = s + 1 - (m2 & tmask).bit_count()
            if rest.bit_count() < need1 + need2:
                continue
            if unions is None:
                unions = list(map(sum, itertools.combinations(outside, s - t)))
            for umask in unions:
                allowed = full & ~(tmask | umask)
                comp = reachable_mask(masks, rest & -rest, allowed, rest)  # stops at all of rest
                if not rest & ~comp:
                    continue  # one component: the other side has no vertex outside S
                comps = [comp]
                left = rest & ~comp
                while left:
                    comps.append(reachable_mask(masks, left & -left, allowed))
                    left &= ~comps[-1]
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


# The most candidate sets max_k_connected_subset examines, pruned or decided.
_MAX_CANDIDATES = 20_000


def max_k_connected_subset(g: Graph, a: Iterable[int], k: int) -> MaxKConnResult:
    """A maximum-size k-connected subset of ``a``.

    Exact search from large to small candidate sizes, each candidate decided
    by :func:`first_failed_pair` (no flow runs).  Failing pairs prune
    supersets: if some (z1, z2) already failed, any candidate containing z1
    and z2 fails for the same reason.  Among maximum witnesses the
    lexicographically least is returned.  If no subset of size >= k is
    k-connected the sentinel size ``k - 1`` is reported with no vertex set.
    Requires ``k >= 0``; for k = 0 the kernel finds no pair, so ``a`` itself
    is returned.  The search is exponential in ``len(a)``: examining more than
    ``_MAX_CANDIDATES`` candidate sets, pruned or decided, raises
    :class:`SizeGuardError`.
    """
    fa = check_vertices(g, a)
    check_k(k)
    ordered = sorted(fa)
    bad_pairs: list[frozenset[int]] = []
    sizes = range(len(fa), k - 1, -1)
    candidates = itertools.chain.from_iterable(itertools.combinations(ordered, n) for n in sizes)
    for examined, cand in enumerate(candidates, 1):
        if examined > _MAX_CANDIDATES:
            raise SizeGuardError(
                f"max_k_connected_subset examined more than _MAX_CANDIDATES = {_MAX_CANDIDATES} sets"
            )
        cset = frozenset(cand)
        if any(bad <= cset for bad in bad_pairs):
            continue
        failed = first_failed_pair(g, cset, cset, k)
        if failed is None:
            return MaxKConnResult(len(cset), cset)
        bad_pairs.append(failed[0] | failed[1])
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

    Four stages, in this order, the first witness winning:

    1. tree star: on one BFS tree from ``min(u)``, cut down to the subtree
       that ``u`` spans (so every leaf lies in ``u``), the first node with
       ``m`` tree neighbours is a centre, because each of its branches ends
       in ``u``; its legs come from the flow inside the subtree, started at
       its first ``m`` tree neighbours (one augmentation per leg);
    2. tree path: the best u-path of that tree;
    3. exact star: every vertex as a centre, with legs from the flow in the
       whole graph;
    4. exact path: a search over simple paths, started only at vertices of
       ``u``.  That suffices: a path through m vertices of ``u`` contains the
       subpath from its first u-vertex to its last, with the same count.  It
       is exponential (m = ``len(u)`` = n asks for a Hamiltonian path), so
       more than ``_MAX_PATH_STEPS`` path extensions raise
       :class:`SizeGuardError`.

    The tree stages take O(m) passes over the graph and usually decide; the
    exact stages settle existence, so ``None`` really means neither
    structure exists.  Success is guaranteed for ``len(u) >= m ** m``.
    Requires ``m >= 1``.
    """
    fu = check_vertices(g, u)
    if not fu:
        raise ValueError("u must be non-empty")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    parent, order = _u_tree(g, fu)
    nbrs: dict[int, list[int]] = {v: [] for v in order}
    for v in order[1:]:
        nbrs[v].append(parent[v])
        nbrs[parent[v]].append(v)
    centre = next((c for c in sorted(order) if len(nbrs[c]) >= m), None)
    if centre is not None:
        return _star(g, centre, sorted(nbrs[centre])[:m], fu, m, _mask_of(order))
    path = _tree_best_u_path(nbrs, parent, order, fu)
    if sum(1 for v in path if v in fu) >= m:
        return PathWitness(path)
    full = (1 << g.n) - 1
    stars = (_star(g, c, g.neighbors(c), fu, m, full) for c in g.vertices if g.degree(c) >= m)
    return next((s for s in stars if s), None) or _exact_u_path(g, fu, m)


def _u_tree(g: Graph, fu: frozenset[int]) -> tuple[dict[int, int], list[int]]:
    """The subtree spanned by ``fu`` of the BFS tree from ``min(fu)``
    (neighbours ascending): the union of the tree paths from ``fu`` to the
    root, as its BFS parents and visiting order.  Every leaf of it lies in
    ``fu``."""
    root = min(fu)
    parent = {root: root}
    order = [root]
    for v in order:
        for w in sorted(g.neighbors(v)):
            if w not in parent:
                parent[w] = v
                order.append(w)
    if not fu <= parent.keys():
        raise ValueError("u spans multiple components")
    keep = {root}
    for v in fu:
        while v not in keep:
            keep.add(v)
            v = parent[v]
    order = [v for v in order if v in keep]
    return {v: parent[v] for v in order}, order


def _star(
    g: Graph, c: int, starts: Iterable[int], fu: frozenset[int], m: int, within: int
) -> StarWitness | None:
    """A star at ``c`` with ``m`` legs ending in ``fu``, or ``None``: the legs
    are disjoint paths from ``starts``, neighbours of c, to ``fu - {c}`` inside
    the vertex mask ``within`` that avoid c."""
    legs = _disjoint_paths(g, frozenset(starts), fu - {c}, within=within & ~(1 << c)).paths
    return StarWitness(c, tuple((c,) + p for p in legs[:m])) if len(legs) >= m else None


def _tree_best_u_path(
    nbrs: dict[int, list[int]], parent: dict[int, int], order: list[int], fu: frozenset[int]
) -> tuple[int, ...]:
    """Path of the tree maximising the number of u-vertices visited.

    A DP over the reversed BFS order, children ascending: ``down[v]`` is the
    best path from v into its subtree, and a path bending at v joins its two
    best child paths.
    """
    best_count, best_path = -1, ()
    down: dict[int, tuple[int, tuple[int, ...]]] = {}
    for v in reversed(order):
        here = 1 if v in fu else 0
        child_paths = sorted((down[w] for w in nbrs[v] if w != parent[v]), key=lambda t: -t[0])
        c0, p0 = child_paths[0] if child_paths else (0, ())
        down[v] = (here + c0, (v,) + p0)
        if len(child_paths) >= 2:
            c1, p1 = child_paths[1]
            if c0 + here + c1 > best_count:
                best_count, best_path = c0 + here + c1, tuple(reversed(p0)) + (v,) + p1
        if down[v][0] > best_count:
            best_count, best_path = down[v]
    return best_path


# The most path extensions one exact path stage of star_or_path makes.
_MAX_PATH_STEPS = 200_000


def _exact_u_path(g: Graph, fu: frozenset[int], m: int) -> PathWitness | None:
    """The first path through ``m`` vertices of ``fu`` found by a DFS over
    simple paths on an explicit stack, neighbours ascending, from each vertex
    of ``fu`` in turn; a path visits at most ``len(fu)`` of them.  Raises
    :class:`SizeGuardError` past ``_MAX_PATH_STEPS`` extensions in all."""
    if len(fu) < m:
        return None
    steps = 0
    for s in sorted(fu):
        path, counts, visited = [s], [1], {s}
        branches = [iter(sorted(g.neighbors(s)))]
        while branches:
            if counts[-1] >= m:
                return PathWitness(tuple(path))
            w = next((w for w in branches[-1] if w not in visited), None)
            if w is None:
                branches.pop()
                counts.pop()
                visited.discard(path.pop())
            else:
                steps += 1
                if steps > _MAX_PATH_STEPS:
                    raise SizeGuardError(
                        f"star_or_path made more than _MAX_PATH_STEPS = {_MAX_PATH_STEPS} path steps"
                    )
                path.append(w)
                counts.append(counts[-1] + (w in fu))
                visited.add(w)
                branches.append(iter(sorted(g.neighbors(w))))
    return None
