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
failing pair's ``s`` paths, and bitmask tests decide each pair.  When ``z1 &
z2`` has s vertices it is the separator (route a), and one search per vertex
u of z1, in ``g - (z1 - u)``, decides every such pair of that z1; otherwise
the order-s separators decide it (route b).  Only the witness separator of
:func:`is_k_connected` comes from a flow.

A level is read from a per-host table that holds the tight separators only
(see :func:`_violating_separators` for when a scan enumerates its own): S is
tight when every vertex of S has neighbours in at least two components of
``g - S``.  At the least violating order s every violating separator is
tight.  Let (C, D) violate with separator S, and let x in S have no
neighbour in C - S.  Then (C - x, D) is a separation of order s - 1, with at
least s > s - 1 vertices of ``p1`` in C - x and more than s of ``p2`` in D,
so it violates at order s - 1, against the choice of s.  So x has a
neighbour in C - S and, by symmetry, one in D - S, which lie in distinct
components of ``g - S``.  Below s nothing violates, so reading only tight
sets at every order changes neither the least violating order nor the
separators of that order that route b tests.  Tightness depends on ``g``
alone, so each order's tight separators are found once per host
(:func:`_tight_separators`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# menger and menger_count are unused here but kept: the benchmark's tracer
# wraps kconn.menger and kconn.menger_count.
from .graph_core import (
    Graph,
    SizeGuardError,
    _bits,
    _disjoint_paths,
    _check_int,
    _mask_of,
    _min_cut,
    check_k,
    check_vertices,
    component_masks,
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
    z1, z2 = failed
    return KConnVerdict(False, KConnWitness(z1, z2, _min_cut(g, z1, z2)[0]))


def first_failed_pair(
    g: Graph, p1: frozenset[int], p2: frozenset[int], top: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The first ``(z1, z2)`` with ``z1 <= p1``, ``z2 <= p2``, ``z1 != z2``,
    ``len(z1) == len(z2) = l <= top`` and fewer than l disjoint z1-z2 paths,
    or ``None``.  A failing pair has exactly ``l - 1`` such paths.  When ``p1
    == p2`` only pairs with ``z1 < z2`` are scanned.  Every vertex must lie in
    ``g``.

    No flow runs.  The smallest violating order s leaves only the pairs of
    size ``s + 1``, and a pair fails iff some X of at most s vertices
    separates it.  Such an X is a violating separator, so ``len(X) == s`` by
    minimality and the pair has s paths.  If ``z1 & z2`` has s vertices it
    is X, and what the vertex of ``z1 - X`` reaches in ``g - X`` decides the
    pair (route a, one search per such vertex of z1); otherwise the
    pair fails iff some violating separator of order s leaves no component
    meeting both ``z1 - S`` and ``z2 - S`` (route b), the rest of that level
    being enumerated, whole, by the first pair that takes route b.
    A level is read from the demand or from the host's table of tight
    separators (see :func:`_violating_separators`), which cannot change the
    witness: each pair, in its fixed order, asks only whether some separator
    of level s splits it.
    """
    top = min(top, len(p1), len(p2))
    level = _smallest_violating_order(g, p1, p2, top)
    return None if level is None else _first_split_pair(g, p1, p2, *level)


_Separator = Sequence[int]  # S given by components of g - S (those meeting p1 | p2 at least), as masks


def _first_split_pair(
    g: Graph,
    p1: frozenset[int],
    p2: frozenset[int],
    s: int,
    first: _Separator,
    level: Iterator[_Separator],
) -> tuple[frozenset[int], frozenset[int]]:
    """The first pair of size ``s + 1`` that a separator of order s splits,
    in the order of :func:`first_failed_pair`; it has s disjoint paths.

    Each z1 computes, only when a pair first needs it, one search per vertex
    u of z1: what u reaches in ``g - (z1 - u)`` decides every route-a pair
    with ``z1 & z2 == z1 - u``; and, at its first route-b pair, one mask per
    separator of level s: the components it leaves that meet z1, which a
    pair's z2 misses iff it splits the pair.  The first route-b pair of the
    scan reads the rest of the level.
    """
    same = p1 == p2
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    seps: list[_Separator] = []  # level s, once a route-b pair needs it

    def subsets(p: frozenset[int]) -> list[int]:
        return list(map(sum, itertools.combinations([1 << v for v in sorted(p)], s + 1)))

    left = subsets(p1)
    right = left if same else subsets(p2)
    for i, m1 in enumerate(left):
        reach: dict[int, int] = {}  # u -> what u reaches in g - (z1 - u)
        touched: list[int] | None = None  # per separator of seps, its components meeting z1
        for m2 in right[i + 1 :] if same else right:
            if m1 == m2:
                continue
            common = m1 & m2
            if common.bit_count() == s:  # route a: the separator is z1 & z2
                u = m1 & ~common
                if u not in reach:
                    reach[u] = reachable_mask(masks, u, full & ~common)
                if reach[u] & m2:
                    continue
            else:  # route b
                if touched is None:
                    seps = seps or [first, *level]
                    touched = [sum(c for c in sep if c & m1) for sep in seps]
                if all(map(m2.__and__, touched)):
                    continue
            return frozenset(_bits(m1)), frozenset(_bits(m2))
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
    vertices of ``p1`` in C and more than s of ``p2`` in D, as components of
    ``g - S`` (those meeting ``p1 | p2`` at least).

    The host's table of tight separators (:func:`_tight_separators`) costs
    every s-set of ``g`` once, and later scans read it almost free.  A demand
    with ``len(p1 | p2) >= 2s + 2`` passes every s-set through its count
    bound, so it reads (or builds) the table.  A smaller demand rules most
    s-sets out, so it enumerates S for itself (:func:`_demand_separators`).
    Both give the same least violating order and the same separators at it
    (see the module docstring).
    """
    if 2 * s + 2 > len(p1 | p2):
        return _demand_separators(g, p1, p2, s)
    return _table_separators(g, p1, p2, s)


def _splits(
    comps: Iterable[int], m1: int, m2: int, n1: int, n2: int, s: int, need1: int, need2: int
) -> bool:
    """Whether the components ``comps`` of ``g - S`` can be grouped into a
    side C with at least ``need1`` vertices of ``p1`` outside S, leaving
    ``need2`` of ``p2`` to D; ``n1`` and ``n2`` are ``len(p1)`` and
    ``len(p2)``, and ``m1`` and ``m2`` their masks.

    A subset sum: a component with ``c1`` vertices of ``p1`` and ``c2`` of
    ``p2`` shifts the bitset by ``c1 * w + c2``, ``w = len(p2 - S) + 1``, so
    bit ``a * w + b`` is a side C with ``a`` and ``b`` of them outside S.
    """
    w = n2 - s + need2  # len(p2 - S) + 1
    sums = 1
    for comp in comps:
        sums |= sums << ((comp & m1).bit_count() * w + (comp & m2).bit_count())
    # a side C with a >= need1 (the shift) leaving D need2 (the low bits)
    fields = ((1 << w * (n1 - s)) - 1) // ((1 << w) - 1)
    return bool((sums >> need1 * w) & fields * ((1 << (n2 - s)) - 1))


def _demand_separators(
    g: Graph, p1: frozenset[int], p2: frozenset[int], s: int
) -> Iterator[_Separator]:
    """The violating separators of order s for one demand, as the components
    of ``g - S`` that meet ``p1 | p2``.

    S is T, its part inside ``p1 | p2``, plus U outside it: ``t = len(T)``
    descending, then T and U in combination order.  U changes neither what C
    and D need nor ``(p1 | p2) - S``, so the count prefilter runs once per T;
    it implies ``t >= 2s + 2 - len(p1 | p2)``, which is exact when ``p1 ==
    p2``.
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
                if _splits(comps, m1, m2, len(p1), len(p2), s, need1, need2):
                    yield comps


def _table_separators(
    g: Graph, p1: frozenset[int], p2: frozenset[int], s: int
) -> Iterator[_Separator]:
    """The violating separators of order s among the tight ones of ``g``
    (:func:`_tight_separators`), as all the components of ``g - S``, after
    the count prefilter of :func:`_demand_separators`."""
    m1 = sum(1 << v for v in p1)
    m2 = sum(1 << v for v in p2)
    both = m1 | m2
    for sep, comps in _tight_separators(g, s):
        # C needs need1 vertices of p1 outside S, D needs need2 of p2
        need1 = s + 1 - (m1 & sep).bit_count()
        need2 = s + 1 - (m2 & sep).bit_count()
        if (both & ~sep).bit_count() >= need1 + need2 and _splits(
            comps, m1, m2, len(p1), len(p2), s, need1, need2
        ):
            yield comps


# 4,096 (host, order) tables: one benchmark pass builds 422 on kconn_queries and
# 154 on lean_duality, and a census of every connected graph with n <= 7 builds
# 2,689, so none of them evicts a table.
@lru_cache(maxsize=4096)
def _tight_separators(g: Graph, s: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each tight set S of s vertices of ``g`` (every vertex of S has
    neighbours in at least two components of ``g - S``), in combination
    order, as ``(S, components of g - S)`` masks.

    A vertex x of S fails at once with fewer than two neighbours outside S,
    and otherwise by one search from one of them that stops once it has
    reached all the others: x fails iff it does.  Components are found only
    for tight sets.
    """
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    table = []
    for sep in itertools.combinations([1 << v for v in range(g.n)], s):
        smask = sum(sep)
        allowed = full & ~smask
        for x in sep:
            out = masks[x.bit_length() - 1] & allowed
            if not out & (out - 1) or not out & ~reachable_mask(masks, out & -out, allowed, out):
                break
        else:
            table.append((smask, tuple(c for c, _ in component_masks(masks, allowed))))
    return tuple(table)


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
    bad_pairs: list[int] = []  # z1 | z2 of each failed pair, as masks
    sizes = range(len(fa), k - 1, -1)
    candidates = itertools.chain.from_iterable(itertools.combinations(ordered, n) for n in sizes)
    for examined, cand in enumerate(candidates, 1):
        if examined > _MAX_CANDIDATES:
            raise SizeGuardError(
                f"max_k_connected_subset examined more than _MAX_CANDIDATES = {_MAX_CANDIDATES} sets"
            )
        if not all(map((~_mask_of(cand)).__and__, bad_pairs)):
            continue  # a failed pair lies inside the candidate
        cset = frozenset(cand)
        failed = first_failed_pair(g, cset, cset, k)
        if failed is None:
            return MaxKConnResult(len(cset), cset)
        bad_pairs.append(_mask_of(failed[0] | failed[1]))
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
       in ``u``; its legs are the tree paths through its first ``m`` tree
       neighbours to the first vertex of ``u`` (see :func:`_tree_leg`), and
       no flow runs;
    2. tree path: the best u-path of that tree;
    3. exact star: every vertex c as a centre, with legs from the flow in
       the whole graph from the neighbours of c to ``u - {c}``.  The legs
       avoid c with no vertex mask: a flow path meets its start set only at
       its first vertex and every neighbour of c is a start, so the flow
       never passes through c;
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
    if _check_int(m) < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    parent, order = _u_tree(g, fu)
    nbrs: dict[int, list[int]] = {v: [] for v in order}
    for v in order[1:]:
        nbrs[v].append(parent[v])
        nbrs[parent[v]].append(v)
    centre = next((c for c in sorted(order) if len(nbrs[c]) >= m), None)
    if centre is not None:
        legs = (_tree_leg(nbrs, parent, fu, centre, w) for w in sorted(nbrs[centre])[:m])
        return StarWitness(centre, tuple(legs))
    path = _tree_best_u_path(nbrs, parent, order, fu)
    if sum(1 for v in path if v in fu) >= m:
        return PathWitness(path)
    stars = (_star(g, c, fu, m) for c in g.vertices if g.degree(c) >= m)
    return next((s for s in stars if s), None) or _exact_u_path(g, fu, m)


def _u_tree(g: Graph, fu: frozenset[int]) -> tuple[dict[int, int], list[int]]:
    """The subtree spanned by ``fu`` of the BFS tree from ``min(fu)``
    (neighbours ascending): the union of the tree paths from ``fu`` to the
    root, as its BFS parents and visiting order.  Every leaf of it lies in
    ``fu``.  The BFS stops once it has found all of ``fu``: every vertex on
    those paths, with its parent, was found before."""
    root = min(fu)
    parent = {root: root}
    order = [root]
    missing = len(fu) - 1
    for v in order:
        if not missing:
            break
        for w in sorted(g.neighbors(v)):
            if w not in parent:
                parent[w] = v
                order.append(w)
                missing -= w in fu
    if missing:
        raise ValueError("u spans multiple components")
    keep = {root}
    for v in fu:
        while v not in keep:
            keep.add(v)
            v = parent[v]
    order = [v for v in order if v in keep]
    return {v: parent[v] for v in order}, order


def _tree_leg(
    nbrs: dict[int, list[int]], parent: dict[int, int], fu: frozenset[int], c: int, w: int
) -> tuple[int, ...]:
    """The tree path from ``c`` through its tree neighbour ``w`` to the first
    vertex of ``fu`` after c: up while coming from a child, since the root
    lies in ``fu``; down to the least child while coming from the parent,
    since every leaf lies in ``fu``.  Legs through distinct neighbours of c
    share only c."""
    leg, up = [c, w], w == parent[c]
    while leg[-1] not in fu:
        v = leg[-1]
        leg.append(parent[v] if up else min(x for x in nbrs[v] if x != parent[v]))
    return tuple(leg)


def _star(g: Graph, c: int, fu: frozenset[int], m: int) -> StarWitness | None:
    """A star at ``c`` with ``m`` legs ending in ``fu``, or ``None``: the legs
    are the disjoint paths of one flow from the neighbours of c to ``fu -
    {c}``, which never passes through c (see :func:`star_or_path`)."""
    legs = _disjoint_paths(g, g.neighbors(c), fu - {c})
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
