"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's flow/search machinery: they enumerate
structures directly so that agreement is a real check and not a tautology.
"""

from __future__ import annotations

import itertools

from kconnkit.graph_core import Graph, Separation, components, menger, menger_count
from kconnkit.kconn import KConnVerdict, KConnWitness
from kconnkit.lean import LeanViolation
from kconnkit.sepsys import is_nested_pair, nss_from_separations


def all_ab_paths(g: Graph, a: frozenset[int], b: frozenset[int]) -> list[tuple[int, ...]]:
    """Every a-b path (inner vertices outside a | b), as vertex sequences."""
    out: list[tuple[int, ...]] = []
    blocked = a | b

    def extend(path: list[int]) -> None:
        last = path[-1]
        for w in sorted(g.neighbors(last)):
            if w in path:
                continue
            if w in b:
                out.append(tuple(path) + (w,))
            elif w not in blocked:
                path.append(w)
                extend(path)
                path.pop()

    for s in sorted(a):
        if s in b:
            out.append((s,))
        extend([s])
    return out


def brute_max_disjoint_paths(g: Graph, a, b) -> int:
    """Maximum size of a family of pairwise vertex-disjoint a-b paths."""
    fa, fb = frozenset(a), frozenset(b)
    masks = sorted(
        {
            sum(1 << v for v in p): None for p in all_ab_paths(g, fa, fb)
        }.keys()
    )
    cap = min(len(fa), len(fb))
    best = 0

    def rec(i: int, used: int, cnt: int) -> None:
        nonlocal best
        if cnt > best:
            best = cnt
        if best >= cap or cnt + (len(masks) - i) <= best:
            return
        for j in range(i, len(masks)):
            if not masks[j] & used:
                rec(j + 1, used | masks[j], cnt + 1)
                if best >= cap:
                    return

    rec(0, 0, 0)
    return best


def brute_is_separator(g: Graph, s: frozenset[int], a, b) -> bool:
    """True iff no component of g - s contains vertices of both a-s and b-s."""
    fa, fb = frozenset(a) - s, frozenset(b) - s
    remaining = set(g.vertices) - s
    seen: set[int] = set()
    for start in remaining:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in remaining and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if comp & fa and comp & fb:
            return False
    return True


def min_separator_size(g: Graph, a, b) -> int:
    """Size of a minimum a-b separator, by direct subset enumeration.

    Reference for the flow-based ``menger_count``: ``a & b`` lies in every
    separator, so only subsets of the remaining vertices are tried, smallest
    first.  Exponential; meant for graphs of at most about ten vertices.
    """
    fa, fb = frozenset(a), frozenset(b)
    forced = fa & fb
    rest = sorted(set(g.vertices) - forced)
    for extra in range(len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            if brute_is_separator(g, forced | frozenset(combo), fa, fb):
                return len(forced) + extra
    raise AssertionError("unreachable: deleting every vertex always separates")


def pair_scan_is_k_connected(g: Graph, a, k: int) -> KConnVerdict:
    """``is_k_connected`` by a flow for every pair of l-subsets, l <= k.

    The reference for the separator scan: pairs are tried ascending in l,
    then lexicographically, and the first failing one is the witness.  Unlike
    the oracles above it runs the library's flows, which are themselves
    cross-checked against ``brute_max_disjoint_paths`` and
    ``min_separator_size``.
    """
    ordered = sorted(a)
    for ell in range(1, min(k, len(ordered)) + 1):
        subsets = list(itertools.combinations(ordered, ell))
        for i, z1 in enumerate(subsets):
            for z2 in subsets[i + 1 :]:
                if menger_count(g, frozenset(z1), frozenset(z2)) >= ell:
                    continue
                res = menger(g, z1, z2)
                return KConnVerdict(
                    False, KConnWitness(frozenset(z1), frozenset(z2), res.separator)
                )
    return KConnVerdict(True)


def pair_scan_first_violation(g: Graph, parts, k: int, cut_order):
    """``lean._first_violation`` by a flow for every demand.

    The reference for the demand kernel: for each pair of parts ``i <= j``
    every pair of l-subsets is tried, ascending in l and then
    lexicographically, up to ``min(k, |Pi|, |Pj|)`` and the smallest order
    ``cut_order(i, j)`` of a separation between the parts.
    """
    for i, part_i in enumerate(parts):
        p1 = sorted(part_i)
        for j in range(i, len(parts)):
            p2 = sorted(parts[j])
            min_adh = cut_order(i, j)
            top = min(k, len(p1), len(p2))
            for ell in range(1, top + 1):
                if min_adh is not None and min_adh < ell:
                    break  # a small separation answers this and larger demands
                for z1 in itertools.combinations(p1, ell):
                    for z2 in itertools.combinations(p2, ell):
                        if z1 == z2 or (i == j and z2 < z1):
                            continue
                        fz1, fz2 = frozenset(z1), frozenset(z2)
                        got = menger_count(g, fz1, fz2)
                        if got < ell:
                            return LeanViolation(i, j, fz1, fz2, got)
    return None


def random_graph(rng, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n: int, p: float = 0.4) -> Graph:
    """Random graph plus a random spanning tree, so it is always connected."""
    g = random_graph(rng, n, p)
    verts = list(range(n))
    rng.shuffle(verts)
    extra = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return g.add_edges(extra)


def random_separation(rng, g: Graph, max_sep: int = 3, allow_improper: bool = False):
    """A random separation built from a separator and a component split."""
    size = rng.randint(0, min(max_sep, g.n))
    s = frozenset(rng.sample(range(g.n), size))
    sub_vertices = sorted(set(g.vertices) - s)
    if not sub_vertices:
        return None
    comps = components(g, sub_vertices)
    sides = [rng.randint(0, 1) for _ in comps]
    a = set(s)
    b = set(s)
    for comp, side in zip(comps, sides):
        (a if side == 0 else b).update(comp)
    sep = Separation(frozenset(a), frozenset(b))
    full = g.vertex_set
    if not allow_improper and (sep.a == full or sep.b == full):
        return None
    return sep


def random_nested_system(rng, g: Graph, tries: int = 12, allow_improper: bool = False):
    """A seeded nested separation system grown by rejection sampling.

    Candidates must nest with everything chosen so far.  Improper members
    (one side the whole vertex set) nest with everything, so systems built
    with ``allow_improper`` can carry arbitrarily crossing separators; keep
    it off for corpora that exercise clean-up properties.
    """
    chosen = []
    for _ in range(tries):
        cand = random_separation(rng, g, allow_improper=allow_improper)
        if cand is None:
            continue
        if all(is_nested_pair(cand, t) for t in chosen):
            chosen.append(cand)
    return nss_from_separations(g, chosen)
