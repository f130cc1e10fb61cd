"""Canonical forms, isomorphism, automorphisms, and graph enumeration.

The canonical labelling is a small refine-and-branch scheme (colour
refinement, then individualise vertices of the first non-trivial cell and
take the lexicographically least adjacency key).  It is exact.

Twin pruning: the search skips a vertex v of the target cell when a vertex
u tried before it is a twin, N(u) - {v} == N(v) - {u}.  The swap (u v) is
then an automorphism that fixes every individualised vertex, and refinement
is equivariant, so it maps u's subtree onto v's with the same keys.  The
first leaf with the least key lies in u's subtree, so the returned
permutation is the one the unpruned search returns, not only the form.
Complete and complete bipartite graphs take one search path of at most n
nodes; symmetry that twins do not explain, as in cycles, is still searched
in full.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .graph_core import Graph


def _refine(adj: tuple[frozenset[int], ...], colors: list[int]) -> list[int]:
    n = len(adj)
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[sig[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def _canon_key(g: Graph, perm: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]) for u, v in g.edges))


def _search(g: Graph, colors: list[int]) -> tuple[tuple, list[int]]:
    n = g.n
    colors = _refine(g.adjacency, colors)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        perm = [0] * n
        for v in range(n):
            perm[v] = colors[v]
        return _canon_key(g, perm), perm
    best_key = None
    best_perm: list[int] = []
    m = g.adjacency_masks
    tried: list[int] = []
    for v in target:
        if any((m[u] ^ m[v]) & ~((1 << u) | (1 << v)) == 0 for u in tried):
            continue  # twin of a tried vertex: the swap maps its subtree here
        tried.append(v)
        branched = list(colors)
        branched[v] = -1  # individualise; refinement re-normalises colours
        key, perm = _search(g, branched)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    return best_key, best_perm


@lru_cache(maxsize=1 << 18)
def canonical_perm(g: Graph) -> tuple[int, ...]:
    """A permutation ``old -> new`` onto the canonical labelling of ``g``."""
    if g.n == 0:
        return ()
    _, perm = _search(g, [0] * g.n)
    return tuple(perm)


def canonical_form(g: Graph) -> Graph:
    return g.relabel(canonical_perm(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(map(g.degree, g.vertices)) != sorted(map(h.degree, h.vertices)):
        return False
    return canonical_form(g) == canonical_form(h)


def automorphism_count(g: Graph) -> int:
    """Number of adjacency-preserving permutations, by backtracking."""
    n = g.n
    if n == 0:
        return 1
    adj = g.adjacency
    degs = [g.degree(v) for v in range(n)]
    image = [-1] * n
    used = [False] * n
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or degs[w] != degs[v]:
                continue
            ok = True
            for u in adj[v]:
                if u < v and image[u] not in adj[w]:
                    ok = False
                    break
            if ok:
                for u in range(v):
                    if u not in adj[v] and image[u] in adj[w]:
                        ok = False
                        break
            if ok:
                image[v] = w
                used[w] = True
                rec(v + 1)
                used[w] = False
                image[v] = -1

    rec(0)
    return count


# ---------------------------------------------------------------------------
# Enumeration of connected graphs up to isomorphism


def connected_graphs(n_max: int) -> Iterator[Graph]:
    """All connected graphs with 1..n_max vertices, one per isomorphism class.

    Grown by vertex augmentation: every connected graph arises from a
    connected graph one vertex smaller by attaching a new vertex with a
    non-empty neighbourhood (delete any non-cutvertex to see this).  Output
    is deterministic, ordered by (vertex count, canonical edge key).
    """
    if n_max < 1:
        return
    level: list[Graph] = [Graph.from_edges(1)]
    yield level[0]
    for size in range(2, n_max + 1):
        seen: set[frozenset[tuple[int, int]]] = set()
        nxt: list[Graph] = []
        for g in level:
            for mask in range(1, 1 << g.n):
                edges = list(g.edges) + [
                    (v, g.n) for v in range(g.n) if (mask >> v) & 1
                ]
                h = canonical_form(Graph.from_edges(g.n + 1, edges))
                if h.edges not in seen:
                    seen.add(h.edges)
                    nxt.append(h)
        nxt.sort(key=lambda h: sorted(h.edges))
        yield from nxt
        level = nxt


# ---------------------------------------------------------------------------
# graph6 encoding (canonical ids for corpus output)


def to_graph6(g: Graph) -> str:
    """Encode in the standard graph6 format (n <= 62)."""
    if g.n > 62:
        raise ValueError("graph6 small form supports n <= 62 only")
    bits: list[int] = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


def canonical_graph6(g: Graph) -> str:
    return to_graph6(canonical_form(g))
