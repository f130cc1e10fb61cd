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

The same search counts automorphisms.  Aut(G) acts freely on the leaves of
the unpruned tree and keeps their keys, and two leaves with equal keys
differ by an automorphism, so the leaves that reach the least key are
exactly one orbit: |Aut(G)| of them (McKay & Piperno, Practical graph
isomorphism II, arXiv:1301.1493).  ``_search`` returns that number for
its subtree: 1 at a discrete leaf, and at an inner node the sum over the
tried children whose key equals the node's best.  A skipped twin v of a
tried u adds u's count, because the swap (u v) maps u's subtree onto v's
leaf for leaf with the same keys.  A twin class of size t thus multiplies
the count by t at the node that splits it, and by t! along the path that
individualises the whole class.
"""

from __future__ import annotations

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


def _search(g: Graph, colors: list[int]) -> tuple[tuple, list[int], int]:
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
        return _canon_key(g, perm), perm, 1
    best_key = None
    best_perm: list[int] = []
    leaves = 0
    m = g.adjacency_masks
    tried: dict[int, int] = {}  # branched vertex -> size of its twin class in the cell
    for v in target:
        for u in tried:
            if (m[u] ^ m[v]) & ~((1 << u) | (1 << v)) == 0:
                tried[u] += 1  # twin of a tried vertex: the swap maps its subtree here
                break
        else:
            tried[v] = 1
    for v, twins in tried.items():
        branched = list(colors)
        branched[v] = -1  # individualise; refinement re-normalises colours
        key, perm, count = _search(g, branched)
        if best_key is None or key < best_key:
            best_key, best_perm, leaves = key, perm, twins * count
        elif key == best_key:
            leaves += twins * count
    return best_key, best_perm, leaves


@lru_cache(maxsize=1 << 18)
def _canonical(g: Graph) -> tuple[tuple[int, ...], int]:
    """The canonical permutation of ``g`` and its automorphism count."""
    if g.n == 0:
        return (), 1
    _, perm, aut = _search(g, [0] * g.n)
    return tuple(perm), aut


# Cached on top of _canonical only because perfbench/ reads its cache_info().
@lru_cache(maxsize=1 << 18)
def canonical_perm(g: Graph) -> tuple[int, ...]:
    """A permutation ``old -> new`` onto the canonical labelling of ``g``."""
    return _canonical(g)[0]


def canonical_form(g: Graph) -> Graph:
    return g.relabel(canonical_perm(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(map(g.degree, g.vertices)) != sorted(map(h.degree, h.vertices)):
        return False
    return canonical_form(g) == canonical_form(h)


def automorphism_count(g: Graph) -> int:
    """Number of adjacency-preserving permutations of ``g``.

    It is the number of leaves of the unpruned canonical search tree that
    reach the least key, which ``_search`` counts while it labels ``g``
    (twin classes multiply in as factorials; see the module docstring), so
    a count after ``canonical_form`` on the same graph runs no search.
    """
    return _canonical(g)[1]


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
