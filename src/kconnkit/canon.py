"""Canonical forms, isomorphism, automorphisms, and graph enumeration.

The canonical labelling is a small refine-and-branch scheme (colour
refinement, then individualise vertices of the first non-trivial cell and
take the lexicographically least adjacency key).  It is exact.

Refinement keeps the old colour as the primary sort key, so a round only
splits cells in place, and it re-sorts only the cells with a vertex next to
a cell that split in the round before: any other cell's vertices still see
equal colour multisets.  It thus gives the same dense ranks as re-sorting
every vertex in every round (the reference in the tests), with each cell
in ascending vertex order, and so the same permutations.

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

``connected_graphs`` labels only the vertex augmentations that can be
canonical (McKay, Isomorph-free exhaustive generation, J. Algorithms 26,
1998).  It skips the augmentation of a parent g by a new vertex when some
non-cut vertex of the augmented graph has a larger invariant, (degree,
sorted neighbour degrees), than the new vertex; the test runs on adjacency
masks, before any graph is built.  No class is lost.  Let F be a connected
graph with two or more vertices, and v a non-cut vertex of F whose
invariant is largest among F's non-cut vertices.  F - v is connected, so
its canonical form is in the level before, and one neighbourhood mask
re-creates F with v as the new vertex.  An isomorphism onto F maps the
non-cut vertices of that augmentation onto F's and keeps every invariant,
so no non-cut vertex beats the new one, and the augmentation passes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .graph_core import Graph, _bits, _check_int, reachable_mask


def _refine(adj: tuple[frozenset[int], ...], colors: list[int]) -> tuple[list[int], list[int] | None]:
    """The stable refinement of ``colors`` as dense ranks, and its first
    cell of two or more vertices in ascending order (``None`` if discrete).

    A round sorts a cell's vertices by the sorted tuples of their
    neighbours' colours.  The old colour stays the primary key: a cell
    splits in place, into parts in the order of their tuples, and the later
    cells move up by an offset.  The first round sorts every cell; a later
    round sorts only the cells of two or more vertices of which one has a
    neighbour in a cell that split in the round before, as in any other
    cell the tuples are still equal.  The loop stops after the first round
    with no split, with the ranks of re-sorting every vertex every round.
    """
    parts: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        parts.setdefault(c, []).append(v)
    cells = [parts[c] for c in sorted(parts)]
    new = [0] * len(adj)
    touched: set[int] | None = None  # None: sort every cell
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                new[v] = i
        out: list[list[int]] = []
        split: list[int] = []
        for cell in cells:
            if len(cell) > 1 and (touched is None or not touched.isdisjoint(cell)):
                by_sig: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    by_sig.setdefault(tuple(sorted([new[w] for w in adj[v]])), []).append(v)
                if len(by_sig) > 1:
                    out += [by_sig[sig] for sig in sorted(by_sig)]
                    split += cell
                    continue
            out.append(cell)
        if not split:
            return new, next((cell for cell in cells if len(cell) > 1), None)
        cells = out
        touched = set().union(*(adj[v] for v in split))


def _relabelled_edges(g: Graph, perm: Sequence[int]) -> list[tuple[int, int]]:
    """The edges of ``g`` with ``u`` renamed ``perm[u]``, each as ``(low, high)``."""
    return [(a, b) if (a := perm[u]) < (b := perm[v]) else (b, a) for u, v in g.edges]


def _canon_key(g: Graph, perm: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(_relabelled_edges(g, perm)))


def _search(g: Graph, colors: list[int]) -> tuple[tuple, list[int], int]:
    colors, target = _refine(g.adjacency, colors)
    if target is None:  # discrete: the ranks are the permutation
        return _canon_key(g, colors), colors, 1
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
    return Graph(g.n, frozenset(_relabelled_edges(g, canonical_perm(g))))


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


def _may_be_canonical(masks: Sequence[int], mask: int) -> bool:
    """Whether the graph of ``masks`` plus a new vertex ``n`` adjacent to
    ``mask`` can be its class's canonical augmentation: no non-cut vertex of
    it has a larger invariant, ``(degree, sorted neighbour degrees)``, than
    the new vertex.  Only the vertices whose invariant beats the new
    vertex's are tested for being cut vertices."""
    n = len(masks)
    new = 1 << n
    aug = [m | new if mask >> v & 1 else m for v, m in enumerate(masks)]
    aug.append(mask)
    deg = [m.bit_count() for m in aug]
    top = deg[n], sorted([deg[u] for u in _bits(mask)])
    everyone = (new << 1) - 1
    for v in range(n):
        if deg[v] >= top[0] and (deg[v], sorted([deg[u] for u in _bits(aug[v])])) > top:
            rest = everyone ^ (1 << v)
            if reachable_mask(aug, new, rest) == rest:
                return False
    return True


def connected_graphs(n_max: int) -> Iterator[Graph]:
    """All connected graphs with 1..n_max vertices, one per isomorphism class.

    Grown by vertex augmentation: every connected graph with two or more
    vertices arises from a connected graph one vertex smaller by attaching a
    new vertex with a non-empty neighbourhood.  Only the augmentations that
    ``_may_be_canonical`` passes are labelled: those in which no non-cut
    vertex has a larger invariant than the new vertex.  No class is lost:
    deleting a non-cut vertex of largest invariant leaves a connected graph
    of the level before, and attaching it back passes the filter (the
    module docstring has the argument).  The ``seen`` set drops the repeats
    among the labelled augmentations.  Output is deterministic, ordered by
    (vertex count, canonical edge key); ``n_max < 1`` yields nothing.
    """
    if _check_int(n_max) < 1:
        return
    level: list[Graph] = [Graph.from_edges(1)]
    yield level[0]
    for size in range(2, n_max + 1):
        seen: set[frozenset[tuple[int, int]]] = set()
        nxt: list[Graph] = []
        for g in level:
            masks = g.adjacency_masks
            for mask in range(1, 1 << g.n):
                if not _may_be_canonical(masks, mask):
                    continue
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
