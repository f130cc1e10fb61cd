"""Finite simple graphs, separations, and vertex-disjoint path computations.

Vertices of a :class:`Graph` are the integers ``0 .. n-1``.  All values are
immutable; every operation returns new values, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence


class SizeGuardError(RuntimeError):
    """Raised when a search would exceed its named ``_MAX_*`` size guard."""


# ---------------------------------------------------------------------------
# Graph


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertex set ``0 .. n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if _check_int(self.n) < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int or not 0 <= u < v < self.n:
                raise ValueError(f"bad edge ({u},{v}) for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]] = ()) -> "Graph":
        """Build a graph, normalising edge pairs and dropping duplicates; ids
        are checked before ordering them, which could raise ``TypeError``."""
        norm = set()
        for u, v in edges:
            norm.add((u, v) if _check_int(u) < _check_int(v) else (v, u))
        return Graph(n, frozenset(norm))

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour sets as bitmasks, for the search routines."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``keep``.

        Returns the new graph together with ``old_ids`` where ``old_ids[new]``
        is the original vertex id.
        """
        old_ids = tuple(sorted(check_vertices(self, keep)))
        index = {old: new for new, old in enumerate(old_ids)}
        edges = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        return Graph.from_edges(len(old_ids), edges), old_ids

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Relabel vertices, mapping old vertex ``v`` to ``perm[v]``."""
        if sorted(map(_check_int, perm)) != list(range(self.n)):
            raise ValueError("perm must be a permutation of the vertices")
        return Graph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def is_connected(self) -> bool:
        return self.n <= 1 or len(components(self)) == 1

    def is_tree(self) -> bool:
        return self.n >= 1 and len(self.edges) == self.n - 1 and self.is_connected()

    def leaves(self) -> frozenset[int]:
        if self.n == 1:
            return frozenset({0})
        return frozenset(v for v in self.vertices if self.degree(v) == 1)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


# ---------------------------------------------------------------------------
# Components and bitmask helpers


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _check_int(x: object) -> int:
    """``x`` if it is a plain ``int`` (not a ``bool``), else ``ValueError``."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def check_vertices(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    """``vs`` as a frozenset, or ``ValueError`` naming an id that is not a
    plain ``int`` or a vertex outside ``g``."""
    fs = frozenset(map(_check_int, vs))
    for v in fs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside graph")
    return fs


def check_k(k: int) -> None:
    """``ValueError`` unless ``k`` is a non-negative plain ``int``."""
    if _check_int(k) < 0:
        raise ValueError(f"k must be non-negative, got {k}")


def _mask_of(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def reachable_mask(masks: Sequence[int], start: int, allowed: int, cover: int = -1) -> int:
    """All vertices reachable from the ``start`` mask inside ``allowed``; the
    search stops early, with a part of them, once it holds all of ``cover``."""
    comp = start & allowed
    frontier = comp
    while frontier and cover & ~comp:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= masks[b.bit_length() - 1]
            m ^= b
        frontier = nxt & allowed & ~comp
        comp |= frontier
    return comp


def component_masks(masks: Sequence[int], allowed: int) -> list[tuple[int, int]]:
    """Components of the graph induced on ``allowed``, each with its
    neighbourhood in the whole graph, as ``(component, neighbourhood)`` masks.

    Components are ordered by their smallest vertex.  The neighbourhood of a
    component lies outside ``allowed``.
    """
    out: list[tuple[int, int]] = []
    rest = allowed
    while rest:
        comp = frontier = rest & -rest
        closed = 0
        while frontier:
            m = frontier
            while m:
                b = m & -m
                closed |= masks[b.bit_length() - 1]
                m ^= b
            frontier = closed & allowed & ~comp
            comp |= frontier
        rest &= ~comp
        out.append((comp, closed & ~comp))
    return out


def components(g: Graph) -> list[frozenset[int]]:
    """Components of ``g``, ordered by their smallest vertex."""
    return [frozenset(_bits(c)) for c, _ in component_masks(g.adjacency_masks, (1 << g.n) - 1)]


# ---------------------------------------------------------------------------
# Separations


@dataclass(frozen=True)
class Separation:
    """An ordered separation ``(a, b)`` with separator ``a & b``."""

    a: frozenset[int]
    b: frozenset[int]

    @staticmethod
    def of(a: Iterable[int], b: Iterable[int]) -> "Separation":
        return Separation(frozenset(a), frozenset(b))

    @property
    def separator(self) -> frozenset[int]:
        return self.a & self.b

    @property
    def order(self) -> int:
        return len(self.a & self.b)

    def inverse(self) -> "Separation":
        return Separation(self.b, self.a)

    def leq(self, other: "Separation") -> bool:
        """The separation order: (A,B) <= (C,D) iff A sub C and D sub B."""
        return self.a <= other.a and other.b <= self.b

    def sort_key(self) -> tuple:
        return (sorted(self.a), sorted(self.b))

    def to_json(self) -> dict:
        return {"a": sorted(self.a), "b": sorted(self.b)}

    @staticmethod
    def from_json(obj: dict) -> "Separation":
        return Separation(frozenset(map(_check_int, obj["a"])), frozenset(map(_check_int, obj["b"])))


def is_separation(g: Graph, s: Separation) -> bool:
    """True iff ``s.a`` and ``s.b`` cover the vertex set with no crossing edge."""
    if s.a | s.b != g.vertex_set:
        return False
    only_a = s.a - s.b
    only_b = s.b - s.a
    return all(not (g.neighbors(u) & only_b) for u in only_a)


# ---------------------------------------------------------------------------
# Menger: maximum vertex-disjoint path systems via unit-capacity flows.
#
# Each vertex v is split into v_in = 2v and v_out = 2v + 1 joined by a
# capacity-1 arc; graph edges become arcs of capacity (n + 3) * n + 1, more
# than all n split arcs carry together even in weighted mode (at most n + 3
# each), so they never saturate.  The min cut therefore consists of split
# arcs and reads off directly as a minimum vertex separator.  Augmentation
# is Edmonds-Karp with neighbours scanned in a fixed ascending order, so
# witnesses are reproducible.
#
# Arc layout, built once per host by ``_flow_net``: arc 2v is v's split arc
# v_in -> v_out, and the i-th sorted edge (u, w) gives arcs 2n + 4i,
# u_out -> w_in, and 2n + 4i + 2, w_out -> u_in.  Every arc e is paired with
# a reverse arc e ^ 1 of capacity 0, so head[e ^ 1] is e's tail and the flow
# on e is the residual cap[e ^ 1].  Source and sink are virtual: a search
# seeds every a_in node, never enters one, and stops at the first b_out
# node.  So the arrays never change between flows, only the capacity vector
# is copied, and each flow path meets a only at its start and b only at its
# end.  The last, failed search of a weighted flow reaches exactly the
# source side of the interior-first minimum cut closest to a: the vertices
# whose in-node it holds are the cut's side, and those of them whose out-node
# it misses are the separator X of menger.

_Path = tuple[int, ...]  # a path as its vertex sequence


@dataclass(frozen=True)
class MengerResult:
    """A maximum system of disjoint a-b paths as vertex tuples, and a minimum
    a-b separator X of the same size with the cut's ``side``, both off one
    flow search: X plus every component of g - X meeting a - X."""

    paths: tuple[_Path, ...]
    separator: frozenset[int]
    side: frozenset[int]


@lru_cache(maxsize=4096)
def _flow_net(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The arc heads, starting capacities and arcs out of each node of
    ``g``'s flow network (see the arc layout above)."""
    big = (g.n + 3) * g.n + 1
    head = [x for v in range(g.n) for x in (2 * v + 1, 2 * v)]
    for u, w in sorted(g.edges):
        head += (2 * w, 2 * u + 1, 2 * u, 2 * w + 1)
    cap0 = (1, 0) * g.n + (big, 0, big, 0) * len(g.edges)
    out: list[list[int]] = [[] for _ in range(2 * g.n)]
    for e in range(len(head)):
        out[head[e ^ 1]].append(e)
    return tuple(head), cap0, tuple(map(tuple, out))


def _run_flow(
    g: Graph,
    fa: frozenset[int],
    fb: frozenset[int],
    weighted: bool = False,
) -> tuple[int, list[int], list[int]]:
    """Max flow; returns (value, residual cap, parent list of the last search).

    A weighted flow runs until that search fails (seeds read -2 in it, nodes
    it missed -1); an unweighted one stops once it reaches min(|a|, |b|).
    In weighted mode split arcs carry K for interior vertices and K+1 for
    vertices of ``a | b``, so the min cut is a minimum separator preferring
    interior vertices among equally small ones.  Every flow entry point
    passes through here, so this is where vertex ids are range-checked.
    """
    check_vertices(g, fa | fb)
    head, cap0, out = _flow_net(g)
    cap = list(cap0)
    if weighted:
        k_unit = g.n + 2
        for v in range(g.n):
            cap[2 * v] = k_unit + 1 if v in fa or v in fb else k_unit

    seeds = sorted(2 * v for v in fa)
    exits = set(2 * v + 1 for v in fb)
    target = min(len(fa), len(fb))
    flow = 0
    nodes = 2 * g.n
    parent: list[int] = []
    while weighted or flow < target:
        # BFS on the residual graph; a_in nodes are even and b_out nodes odd,
        # so a seed is never an exit and every augmenting path is non-empty.
        parent = [-1] * nodes
        queue = list(seeds)
        for s in seeds:
            parent[s] = -2
        hit = -1
        qi = 0
        while qi < len(queue) and hit < 0:
            u = queue[qi]
            qi += 1
            for e in out[u]:
                if cap[e] <= 0:
                    continue
                v = head[e]
                if parent[v] != -1:
                    continue
                parent[v] = e
                if v in exits:
                    hit = v
                    break
                queue.append(v)
        if hit < 0:
            break
        delta = None
        v = hit
        while parent[v] != -2:
            e = parent[v]
            delta = cap[e] if delta is None else min(delta, cap[e])
            v = head[e ^ 1]
        v = hit
        while parent[v] != -2:
            e = parent[v]
            cap[e] -= delta
            cap[e ^ 1] += delta
            v = head[e ^ 1]
        flow += delta
    return flow, cap, parent


def menger(g: Graph, a: Iterable[int], b: Iterable[int]) -> MengerResult:
    """Maximum system of pairwise vertex-disjoint a-b paths.

    Returns the path system, and a minimum a-b separator of the same size
    with its side, both read off one flow's last search
    (see :func:`_min_cut`).  A vertex of ``a & b`` counts as a trivial path
    and is forced into every separator.
    """
    fa, fb = frozenset(a), frozenset(b)
    paths = _disjoint_paths(g, fa, fb)
    separator, side = _min_cut(g, fa, fb)
    if len(separator) != len(paths):
        raise AssertionError("mincut size does not match maxflow")
    return MengerResult(paths, separator, side)


def _disjoint_paths(g: Graph, fa: frozenset[int], fb: frozenset[int]) -> tuple[_Path, ...]:
    """The path system of :func:`menger`: the flow followed from each
    a-vertex whose split arc it uses.  Each path meets a only at its first
    vertex and b only at its last."""
    count, cap, _ = _run_flow(g, fa, fb)
    head = _flow_net(g)[0]
    succ = {head[e ^ 1] >> 1: head[e] >> 1 for e in range(2 * g.n, len(head), 2) if cap[e ^ 1] > 0}

    paths: list[tuple[int, ...]] = []
    for s in sorted(fa):
        if cap[2 * s + 1] > 0:
            seq = [s]
            while seq[-1] in succ:
                seq.append(succ[seq[-1]])
            paths.append(tuple(seq))
    if len(paths) != count:
        raise AssertionError("flow decomposition lost paths")
    return tuple(paths)


def _min_cut(g: Graph, fa: frozenset[int], fb: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The minimum a-b separator X that :func:`menger` reports, and its side.

    One weighted flow, whose min cut consists of split arcs only and, among
    minimum separators, prefers interior vertices.  Its last, failed search
    reaches the in-node of every vertex of the side: X plus every component
    of g - X meeting a - X, since no edge arc saturates and each flow path
    crosses the cut once.  Of those, it misses the out-node of X's vertices.
    """
    _, _, parent = _run_flow(g, fa, fb, weighted=True)
    side = frozenset(v for v in range(g.n) if parent[2 * v] != -1)
    return frozenset(v for v in side if parent[2 * v + 1] == -1), side


def menger_count(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    """Exact maximum number of disjoint a-b paths (cached per graph)."""
    return _menger_count_cached(g, frozenset(a), frozenset(b))


# 4,096 entries: a census of every connected graph with n <= 7 hits the cache
# as often as with no bound, at 29 MB peak RSS instead of 136 MB.
@lru_cache(maxsize=4096)
def _menger_count_cached(g: Graph, fa: frozenset[int], fb: frozenset[int]) -> int:
    # seed the flow from the smaller set (fewer BFS seeds); the key predates the swap
    if (len(fb), sorted(fb)) < (len(fa), sorted(fa)):
        fa, fb = fb, fa
    return _run_flow(g, fa, fb)[0]


def validate_path_system(
    g: Graph, ps: Sequence[Sequence[int]], a: Iterable[int], b: Iterable[int]
) -> bool:
    """Check that ``ps`` is a system of pairwise disjoint a-b paths in ``g``:
    every path is non-empty and every vertex on it a plain ``int`` of ``g``."""
    fa, fb = frozenset(a), frozenset(b)
    seen: set[int] = set()
    for p in ps:
        if not p or any(type(v) is not int or not 0 <= v < g.n for v in p):
            return False
        if p[0] not in fa or p[-1] not in fb:
            return False
        if any(v in fa or v in fb for v in p[1:-1]):
            return False
        if any(not g.has_edge(u, v) for u, v in zip(p, p[1:])):
            return False
        if len(set(p)) != len(p) or seen & set(p):
            return False
        seen |= set(p)
    return True


# ---------------------------------------------------------------------------
# Serialization


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(obj: dict) -> Graph:
    return Graph.from_edges(obj["n"], obj["edges"])
