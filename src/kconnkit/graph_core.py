"""Finite simple graphs, separations, and vertex-disjoint path computations.

Vertices of a :class:`Graph` are the integers ``0 .. n-1``.  All values are
immutable; every operation returns new values, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class SizeGuardError(Exception):
    """Raised when an exact search would exceed its documented size guard."""


# ---------------------------------------------------------------------------
# Graph


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertex set ``0 .. n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u},{v}) for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]] = ()) -> "Graph":
        """Build a graph, normalising edge pairs and dropping duplicates."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(norm))

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            adj: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            cached = tuple(frozenset(s) for s in adj)
            self.__dict__["_adjacency"] = cached
        return cached

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour sets as bitmasks, for the search routines."""
        cached = self.__dict__.get("_masks")
        if cached is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            cached = tuple(masks)
            self.__dict__["_masks"] = cached
        return cached

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def add_edges(self, extra: Iterable[Sequence[int]]) -> "Graph":
        return Graph.from_edges(self.n, list(self.edges) + [tuple(e) for e in extra])

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
        if sorted(perm) != list(range(self.n)):
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


def check_vertices(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    """``vs`` as a frozenset, or ``ValueError`` naming a vertex outside ``g``."""
    fs = frozenset(vs)
    for v in fs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside graph")
    return fs


def check_k(k: int) -> None:
    """``ValueError`` unless the connectivity parameter ``k`` is non-negative."""
    if k < 0:
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


def components(g: Graph, within: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Components of ``g[within]`` (all of ``g`` by default), in original ids.

    Components are ordered by their smallest vertex.
    """
    allowed = (1 << g.n) - 1 if within is None else _mask_of(check_vertices(g, within))
    return [frozenset(_bits(c)) for c, _ in component_masks(g.adjacency_masks, allowed)]


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
        return Separation(frozenset(obj["a"]), frozenset(obj["b"]))


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
# capacity-1 arc; graph edges become arcs whose capacity is effectively
# unlimited (the vertex caps bound them to one unit anyway).  Because only
# split arcs can saturate, the min cut consists of split arcs and reads off
# directly as a minimum vertex separator.  Augmentation is Edmonds-Karp with
# neighbours scanned in a fixed ascending order, so witnesses are
# reproducible.
#
# A search confined to part of the graph passes the vertex mask ``within``:
# a vertex outside it gets split-arc capacity 0, so no path enters it.  The
# residual search may step onto such a vertex's in-node but goes no further,
# and the arcs among the other vertices keep the induced subgraph's order, so
# the flow and its paths are the induced subgraph's, in the host's ids.


@dataclass(frozen=True)
class PathSystem:
    """A tuple of pairwise vertex-disjoint paths, each a vertex sequence."""

    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class MengerResult:
    count: int
    paths: PathSystem
    separator: frozenset[int]


class _FlowNet:
    """Static flow-network skeleton for one host graph.

    Source and sink are virtual: augmenting searches seed every a_in node
    and stop at the first b_out node, so the arc arrays never change between
    calls and only the capacity vector is copied.
    """

    __slots__ = ("head", "cap0", "out")

    def __init__(self, g: Graph):
        self.head: list[int] = []
        self.cap0: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(2 * g.n)]
        big = g.n + 1
        for v in range(g.n):
            _add_arc(self.out, self.head, self.cap0, 2 * v, 2 * v + 1, 1)
        for u, v in sorted(g.edges):
            _add_arc(self.out, self.head, self.cap0, 2 * u + 1, 2 * v, big)
            _add_arc(self.out, self.head, self.cap0, 2 * v + 1, 2 * u, big)
        self.out = [tuple(arcs) for arcs in self.out]  # type: ignore[assignment]


def _add_arc(
    out: list[list[int]], head: list[int], cap: list[int], u: int, v: int, c: int
) -> None:
    out[u].append(len(head))
    head.append(v)
    cap.append(c)
    out[v].append(len(head))
    head.append(u)
    cap.append(0)


@lru_cache(maxsize=4096)
def _flow_net(g: Graph) -> _FlowNet:
    return _FlowNet(g)


def _run_flow(
    g: Graph,
    fa: frozenset[int],
    fb: frozenset[int],
    weighted: bool = False,
    within: int | None = None,
) -> tuple[int, list[int], list[int]]:
    """Max flow; returns (value, cap, cap0) for witness extraction.

    In weighted mode split arcs carry K for interior vertices and K+1 for
    vertices of ``a | b``, so the min cut is a minimum separator preferring
    interior vertices among equally small ones.  Paths stay inside the
    vertex mask ``within`` (everywhere by default).  Every flow entry point
    passes through here, so this is where vertex ids are range-checked.
    """
    check_vertices(g, fa | fb)
    net = _flow_net(g)
    head = net.head
    out = net.out
    if weighted:
        k_unit = g.n + 2
        big = (k_unit + 1) * g.n + 1
        cap = net.cap0.copy()
        cap0 = cap.copy()
        for i in range(2 * g.n, len(cap)):
            if cap[i] > 1:
                cap[i] = cap0[i] = big
        for v in range(g.n):
            w = k_unit + 1 if v in fa or v in fb else k_unit
            cap[2 * v] = cap0[2 * v] = w
    else:
        cap = net.cap0.copy()
        cap0 = net.cap0
    if within is not None:
        cap0 = cap0.copy()
        for v in _bits(((1 << g.n) - 1) & ~within):
            cap[2 * v] = cap0[2 * v] = 0

    seeds = sorted(2 * v for v in fa)
    exits = set(2 * v + 1 for v in fb)
    target = min(len(fa), len(fb))
    if weighted:
        target *= g.n + 3
    flow = 0
    nodes = 2 * g.n
    while flow < target:
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
    return flow, cap, cap0


def _extract_paths(
    g: Graph, fa: frozenset[int], fb: frozenset[int], count: int, cap: list[int], cap0: list[int]
) -> PathSystem:
    """Decompose the flow into vertex sequences and trim them to a-b paths."""
    used = [cap0[2 * v] - cap[2 * v] > 0 for v in range(g.n)]
    succ: dict[int, int] = {}
    has_inflow: set[int] = set()
    arc = 2 * g.n
    for u, v in sorted(g.edges):
        if cap0[arc] - cap[arc] > 0:
            succ[u] = v
            has_inflow.add(v)
        if cap0[arc + 2] - cap[arc + 2] > 0:
            succ[v] = u
            has_inflow.add(u)
        arc += 4

    paths: list[tuple[int, ...]] = []
    for s in sorted(fa):
        if not used[s] or s in has_inflow:
            continue
        seq = [s]
        while seq[-1] in succ:
            seq.append(succ[seq[-1]])
        last_a = max(i for i, v in enumerate(seq) if v in fa)
        seq = seq[last_a:]
        first_b = min(i for i, v in enumerate(seq) if v in fb)
        paths.append(tuple(seq[: first_b + 1]))
    if len(paths) != count:
        raise AssertionError("flow decomposition lost paths")
    return PathSystem(tuple(paths))


def menger(g: Graph, a: Iterable[int], b: Iterable[int]) -> MengerResult:
    """Maximum system of pairwise vertex-disjoint a-b paths.

    Returns the count, a witnessing path system, and a minimum a-b separator
    of the same size.  A vertex of ``a & b`` counts as a trivial path and is
    forced into every separator.
    """
    fa = frozenset(a)
    fb = frozenset(b)
    paths = _disjoint_paths(g, fa, fb)
    separator = _min_separator(g, fa, fb)
    if len(separator) != len(paths):
        raise AssertionError("mincut size does not match maxflow")
    return MengerResult(len(paths), paths, separator)


def _disjoint_paths(
    g: Graph, fa: frozenset[int], fb: frozenset[int], within: int | None = None
) -> PathSystem:
    """The path system of :func:`menger` in ``g[within]``, in ``g``'s ids."""
    count, cap, cap0 = _run_flow(g, fa, fb, within=within)
    return _extract_paths(g, fa, fb, count, cap, cap0)


def _min_separator(g: Graph, fa: frozenset[int], fb: frozenset[int]) -> frozenset[int]:
    """The minimum a-b separator that :func:`menger` reports.

    It comes from a weighted flow whose min cut consists of split arcs only
    and, among minimum separators, prefers interior vertices.  The virtual
    source reaches every a_in node, so those seed the residual reachability.
    """
    _, wcap, _ = _run_flow(g, fa, fb, weighted=True)
    net = _flow_net(g)
    reach = 0
    stack = []
    for v in fa:
        reach |= 1 << (2 * v)
        stack.append(2 * v)
    while stack:
        u = stack.pop()
        for e in net.out[u]:
            v = net.head[e]
            if wcap[e] > 0 and not (reach >> v) & 1:
                reach |= 1 << v
                stack.append(v)
    return frozenset(
        v for v in range(g.n) if (reach >> (2 * v)) & 1 and not (reach >> (2 * v + 1)) & 1
    )


def menger_count(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    """Exact maximum number of disjoint a-b paths (cached per graph)."""
    return _menger_count_cached(g, frozenset(a), frozenset(b))


@lru_cache(maxsize=1 << 20)
def _menger_count_cached(g: Graph, fa: frozenset[int], fb: frozenset[int]) -> int:
    if (len(fb), sorted(fb)) < (len(fa), sorted(fa)):
        fa, fb = fb, fa
    return _run_flow(g, fa, fb)[0]


def validate_path_system(
    g: Graph, ps: PathSystem, a: Iterable[int], b: Iterable[int]
) -> bool:
    """Check that ``ps`` is a system of pairwise disjoint a-b paths in ``g``."""
    fa, fb = frozenset(a), frozenset(b)
    seen: set[int] = set()
    for p in ps.paths:
        if not p:
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
    return Graph.from_edges(int(obj["n"]), obj["edges"])


def graph_to_json_str(g: Graph) -> str:
    return json.dumps(graph_to_json(g), separators=(",", ":"), sort_keys=True)


def graph_from_json_str(s: str) -> Graph:
    return graph_from_json(json.loads(s))


def graph_to_dot(g: Graph, labels: dict[int, str] | None = None, colors: dict[int, str] | None = None) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        attrs = []
        if labels and v in labels:
            attrs.append(f'label="{labels[v]}"')
        if colors and v in colors:
            attrs.append(f'style=filled fillcolor="{colors[v]}"')
        attr = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{attr};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
