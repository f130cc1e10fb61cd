"""Nested separation systems, orientations, tree-decompositions, clean-up.

A nested separation system carries its host graph so that parts of
orientations (intersections of the chosen b-sides, the whole vertex set for
the empty orientation) are well defined.  Conversions between systems and
tree-decompositions preserve parts and adhesion; for a finite system every
consistent orientation becomes a tree node.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .graph_core import (
    Graph,
    Separation,
    _bits,
    _check_int,
    _mask_of,
    component_masks,
    graph_from_json,
    graph_to_json,
    is_separation,
    reachable_mask,
)


def is_nested_pair(s1: Separation, s2: Separation) -> bool:
    """True iff some orientation of s1 is comparable to some orientation of s2:
    s1 <= s2, s1 <= s2*, s1* <= s2 or s1* <= s2*, tested on the sides."""
    (a1, b1), (a2, b2) = (s1.a, s1.b), (s2.a, s2.b)
    return (
        a1 <= a2 and b2 <= b1 or a1 <= b2 and a2 <= b1 or b1 <= a2 and b2 <= a1 or b1 <= b2 and a2 <= a1
    )


@dataclass(frozen=True)
class NestedSeparationSystem:
    """A symmetric, pairwise nested set of separations of one graph."""

    graph: Graph
    seps: frozenset[Separation]

    def __post_init__(self) -> None:
        for s in self.seps:
            if not is_separation(self.graph, s):
                raise ValueError(f"not a separation of the host graph: {s}")
            if s.inverse() not in self.seps:
                raise ValueError(f"system is not symmetric at {s}")
        listed = sorted(self.seps, key=Separation.sort_key)
        for s1, s2 in itertools.combinations(listed, 2):
            if not is_nested_pair(s1, s2):
                raise ValueError(f"separations cross: {s1} and {s2}")

    @cached_property
    def pairs(self) -> tuple[frozenset[Separation], ...]:
        """Unordered {(A,B), (B,A)} pairs, deterministically ordered."""
        seen: set[frozenset[Separation]] = set()
        out = []
        for s in sorted(self.seps, key=Separation.sort_key):
            pair = frozenset({s, s.inverse()})
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "graph": graph_to_json(self.graph),
            "separations": [s.to_json() for s in sorted(self.seps, key=Separation.sort_key)],
        }

    @staticmethod
    def from_json(obj: dict) -> "NestedSeparationSystem":
        seps = frozenset(map(Separation.from_json, obj["separations"]))
        return NestedSeparationSystem(graph_from_json(obj["graph"]), seps)


def nss_from_separations(g: Graph, seps: Iterable[Separation]) -> NestedSeparationSystem:
    """Build a system from one orientation per separation, closing symmetrically."""
    full = set()
    for s in seps:
        full.add(s)
        full.add(s.inverse())
    return NestedSeparationSystem(g, frozenset(full))


def is_consistent(n: NestedSeparationSystem, o: frozenset[Separation]) -> bool:
    """True iff the chosen separations ``o`` are down-closed in ``n``."""
    return all(t in o for s in o for t in n.seps if t.leq(s))


def consistent_orientations(n: NestedSeparationSystem) -> list[frozenset[Separation]]:
    """All consistent orientations, each the frozenset of its chosen
    separations, sorted by their sorted members.

    The search emits them in that order: pairs are ordered by their smaller
    member, which is tried first.  Two orientations that first differ at the
    pair with smaller member m agree below m, since later pairs lie above m,
    and only the earlier one holds m.  The empty system has one orientation,
    the empty one, whose part is the whole vertex set.
    """
    pairs = n.pairs
    out: list[frozenset[Separation]] = []

    def extend(i: int, chosen: list[Separation]) -> None:
        if i == len(pairs):
            out.append(frozenset(chosen))
            return
        for s in sorted(pairs[i], key=Separation.sort_key):
            # consistency is a pairwise condition (including a pick against
            # its own inverse), so incremental checks prune exactly the
            # inconsistent branches: s* <= s, and t* <= s (the same as s* <= t)
            if s.a != s.b and s.b <= s.a:
                continue
            if not any(t.b <= s.a and s.b <= t.a for t in chosen):
                chosen.append(s)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def part_of(n: NestedSeparationSystem, o: frozenset[Separation]) -> frozenset[int]:
    """The part of an orientation: intersection of its b-sides."""
    part = n.graph.vertex_set
    for s in o:
        part &= s.b
    return part


# ---------------------------------------------------------------------------
# Tree-decompositions


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree over node ids ``0..k-1`` with one part per node."""

    tree: Graph
    parts: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.parts) != self.tree.n:
            raise ValueError("one part per tree node required")

    def adhesion_sets(self) -> list[frozenset[int]]:
        return [self.parts[u] & self.parts[v] for u, v in self.tree.sorted_edges()]

    def to_json(self) -> dict:
        return {
            "tree": graph_to_json(self.tree),
            "parts": [sorted(p) for p in self.parts],
        }

    @staticmethod
    def from_json(obj: dict) -> "TreeDecomposition":
        return TreeDecomposition(
            graph_from_json(obj["tree"]),
            tuple(frozenset(map(_check_int, p)) for p in obj["parts"]),
        )


def validate_td(g: Graph, td: TreeDecomposition) -> bool:
    """Check the three tree-decomposition axioms plus tree-ness.

    Cover and (T3) are one occurrence count: in a tree, the nodes whose parts
    hold v form a subtree iff they outnumber, by exactly one, the tree edges
    whose two parts both hold v.  A vertex in no part counts 0, and an id
    outside ``g`` fails too.
    """
    if not td.tree.is_tree():
        return False
    count = Counter(v for part in td.parts for v in part)
    for u, w in td.tree.edges:
        count.subtract(td.parts[u] & td.parts[w])
    if count.keys() != g.vertex_set or any(c != 1 for c in count.values()):
        return False
    return all(any(u in p and v in p for p in td.parts) for u, v in g.edges)


def adhesion(x: NestedSeparationSystem | TreeDecomposition) -> int:
    """Largest separator or adhesion-set size; 0 when there is none."""
    if isinstance(x, NestedSeparationSystem):
        return max((s.order for s in x.seps), default=0)
    return max((len(s) for s in x.adhesion_sets()), default=0)


def nss_to_td(n: NestedSeparationSystem) -> TreeDecomposition:
    """Tree-decomposition with the same parts and adhesion as the system.

    Nodes are the consistent orientations; two nodes are adjacent when they
    orient exactly one pair oppositely.  Separations with b-side equal to
    the whole vertex set are rejected.
    """
    full = n.graph.vertex_set
    for s in n.seps:
        if s.b == full:
            raise ValueError("system contains a separation onto the full vertex set")
    orientations = consistent_orientations(n)
    if not orientations:
        raise AssertionError("a finite nested system always has an orientation")
    parts = tuple(part_of(n, o) for o in orientations)
    # each holds one member of every pair: two differ in one pair
    pairs = itertools.combinations(range(len(orientations)), 2)
    edges = [(i, j) for i, j in pairs if len(orientations[i] ^ orientations[j]) == 2]
    tree = Graph.from_edges(len(orientations), edges)
    td = TreeDecomposition(tree, parts)
    if not tree.is_tree():
        raise AssertionError("orientation adjacency did not form a tree")
    return td


def td_to_nss(g: Graph, td: TreeDecomposition) -> NestedSeparationSystem:
    """The separations induced by the oriented tree edges of ``td``."""
    if not validate_td(g, td):
        raise ValueError("invalid tree-decomposition")
    seps = []
    for _, _, side in tree_edge_sides(td.tree):
        a = frozenset().union(*(td.parts[t] for t in _bits(side)))
        b = frozenset().union(*(td.parts[t] for t in range(td.tree.n) if not side >> t & 1))
        seps.append(Separation(a, b))
    return nss_from_separations(g, seps)


def tree_edge_sides(tree: Graph) -> list[tuple[int, int, int]]:
    """Each edge ``(u, w)`` of the tree, ascending, with the mask of the
    nodes on u's side once the edge is removed."""
    full = (1 << tree.n) - 1
    return [
        (u, w, reachable_mask(tree.adjacency_masks, 1 << u, full & ~(1 << w)))
        for u, w in tree.sorted_edges()
    ]


# ---------------------------------------------------------------------------
# Clean-up


def clean_up(n: NestedSeparationSystem) -> NestedSeparationSystem:
    """Replace each separation by the component cuts of its separator.

    For every separator S of the system and every component C of G - S the
    pair (C + N(C), V - C) enters the result, both ways round.  Components
    with C + N(C) equal to the whole vertex set are skipped; keeping them
    would re-create separations onto the full vertex set.
    """
    g = n.graph
    full = g.vertex_set
    out = []
    for sep_set in {s.separator for s in n.seps}:
        for comp, nbhd in component_masks(g.adjacency_masks, _mask_of(full - sep_set)):
            c = frozenset(_bits(comp))
            a = c | frozenset(_bits(nbhd))
            if a != full:
                out.append(Separation(a, full - c))
    return nss_from_separations(g, out)
