"""Generators for finite truncations of the layered and frayed graph
families, their blow-up generalisations, and the core bookkeeping.

Truncation conventions: one-way infinite rays become paths on ``layers``
vertices indexed from 0, and the ascending sequence of infinite block sizes
becomes a short strictly ascending list of integers.  Every generator
numbers its vertices canonically (blocks in sequence order, then shared and
degenerate vertices, then frayed centres, then the layer product) and
records a role per vertex; tests address vertices through roles and the
ordered core, never through raw ids.  Per-vertex data are tuples indexed by
vertex id, as are the parts of a tree-decomposition: ``roles[v]`` and, for a
blow-up, ``parent_map[v]``.  JSON writes them as lists in id order.

Attachment rule of the generalised families: when a vertex v is blown up
into a pattern, each neighbour u of v attaches at one pattern node, read off
the roles of v and u.  On a ``Type1Template`` a layer neighbour attaches at
``c`` and any other at ``gamma`` of u's role node.  On a ``PathBlowup`` a
glued core block attaches at ``v1`` on even layers and ``v0`` on odd ones,
the next vertex up v's own ray at ``vtop`` and the one below at ``vbot``,
and any other neighbour at ``gamma`` of u's role node.  The core moves to
the copies of one pattern node: ``c`` of a tree template, ``v1`` of a path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Hashable, Iterable, Mapping

from .graph_core import Graph, _check_int, check_k, check_vertices, complete_bipartite_graph
from .graph_core import graph_from_json, graph_to_json
from .kconn import is_k_connected

# ---------------------------------------------------------------------------
# Roles


_ROLE_KINDS = (
    "core",
    "finite_side",
    "degenerate",
    "frayed_centre",
    "dominating",
    "layer",
    "blown_up",
    "matched",
)


@dataclass(frozen=True)
class Role:
    """Structural role of a vertex; node/index meaning depends on the kind.

    core(index): block or layer position along the core order.
    finite_side(node, index): finite-side slot ``node`` in block ``index``.
    degenerate(node) / frayed_centre(node): slot in the finite side.
    dominating(node): contracted ray of blueprint node ``node``.
    layer(node, index): product vertex of blueprint node at a layer.
    blown_up(node): copy created by blowing up parent vertex ``node``.
    matched(node): partner-side vertex in the matched bipartite pair.
    """

    kind: str
    node: int | None = None
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ROLE_KINDS:
            raise ValueError(f"unknown role kind {self.kind!r}")
        for x in (self.node, self.index):
            if x is not None:
                _check_int(x)


@dataclass(frozen=True, eq=False)
class CoreMarkedGraph:
    """A graph with an ordered core, per-vertex roles, and an optional
    parent for graphs produced by blow-ups.

    ``roles[v]`` is the role of vertex v.  A blow-up also carries its
    ``parent`` and ``parent_map``, with ``parent_map[v]`` the parent vertex
    that v comes from; the two are given together or not at all.  ``core``,
    ``roles`` and ``parent_map`` are stored as tuples whatever sequence is
    given, so a JSON round trip gives equal fields.  JSON writes ``roles`` and
    ``parent_map`` as lists in vertex order.
    """

    graph: Graph
    core: tuple[int, ...]
    roles: tuple[Role, ...]
    parent: "CoreMarkedGraph | None" = None
    parent_map: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("core", "roles", "parent_map"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.roles) != self.graph.n or not all(isinstance(r, Role) for r in self.roles):
            raise ValueError("roles must be one Role per vertex")
        check_vertices(self.graph, self.core)
        if (self.parent is None) != (self.parent_map is None):
            raise ValueError("parent and parent_map must be given together")
        if self.parent is not None:
            if len(self.parent_map) != self.graph.n:
                raise ValueError("parent_map must cover every vertex exactly")
            check_vertices(self.parent.graph, self.parent_map)

    def with_kind(self, kind: str) -> list[int]:
        return [v for v, r in enumerate(self.roles) if r.kind == kind]

    def core_boundary(self) -> int:
        """One past the largest block/layer index appearing on the core; 0
        when there is no core."""
        return max(((self.roles[v].index or 0) for v in self.core), default=-1) + 1

    def interior_core(self, cutoff: int) -> list[int]:
        """Core vertices whose block/layer index lies below ``cutoff``."""
        return [v for v in self.core if (self.roles[v].index or 0) < cutoff]

    def to_json(self) -> dict:
        out = {
            "graph": graph_to_json(self.graph),
            "core": list(self.core),
            "roles": [asdict(r) for r in self.roles],
        }
        if self.parent is not None:
            out["parent"] = self.parent.to_json()
            out["parent_map"] = list(self.parent_map)
        return out

    @staticmethod
    def from_json(obj: dict) -> "CoreMarkedGraph":
        return CoreMarkedGraph(
            graph_from_json(obj["graph"]),
            obj["core"],
            map(_role_from_json, obj["roles"]),
            CoreMarkedGraph.from_json(obj["parent"]) if "parent" in obj else None,
            obj.get("parent_map"),
        )


def _role_from_json(obj: dict) -> Role:
    """A role with no field besides kind, node and index."""
    unknown = set(obj) - {"kind", "node", "index"}
    if unknown:
        raise ValueError(f"unknown role fields {sorted(unknown)}")
    return Role(obj["kind"], obj.get("node"), obj.get("index"))


def interior_core_cutoff(cmg: CoreMarkedGraph, k: int) -> int | None:
    """Largest cutoff whose interior core is k-connected (brute force).

    Only cutoffs whose interior has at least k vertices are candidates;
    returns None if no candidate passes.
    """
    check_k(k)
    for cutoff in range(cmg.core_boundary(), 0, -1):
        interior = cmg.interior_core(cutoff)
        if len(interior) < k:
            break
        if is_k_connected(cmg.graph, interior, k).ok:
            return cutoff
    return None


# ---------------------------------------------------------------------------
# Labeled construction helper


class _Builder:
    """Accumulates labeled vertices and edges; freezes to ids by add order."""

    def __init__(self) -> None:
        self.index: dict[Hashable, int] = {}
        self.edges: set[tuple[int, int]] = set()
        self.roles: list[Role] = []

    def add(self, label: Hashable, role: Role) -> None:
        if label in self.index:
            raise ValueError(f"duplicate label {label!r}")
        self.index[label] = len(self.roles)
        self.roles.append(role)

    def edge(self, a: Hashable, b: Hashable) -> None:
        u, v = self.index[a], self.index[b]
        self.edges.add((min(u, v), max(u, v)))

    def freeze(self, core_labels: Iterable[Hashable]) -> CoreMarkedGraph:
        g = Graph(len(self.roles), frozenset(self.edges))
        core = tuple(self.index[l] for l in core_labels)
        return CoreMarkedGraph(g, core, tuple(self.roles))


# ---------------------------------------------------------------------------
# Blueprints and sequences


def _check_blueprint_pair(b: Graph, d: frozenset[int]) -> None:
    if not b.is_tree():
        raise ValueError("blueprint tree must be a tree")
    if not d <= b.leaves():
        raise ValueError("d must be a set of leaves of the blueprint tree")
    if len(d) >= b.n:
        raise ValueError("d must leave at least one tree node")


@dataclass(frozen=True)
class RegularBlueprint:
    """Tree, leaf subset to contract, and the core column c."""

    b: Graph
    d: frozenset[int]
    c: int

    def __post_init__(self) -> None:
        _check_blueprint_pair(self.b, self.d)
        if self.c in self.d or not 0 <= self.c < self.b.n:
            raise ValueError("c must be a tree node outside d")

    @property
    def k(self) -> int:
        return self.b.n


@dataclass(frozen=True)
class GoodSequence:
    """Finite stand-in for an ascending sequence of block sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(x >= y for x, y in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly ascending")
        if not self.sizes:
            raise ValueError("sequence must be non-empty")

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class SingularBlueprint:
    """(ell, f, tree, leaf set, slot map) controlling the glued family.

    ``sigma`` sends each index in [ell+f, k) to a (tree node, parity) slot;
    it must be injective with nodes outside d.
    """

    ell: int
    f: int
    b: Graph
    d: frozenset[int]
    sigma: Mapping[int, tuple[int, int]]

    def __post_init__(self) -> None:
        if self.ell < 0 or self.f < 0:
            raise ValueError("ell and f must be non-negative")
        _check_blueprint_pair(self.b, self.d)
        if 2 * len(self.d) > self.b.n:
            raise ValueError("d may cover at most half of the tree nodes")
        expect = set(range(self.ell + self.f, self.k))
        if set(self.sigma) != expect:
            raise ValueError(f"sigma must be defined exactly on {sorted(expect)}")
        seen = set()
        for i, (node, parity) in self.sigma.items():
            if node in self.d or not 0 <= node < self.b.n:
                raise ValueError("sigma nodes must avoid d")
            if parity not in (0, 1):
                raise ValueError("sigma parity must be 0 or 1")
            if (node, parity) in seen:
                raise ValueError("sigma must be injective")
            seen.add((node, parity))

    @property
    def k(self) -> int:
        return self.ell + self.f + self.b.n


# ---------------------------------------------------------------------------
# Base generators


def gen_complete_bipartite(k: int, m: int) -> CoreMarkedGraph:
    """K(k-set, m-set) with the m-side as core, in index order."""
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    roles = tuple(Role("finite_side", node=i) for i in range(k)) + (Role("core"),) * m
    return CoreMarkedGraph(complete_bipartite_graph(k, m), tuple(range(k, k + m)), roles)


def gen_layer_product(b: Graph, d: Iterable[int], layers: int) -> CoreMarkedGraph:
    """Tree-times-path product with the d-columns contracted to single
    dominating vertices.  Carries no core of its own."""
    fd = frozenset(d)
    _check_blueprint_pair(b, fd)
    if layers < 1:
        raise ValueError("layers must be at least 1")
    bld = _Builder()
    _emit_layer_product(bld, b, fd, layers)
    return bld.freeze([])


def _emit_layer_product(bld: _Builder, b: Graph, fd: frozenset[int], layers: int) -> None:
    live = [v for v in b.vertices if v not in fd]
    for n in range(layers):
        for v in live:
            bld.add(("L", v, n), Role("layer", node=v, index=n))
    for v in sorted(fd):
        bld.add(("dom", v), Role("dominating", node=v))
    for n in range(layers):
        for u, w in b.sorted_edges():
            if u in fd:
                bld.edge(("dom", u), ("L", w, n))
            elif w in fd:
                bld.edge(("L", u, n), ("dom", w))
            else:
                bld.edge(("L", u, n), ("L", w, n))
    for n in range(layers - 1):
        for v in live:
            bld.edge(("L", v, n), ("L", v, n + 1))


def gen_regular_typical(bp: RegularBlueprint, layers: int) -> CoreMarkedGraph:
    """Layer product of the blueprint with the c-column designated as core."""
    fd = bp.d
    if layers < 1:
        raise ValueError("layers must be at least 1")
    bld = _Builder()
    _emit_layer_product(bld, bp.b, fd, layers)
    core_labels = [("L", bp.c, n) for n in range(layers)]
    for label in core_labels:
        idx = bld.index[label]
        bld.roles[idx] = Role("core", node=bp.c, index=bld.roles[idx].index)
    return bld.freeze(core_labels)


def gen_degenerate_frayed(k: int, ell: int, seq: GoodSequence) -> CoreMarkedGraph:
    """Disjoint complete bipartite blocks; the first ell finite-side slots
    are identified across blocks, the rest are joined by star centres."""
    if not 0 <= ell <= k:
        raise ValueError("need 0 <= ell <= k")
    bld = _Builder()
    return bld.freeze(_emit_frayed_blocks(bld, ell, k, seq))


def _emit_frayed_blocks(
    bld: _Builder, ell: int, y_top: int, seq: GoodSequence
) -> list[tuple]:
    """Blocks, separate y-vertices for slots [ell, y_top) joined across the
    blocks by frayed centres, shared vertices for slots below ell.  Block
    edges towards slots >= y_top are left to the caller.  Returns the core
    labels, block by block."""
    for alpha, size in enumerate(seq.sizes):
        for j in range(size):
            bld.add(("z", alpha, j), Role("core", index=alpha))
        for i in range(ell, y_top):
            bld.add(("y", alpha, i), Role("finite_side", node=i, index=alpha))
            for j in range(size):
                bld.edge(("z", alpha, j), ("y", alpha, i))
    core = [("z", alpha, j) for alpha, size in enumerate(seq.sizes) for j in range(size)]
    for i in range(ell):
        bld.add(("ydeg", i), Role("degenerate", node=i))
        for z in core:
            bld.edge(z, ("ydeg", i))
    for i in range(ell, y_top):
        bld.add(("x", i), Role("frayed_centre", node=i))
        for alpha in range(len(seq)):
            bld.edge(("x", i), ("y", alpha, i))
    return core


def gen_singular_typical(
    sbp: SingularBlueprint, seq: GoodSequence, k: int
) -> CoreMarkedGraph:
    """Frayed blocks glued onto a layer product through the sigma slots.

    The slot for index i in block alpha is the layer-product vertex of tree
    node sigma(i)[0] at layer 2*alpha + sigma(i)[1] + |V(b)|; the remaining
    frayed centres cover only the indices in [ell, ell+f).
    """
    if sbp.k != k:
        raise ValueError(
            f"blueprint describes k={sbp.k}, requested k={k} (inconsistent dimensions)"
        )
    ell, f, b, fd = sbp.ell, sbp.f, sbp.b, sbp.d
    layers = 2 * len(seq) + b.n
    bld = _Builder()
    core = _emit_frayed_blocks(bld, ell, ell + f, seq)
    _emit_layer_product(bld, b, fd, layers)
    for alpha in range(len(seq)):
        for i in range(ell + f, k):
            node, parity = sbp.sigma[i]
            target = ("L", node, 2 * alpha + parity + b.n)
            for j in range(seq.sizes[alpha]):
                bld.edge(("z", alpha, j), target)
    return bld.freeze(core)


def two_bipartite_matched(m: int) -> CoreMarkedGraph:
    """Two complete bipartite graphs on two centres each, with a perfect
    matching between the m-sides; the first copy's m-side is the core."""
    if m < 1:
        raise ValueError("m must be at least 1")
    kb = complete_bipartite_graph(2, m).edges
    shifted = [(u + m + 2, w + m + 2) for u, w in kb]
    g = Graph.from_edges(2 * m + 4, [*kb, *shifted, *((2 + j, m + 4 + j) for j in range(m))])
    roles = [Role("finite_side", node=i, index=0) for i in range(2)] + [Role("core")] * m
    roles += [Role("finite_side", node=i, index=1) for i in range(2)]
    roles += [Role("matched", node=j) for j in range(m)]
    return CoreMarkedGraph(g, range(2, m + 2), roles)


# ---------------------------------------------------------------------------
# Blow-ups


def apply_blowups(
    g: Graph, blowups: Mapping[int, tuple[Graph, Mapping[int, int]]]
) -> tuple[Graph, dict[int, int], dict[int, dict[int, int]]]:
    """Replace each ``v`` of ``blowups`` by a copy of its tree ``t``,
    reattaching each former neighbour w at the copy of ``gamma[w]``.

    Returns the graph, the survivor id map and, per blown-up vertex, the
    copy id map of its tree nodes.  The result does not depend on any
    ordering: an edge between two blown-up vertices attaches at the copy
    prescribed by each endpoint's own map.  Survivors are numbered first in
    ascending id, then the copies grouped by blown-up vertex.
    """
    check_vertices(g, blowups)
    for v, (t, gamma) in blowups.items():
        if not t.is_tree():
            raise ValueError("blow-up pattern must be a tree")
        missing = g.neighbors(v) - set(gamma)
        if missing:
            raise ValueError(f"gamma not total on neighbours of {v}: missing {sorted(missing)}")
        for node in gamma.values():
            if not 0 <= node < t.n:
                raise ValueError("gamma must map into the tree")

    survivors = {u: i for i, u in enumerate(u for u in g.vertices if u not in blowups)}
    n = len(survivors)
    copies = {}
    for v in sorted(blowups):
        copies[v] = {node: n + node for node in blowups[v][0].vertices}
        n += blowups[v][0].n

    def endpoint(u: int, other: int) -> int:
        if u in blowups:
            return copies[u][blowups[u][1][other]]
        return survivors[u]

    edges = set()
    for u, w in g.edges:
        edges.add(tuple(sorted((endpoint(u, w), endpoint(w, u)))))
    for v in blowups:
        for a, bnode in blowups[v][0].edges:
            edges.add(tuple(sorted((copies[v][a], copies[v][bnode]))))
    return Graph(n, frozenset(edges)), survivors, copies


# ---------------------------------------------------------------------------
# Templates


@dataclass(frozen=True)
class Type1Template:
    """Tree with an attachment map on [0, k) and a designated core node."""

    tree: Graph
    gamma: Mapping[int, int]
    c: int
    k: int

    def __post_init__(self) -> None:
        check_k(self.k)
        if not self.tree.is_tree():
            raise ValueError("template tree must be a tree")
        if set(self.gamma) != set(range(self.k)):
            raise ValueError(f"gamma must cover exactly [0, {self.k})")
        if not 0 <= self.c < self.tree.n:
            raise ValueError("c must be a tree node")
        if not all(0 <= t < self.tree.n for t in self.gamma.values()):
            raise ValueError("gamma must map into the tree's nodes")
        image = set(self.gamma.values()) | {self.c}
        for node in self.tree.vertices:
            if self.tree.degree(node) in (1, 2) and node not in image:
                raise ValueError(f"node {node} of low degree is neither c nor attached")


@dataclass(frozen=True)
class PathBlowup:
    """Path with marked nodes v0 - vbot ... vtop - v1 and attachments in
    the middle segment."""

    path: Graph
    v0: int
    vbot: int
    vtop: int
    v1: int
    gamma: Mapping[int, int]

    def __post_init__(self) -> None:
        p = self.path
        if not p.is_tree() or any(p.degree(v) > 2 for v in p.vertices):
            raise ValueError("blow-up pattern must be a path")
        if self.v0 not in p.vertices or p.degree(self.v0) > 1:
            raise ValueError("v0 must be an endnode")
        seq = [self.v0]
        while len(seq) < p.n:  # walk the path from v0
            seq.extend(p.neighbors(seq[-1]) - set(seq[-2:]))
        if seq[-1] != self.v1:
            raise ValueError("v1 must be the other endnode")
        pos = {node: i for i, node in enumerate(seq)}
        for node in (self.vbot, self.vtop, *self.gamma.values()):
            if node not in pos:
                raise ValueError(f"node {node} is not on the path")
        if pos[self.vbot] not in (0, 1):
            raise ValueError("vbot must equal v0 or be adjacent to it")
        if pos[self.vtop] not in (len(seq) - 1, len(seq) - 2):
            raise ValueError("vtop must equal v1 or be adjacent to it")
        if pos[self.vbot] > pos[self.vtop]:
            raise ValueError("vbot must not pass vtop")
        for node in self.gamma.values():
            if not pos[self.vbot] <= pos[node] <= pos[self.vtop]:
                raise ValueError("attachments must land between vbot and vtop")

    @property
    def length(self) -> int:
        return len(self.path.edges)


@dataclass(frozen=True)
class Type2Template:
    """One path blow-up per non-contracted blueprint node."""

    entries: Mapping[int, PathBlowup]
    k: int

    def validate_for(self, b: Graph, d: frozenset[int]) -> None:
        live = {v for v in b.vertices if v not in d}
        if set(self.entries) != live:
            raise ValueError("one entry per non-d blueprint node required")
        for node, pb in self.entries.items():
            if pb.length > self.k + 2:
                raise ValueError("blow-up path too long")
            if set(pb.gamma) != set(b.neighbors(node)):
                raise ValueError(f"gamma of node {node} must cover its blueprint neighbours")


@dataclass(frozen=True)
class Type3Template:
    t1: Type1Template
    t2: Type2Template


# ---------------------------------------------------------------------------
# Generalised graphs


def _attachment(role_v: Role, role_u: Role, pattern: Type1Template | PathBlowup) -> int:
    """Pattern node at which a neighbour with role ``role_u`` attaches when
    the vertex with role ``role_v`` is blown up (the module's attachment
    rule)."""
    if isinstance(pattern, Type1Template):
        return pattern.c if role_u.kind == "layer" else pattern.gamma[role_u.node]
    if role_u.node is None:  # a glued block vertex; its role names no node
        return pattern.v1 if role_v.index % 2 == 0 else pattern.v0
    if role_u.node == role_v.node:
        return pattern.vtop if role_u.index == role_v.index + 1 else pattern.vbot
    return pattern.gamma[role_u.node]


def _generalise(
    parent: CoreMarkedGraph,
    patterns: Mapping[int, Type1Template | PathBlowup],
    core_node: int,
) -> CoreMarkedGraph:
    """Blow each vertex of ``patterns`` up into its pattern by the
    attachment rule and rebuild core/roles/parent bookkeeping; the core
    moves to the copies of ``core_node``."""
    blowups = {}
    for v, pattern in patterns.items():
        tree = pattern.tree if isinstance(pattern, Type1Template) else pattern.path
        blowups[v] = (tree, {u: _attachment(parent.roles[v], parent.roles[u], pattern)
                             for u in parent.graph.neighbors(v)})
    graph, survivors, copies = apply_blowups(parent.graph, blowups)
    # apply_blowups numbers the survivors first, then each vertex's copies
    parent_map = (*survivors, *(v for v, cmap in copies.items() for _ in cmap))
    roles = [parent.roles[u] if u in survivors else Role("blown_up", node=u) for u in parent_map]
    core = tuple(copies[z][core_node] if z in copies else survivors[z] for z in parent.core)
    for z, idx in zip(parent.core, core):
        roles[idx] = Role("core", index=parent.roles[z].index)
    return CoreMarkedGraph(graph, core, tuple(roles), parent, parent_map)


def gen_generalised_complete_bipartite(
    k: int, m: int, t1: Type1Template
) -> CoreMarkedGraph:
    """Blow every core vertex of K(k, m) into the template tree."""
    if t1.k != k:
        raise ValueError("template arity does not match k")
    parent = gen_complete_bipartite(k, m)
    return _generalise(parent, dict.fromkeys(parent.core, t1), t1.c)


def gen_generalised_degenerate_frayed(
    k: int, ell: int, seq: GoodSequence, t1: Type1Template
) -> CoreMarkedGraph:
    """Blow every core vertex of the frayed family into the template tree."""
    if t1.k != k:
        raise ValueError("template arity does not match k")
    parent = gen_degenerate_frayed(k, ell, seq)
    return _generalise(parent, dict.fromkeys(parent.core, t1), t1.c)


def gen_generalised_regular(
    bp: RegularBlueprint, layers: int, t2: Type2Template
) -> CoreMarkedGraph:
    """Blow every product vertex into its path; the core moves to the v1
    copies of the c-column."""
    if t2.k != bp.k:
        raise ValueError("template arity does not match the blueprint order")
    t2.validate_for(bp.b, bp.d)
    parent = gen_regular_typical(bp, layers)
    patterns = {v: t2.entries[r.node] for v, r in enumerate(parent.roles) if r.kind != "dominating"}
    return _generalise(parent, patterns, t2.entries[bp.c].v1)


def gen_generalised_singular(
    sbp: SingularBlueprint, seq: GoodSequence, k: int, t3: Type3Template
) -> CoreMarkedGraph:
    """Blow up both the core blocks (tree template) and the layer product
    (path templates) of the glued family."""
    if t3.t1.k != sbp.ell + sbp.f:
        raise ValueError("tree template arity must be ell + f")
    if t3.t2.k != k - sbp.ell - sbp.f:
        raise ValueError("path template arity must be k - ell - f")
    t3.t2.validate_for(sbp.b, sbp.d)
    parent = gen_singular_typical(sbp, seq, k)
    patterns = {
        v: t3.t1 if r.kind == "core" else t3.t2.entries[r.node]
        for v, r in enumerate(parent.roles)
        if r.kind in ("core", "layer")
    }
    return _generalise(parent, patterns, t3.t1.c)


_GENERALISED = {
    "complete-bipartite": gen_generalised_complete_bipartite,
    "frayed": gen_generalised_degenerate_frayed,
    "regular": gen_generalised_regular,
    "singular": gen_generalised_singular,
}


def gen_generalised(family: str, *args, **kwargs) -> CoreMarkedGraph:
    """Dispatch to the generalised generator of the named family."""
    if family not in _GENERALISED:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_GENERALISED)}")
    return _GENERALISED[family](*args, **kwargs)
