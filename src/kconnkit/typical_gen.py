"""Generators for finite truncations of the layered and frayed graph
families, their blow-up generalisations, and the core bookkeeping.

Truncation conventions: one-way infinite rays become paths on ``layers``
vertices indexed from 0, and the ascending sequence of infinite block sizes
becomes a short strictly ascending list of integers.  Every generator
numbers its vertices canonically (blocks in sequence order, then shared and
degenerate vertices, then frayed centres, then the layer product) and
records a role per vertex; tests address vertices through roles and the
ordered core, never through raw ids.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Hashable, Iterable, Mapping

from .graph_core import Graph, check_vertices, graph_from_json, graph_to_json
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


@dataclass(frozen=True, eq=False)
class CoreMarkedGraph:
    """A graph with an ordered core, per-vertex roles, and an optional
    parent for graphs produced by blow-ups."""

    graph: Graph
    core: tuple[int, ...]
    roles: Mapping[int, Role]
    parent: "CoreMarkedGraph | None" = None
    parent_map: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        if set(self.roles) != set(self.graph.vertices):
            raise ValueError("roles must cover every vertex exactly")
        if not set(self.core) <= set(self.graph.vertices):
            raise ValueError("core must consist of vertices")

    def role_of(self, v: int) -> Role:
        return self.roles[v]

    def with_kind(self, kind: str) -> list[int]:
        return sorted(v for v, r in self.roles.items() if r.kind == kind)

    def core_boundary(self) -> int:
        """One past the largest block/layer index appearing on the core."""
        return max((self.roles[v].index or 0) for v in self.core) + 1

    def interior_core(self, cutoff: int) -> list[int]:
        """Core vertices whose block/layer index lies below ``cutoff``."""
        return [v for v in self.core if (self.roles[v].index or 0) < cutoff]

    def to_json(self) -> dict:
        out = {
            "graph": graph_to_json(self.graph),
            "core": list(self.core),
            "roles": {str(v): asdict(r) for v, r in sorted(self.roles.items())},
        }
        if self.parent is not None:
            out["parent"] = self.parent.to_json()
            out["parent_map"] = {str(v): p for v, p in sorted(self.parent_map.items())}
        return out

    @staticmethod
    def from_json(obj: dict) -> "CoreMarkedGraph":
        parent = None
        parent_map = None
        if "parent" in obj:
            parent = CoreMarkedGraph.from_json(obj["parent"])
            parent_map = {int(v): p for v, p in obj["parent_map"].items()}
        return CoreMarkedGraph(
            graph=graph_from_json(obj["graph"]),
            core=tuple(obj["core"]),
            roles={int(v): Role(**r) for v, r in obj["roles"].items()},
            parent=parent,
            parent_map=parent_map,
        )


def interior_core_cutoff(cmg: CoreMarkedGraph, k: int) -> int | None:
    """Largest cutoff whose interior core is k-connected (brute force).

    Only cutoffs whose interior has at least k vertices are candidates;
    returns None if no candidate passes.
    """
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
        self.order: list[Hashable] = []
        self.index: dict[Hashable, int] = {}
        self.edges: set[tuple[int, int]] = set()
        self.roles: dict[int, Role] = {}

    def add(self, label: Hashable, role: Role) -> int:
        if label in self.index:
            raise ValueError(f"duplicate label {label!r}")
        idx = len(self.order)
        self.order.append(label)
        self.index[label] = idx
        self.roles[idx] = role
        return idx

    def edge(self, a: Hashable, b: Hashable) -> None:
        u, v = self.index[a], self.index[b]
        if u == v:
            raise ValueError(f"loop on {a!r}")
        self.edges.add((min(u, v), max(u, v)))

    def freeze(self, core_labels: Iterable[Hashable], **extra) -> CoreMarkedGraph:
        g = Graph(len(self.order), frozenset(self.edges))
        core = tuple(self.index[l] for l in core_labels)
        return CoreMarkedGraph(g, core, dict(self.roles), **extra)


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
        k = self.k
        if not self.ell + self.f < k:
            raise ValueError("ell + f must stay below k")
        expect = set(range(self.ell + self.f, k))
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
    bld = _Builder()
    for i in range(k):
        bld.add(("fs", i), Role("finite_side", node=i))
    for j in range(m):
        bld.add(("core", j), Role("core"))
    for i in range(k):
        for j in range(m):
            bld.edge(("fs", i), ("core", j))
    return bld.freeze([("core", j) for j in range(m)])


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
    _emit_frayed_blocks(bld, k, ell, k, seq)
    for i in range(ell, k):
        bld.add(("x", i), Role("frayed_centre", node=i))
        for alpha in range(len(seq)):
            bld.edge(("x", i), ("y", alpha, i))
    core = [("z", a, j) for a in range(len(seq)) for j in range(seq.sizes[a])]
    return bld.freeze(core)


def _emit_frayed_blocks(
    bld: _Builder, k: int, ell: int, y_top: int, seq: GoodSequence
) -> None:
    """Blocks, separate y-vertices for slots [ell, y_top), shared vertices
    for slots below ell.  Block edges towards slots >= y_top are left to the
    caller."""
    for alpha, size in enumerate(seq.sizes):
        for j in range(size):
            bld.add(("z", alpha, j), Role("core", index=alpha))
        for i in range(ell, y_top):
            bld.add(("y", alpha, i), Role("finite_side", node=i, index=alpha))
    for i in range(ell):
        bld.add(("ydeg", i), Role("degenerate", node=i))
    for alpha, size in enumerate(seq.sizes):
        for j in range(size):
            for i in range(ell):
                bld.edge(("z", alpha, j), ("ydeg", i))
            for i in range(ell, y_top):
                bld.edge(("z", alpha, j), ("y", alpha, i))


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
    _emit_frayed_blocks(bld, k, ell, ell + f, seq)
    for i in range(ell, ell + f):
        bld.add(("x", i), Role("frayed_centre", node=i))
        for alpha in range(len(seq)):
            bld.edge(("x", i), ("y", alpha, i))
    _emit_layer_product(bld, b, fd, layers)
    for alpha in range(len(seq)):
        for i in range(ell + f, k):
            node, parity = sbp.sigma[i]
            target = ("L", node, 2 * alpha + parity + b.n)
            for j in range(seq.sizes[alpha]):
                bld.edge(("z", alpha, j), target)
    core = [("z", a, j) for a in range(len(seq)) for j in range(seq.sizes[a])]
    return bld.freeze(core)


def two_bipartite_matched(m: int) -> CoreMarkedGraph:
    """Two complete bipartite graphs on two centres each, with a perfect
    matching between the m-sides; the first copy's m-side is the core."""
    if m < 1:
        raise ValueError("m must be at least 1")
    bld = _Builder()
    for i in range(2):
        bld.add(("fs", 0, i), Role("finite_side", node=i, index=0))
    for j in range(m):
        bld.add(("core", j), Role("core"))
    for i in range(2):
        bld.add(("fs", 1, i), Role("finite_side", node=i, index=1))
    for j in range(m):
        bld.add(("m2", j), Role("matched", node=j))
    for i in range(2):
        for j in range(m):
            bld.edge(("fs", 0, i), ("core", j))
            bld.edge(("fs", 1, i), ("m2", j))
    for j in range(m):
        bld.edge(("core", j), ("m2", j))
    return bld.freeze([("core", j) for j in range(m)])


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

    order: list[tuple] = []
    for u in g.vertices:
        if u not in blowups:
            order.append(("s", u))
    for v in sorted(blowups):
        for node in blowups[v][0].vertices:
            order.append(("c", v, node))
    index = {label: i for i, label in enumerate(order)}
    survivors = {u: index[("s", u)] for u in g.vertices if u not in blowups}
    copies = {
        v: {node: index[("c", v, node)] for node in blowups[v][0].vertices}
        for v in blowups
    }

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
    return Graph(len(order), frozenset(edges)), survivors, copies


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
        if not self.tree.is_tree():
            raise ValueError("template tree must be a tree")
        if set(self.gamma) != set(range(self.k)):
            raise ValueError(f"gamma must cover exactly [0, {self.k})")
        if not 0 <= self.c < self.tree.n:
            raise ValueError("c must be a tree node")
        image = set(self.gamma.values()) | {self.c}
        for node in self.tree.vertices:
            if self.tree.degree(node) in (1, 2) and node not in image:
                raise ValueError(f"node {node} of low degree is neither c nor attached")
        if self.tree.n > 2 * self.k + 1:
            raise ValueError("template tree too large")


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
        seq = _path_sequence(self.path)
        if seq is None:
            raise ValueError("blow-up pattern must be a path")
        if seq[0] != self.v0:
            if seq[-1] != self.v0:
                raise ValueError("v0 must be an endnode")
            seq = list(reversed(seq))
        if seq[-1] != self.v1:
            raise ValueError("v1 must be the other endnode")
        pos = {node: i for i, node in enumerate(seq)}
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
    def simple(self) -> bool:
        return self.v0 == self.vbot and self.v1 == self.vtop

    @property
    def length(self) -> int:
        return len(self.path.edges)


def _path_sequence(g: Graph) -> list[int] | None:
    if not g.is_tree():
        return None
    if g.n == 1:
        return [0]
    ends = [v for v in g.vertices if g.degree(v) == 1]
    if len(ends) != 2 or any(g.degree(v) > 2 for v in g.vertices):
        return None
    seq = [min(ends)]
    prev = None
    while len(seq) < g.n:
        nxt = [w for w in g.neighbors(seq[-1]) if w != prev]
        prev = seq[-1]
        seq.append(nxt[0])
    return seq


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

    @property
    def simple(self) -> bool:
        return all(pb.simple for pb in self.entries.values())


@dataclass(frozen=True)
class Type3Template:
    t1: Type1Template
    t2: Type2Template


# ---------------------------------------------------------------------------
# Generalised graphs


def _generalise(
    parent: CoreMarkedGraph,
    blowups: Mapping[int, tuple[Graph, Mapping[int, int]]],
    core_copy: Mapping[int, int],
) -> CoreMarkedGraph:
    """Blow up the parent and rebuild core/roles/parent bookkeeping.

    ``core_copy`` maps each parent core vertex to the tree node whose copy
    carries the core forward.
    """
    graph, survivors, copies = apply_blowups(parent.graph, blowups)
    roles: dict[int, Role] = {}
    parent_map: dict[int, int] = {}
    for u, idx in survivors.items():
        roles[idx] = parent.roles[u]
        parent_map[idx] = u
    for v, cmap in copies.items():
        for node, idx in cmap.items():
            roles[idx] = Role("blown_up", node=v)
            parent_map[idx] = v
    core = []
    for z in parent.core:
        idx = copies[z][core_copy[z]] if z in copies else survivors[z]
        roles[idx] = Role("core", index=parent.roles[z].index)
        core.append(idx)
    return CoreMarkedGraph(
        graph, tuple(core), roles, parent=parent, parent_map=parent_map
    )


def gen_generalised_complete_bipartite(
    k: int, m: int, t1: Type1Template
) -> CoreMarkedGraph:
    """Blow every core vertex of K(k, m) into the template tree."""
    if t1.k != k:
        raise ValueError("template arity does not match k")
    return _blow_up_core(gen_complete_bipartite(k, m), t1)


def gen_generalised_degenerate_frayed(
    k: int, ell: int, seq: GoodSequence, t1: Type1Template
) -> CoreMarkedGraph:
    """Blow every core vertex of the frayed family into the template tree."""
    if t1.k != k:
        raise ValueError("template arity does not match k")
    return _blow_up_core(gen_degenerate_frayed(k, ell, seq), t1)


def _blow_up_core(parent: CoreMarkedGraph, t1: Type1Template) -> CoreMarkedGraph:
    """Blow every core vertex into ``t1``'s tree, each neighbour attaching at
    the node ``t1.gamma`` assigns to its role, the core carried by ``t1.c``."""
    blowups = {
        z: (t1.tree, {u: t1.gamma[parent.roles[u].node] for u in parent.graph.neighbors(z)})
        for z in parent.core
    }
    return _generalise(parent, blowups, {z: t1.c for z in parent.core})


def _layer_gamma(
    parent: CoreMarkedGraph,
    v: int,
    pb: PathBlowup,
    core_rule: tuple[int, int] | None,
) -> dict[int, int]:
    """Attachment map for blowing up the layer vertex ``v``.

    Same-layer product neighbours and dominating vertices attach through the
    blueprint map, the ray neighbours at vtop/vbot, and (in the glued
    family) core-block neighbours at v1 on even layers and v0 on odd ones.
    """
    role_v = parent.roles[v]
    gamma: dict[int, int] = {}
    for u in parent.graph.neighbors(v):
        role = parent.roles[u]
        if role.kind in ("layer", "core") and role.index is not None and role.node is not None:
            if role.node == role_v.node:
                gamma[u] = pb.vtop if role.index == role_v.index + 1 else pb.vbot
            else:
                gamma[u] = pb.gamma[role.node]
        elif role.kind == "dominating":
            gamma[u] = pb.gamma[role.node]
        elif role.kind == "core":
            if core_rule is None:
                raise ValueError("unexpected core neighbour of a layer vertex")
            even, odd = core_rule
            gamma[u] = even if role_v.index % 2 == 0 else odd
        else:
            raise ValueError(f"unexpected neighbour role {role}")
    return gamma


def gen_generalised_regular(
    bp: RegularBlueprint, layers: int, t2: Type2Template
) -> CoreMarkedGraph:
    """Blow every product vertex into its path; the core moves to the v1
    copies of the c-column."""
    if t2.k != bp.k:
        raise ValueError("template arity does not match the blueprint order")
    t2.validate_for(bp.b, bp.d)
    parent = gen_regular_typical(bp, layers)
    blowups = {}
    for v in parent.graph.vertices:
        role = parent.roles[v]
        if role.kind in ("layer", "core"):
            pb = t2.entries[role.node]
            blowups[v] = (pb.path, _layer_gamma(parent, v, pb, None))
    core_copy = {z: t2.entries[bp.c].v1 for z in parent.core}
    return _generalise(parent, blowups, core_copy)


def gen_generalised_singular(
    sbp: SingularBlueprint, seq: GoodSequence, k: int, t3: Type3Template
) -> CoreMarkedGraph:
    """Blow up both the core blocks (tree template) and the layer product
    (path templates) of the glued family.

    Attachment rules at the seam: a layer vertex carrying a glued slot
    presents its v1 copy to the block on even layers and its v0 copy on odd
    ones; a core vertex attaches its glued-slot edges at the template's core
    node.
    """
    if t3.t1.k != sbp.ell + sbp.f:
        raise ValueError("tree template arity must be ell + f")
    if t3.t2.k != k - sbp.ell - sbp.f:
        raise ValueError("path template arity must be k - ell - f")
    t3.t2.validate_for(sbp.b, sbp.d)
    parent = gen_singular_typical(sbp, seq, k)
    blowups = {}
    for v in parent.graph.vertices:
        role = parent.roles[v]
        if role.kind == "layer":
            pb = t3.t2.entries[role.node]
            blowups[v] = (pb.path, _layer_gamma(parent, v, pb, (pb.v1, pb.v0)))
        elif role.kind == "core":
            gamma = {}
            for u in parent.graph.neighbors(v):
                urole = parent.roles[u]
                if urole.kind in ("degenerate", "finite_side"):
                    gamma[u] = t3.t1.gamma[urole.node]
                elif urole.kind == "layer":
                    gamma[u] = t3.t1.c
                else:
                    raise ValueError(f"unexpected core neighbour role {urole}")
            blowups[v] = (t3.t1.tree, gamma)
    core_copy = {z: t3.t1.c for z in parent.core}
    return _generalise(parent, blowups, core_copy)


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
