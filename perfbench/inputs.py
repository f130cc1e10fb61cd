"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of calls on a fixed pool of graphs: the
paper's families from ``kconnkit.typical_gen`` (plus ``canon`` and
``graph_core`` constructors) and random connected graphs drawn with the
recipe of ``tests/oracles.py``: a G(n, p) graph plus a random spanning path.
The pool is drawn from constant seeds, so the answers are invariants that
``expected.json`` pins once.  The run seed only picks a vertex relabelling
for every host graph, so two seeds give different inputs of equal cost, and
no two passes of a run feed the library the same graph objects.

Calls on the same host share one relabelled graph object, so the library's
per-graph caches see repeated hosts exactly as a caller would produce them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from kconnkit import canon, graph_core
from kconnkit import typical_gen as tg
from kconnkit.graph_core import Graph

WORKLOADS = ("kconn_queries", "canon_corpus", "lean_duality")

# Constant seeds of the random pools; changing one invalidates expected.json.
_POOL_SEED = {"kconn_queries": 18110641, "canon_corpus": 18110642, "lean_duality": 18110643}

# Groups kept per section by a tiny run (the benchmark's self-test).
_TINY_GROUPS = 2


@dataclass
class Call:
    """One library call.  ``args`` hold graphs and vertex sets already
    relabelled; ``ref`` names an earlier call whose result is an argument."""

    id: str
    op: str
    host: str
    tag: str
    args: dict = field(default_factory=dict)
    ref: str | None = None


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) plus a random spanning path, so the graph is connected."""
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    verts = list(range(n))
    rng.shuffle(verts)
    edges += [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return Graph.from_edges(n, edges)


class _Relabeller:
    """One random permutation per host, drawn in host order from the seed."""

    def __init__(self, seed: int | None):
        self.rng = random.Random(seed) if seed is not None else None
        self.hosts: dict[str, tuple[Graph, list[int]]] = {}

    def host(self, hid: str, g: Graph) -> tuple[Graph, list[int]]:
        if hid not in self.hosts:
            perm = list(range(g.n))
            if self.rng is not None:
                self.rng.shuffle(perm)
            self.hosts[hid] = (g.relabel(perm), perm)
        return self.hosts[hid]

    def copy(self, g: Graph) -> Graph:
        """A fresh relabelled copy that is not registered as a host."""
        perm = list(range(g.n))
        if self.rng is not None:
            self.rng.shuffle(perm)
        return g.relabel(perm)


def _edge_template(k: int) -> tg.Type1Template:
    gamma = {i: (0 if i < k // 2 else 1) for i in range(k)}
    return tg.Type1Template(Graph.from_edges(2, [(0, 1)]), gamma, 0, k)


def _sections(groups: dict[str, list[list[Call]]], tiny: bool) -> list[Call]:
    out: list[Call] = []
    for section in groups.values():
        for group in section[:_TINY_GROUPS] if tiny else section:
            out.extend(group)
    return out


# ---------------------------------------------------------------------------
# kconn_queries


def _family_hosts() -> list[tuple[str, tg.CoreMarkedGraph]]:
    fig2 = tg.RegularBlueprint(graph_core.path_graph(4), frozenset({3}), 0)
    return [
        ("Kb2_6", tg.gen_complete_bipartite(2, 6)),
        ("Kb3_6", tg.gen_complete_bipartite(3, 6)),
        ("Kb3_8", tg.gen_complete_bipartite(3, 8)),
        ("Kb4_8", tg.gen_complete_bipartite(4, 8)),
        ("fr2_0_234", tg.gen_degenerate_frayed(2, 0, tg.GoodSequence((2, 3, 4)))),
        ("fr3_2_123", tg.gen_degenerate_frayed(3, 2, tg.GoodSequence((1, 2, 3)))),
        ("reg6", tg.gen_regular_typical(fig2, 6)),
        ("tbm6", tg.two_bipartite_matched(6)),
        ("tbm8", tg.two_bipartite_matched(8)),
        ("genKb3_6", tg.gen_generalised("complete-bipartite", 3, 6, _edge_template(3))),
        ("genfr3_1_23", tg.gen_generalised("frayed", 3, 1, tg.GoodSequence((2, 3)), _edge_template(3))),
    ]


# (host, vertex set, k, op): "core" is the generator's core, "core+fs" adds
# the finite side (roles finite_side and degenerate), "all" is every vertex.
_FAMILY_QUERIES = [
    ("Kb2_6", "core", 2, "is_k_connected"),
    ("Kb2_6", "core", 3, "is_k_connected"),
    ("Kb2_6", "core+fs", 3, "max_k_connected_subset"),
    ("Kb3_6", "core", 3, "is_k_connected"),
    ("Kb3_6", "core", 4, "is_k_connected"),
    ("Kb3_8", "core", 3, "is_k_connected"),
    ("Kb3_8", "core", 4, "is_k_connected"),
    ("Kb4_8", "core", 4, "is_k_connected"),
    ("fr2_0_234", "core", 2, "is_k_connected"),
    ("fr2_0_234", "core", 3, "is_k_connected"),
    ("fr3_2_123", "core", 3, "is_k_connected"),
    ("fr3_2_123", "core+fs", 4, "is_k_connected"),
    ("reg6", "core", 3, "is_k_connected"),
    ("reg6", "all", 2, "is_k_connected"),
    ("tbm6", "core", 3, "is_k_connected"),
    ("tbm8", "core", 3, "is_k_connected"),
    ("tbm6", "all", 2, "is_k_connected"),
    ("genKb3_6", "core", 3, "is_k_connected"),
    ("genKb3_6", "core", 4, "is_k_connected"),
    ("genfr3_1_23", "core", 3, "is_k_connected"),
    ("genfr3_1_23", "all", 2, "is_k_connected"),
]

_KQ_RANDOM_HOSTS = 160


def _vertex_set(cmg: tg.CoreMarkedGraph, spec: str) -> list[int]:
    if spec == "core":
        return sorted(cmg.core)
    if spec == "core+fs":
        return sorted(set(cmg.core) | set(cmg.with_kind("finite_side")) | set(cmg.with_kind("degenerate")))
    return list(cmg.graph.vertices)


def _kconn_queries(seed: int | None) -> dict[str, list[list[Call]]]:
    rel = _Relabeller(seed)
    family: list[list[Call]] = []
    hosts = dict(_family_hosts())
    for i, (hid, spec, k, op) in enumerate(_FAMILY_QUERIES):
        g, perm = rel.host(hid, hosts[hid].graph)
        a = sorted(perm[v] for v in _vertex_set(hosts[hid], spec))
        family.append([Call(f"kq:fam:{i}", op, hid, "family", {"g": g, "a": a, "k": k})])

    # Random hosts: n = 8..12 over four densities, k = 2..4; about one host
    # in five is queried two or three times.
    pool = random.Random(_POOL_SEED["kconn_queries"])
    rand: list[list[Call]] = []
    for h in range(_KQ_RANDOM_HOSTS):
        n = pool.randint(8, 12)
        p = pool.choice((0.15, 0.25, 0.4, 0.6))
        base = random_connected_graph(pool, n, p)
        hid = f"rand{h}"
        group = []
        for q in range(pool.choice((1, 1, 1, 1, 2, 3))):
            k = pool.randint(2, 4)
            if pool.random() < 0.25:
                op, size = "max_k_connected_subset", pool.randint(max(k, 5), min(n, 7))
            else:
                op, size = "is_k_connected", pool.randint(max(k, 5), min(n, 8))
            a = pool.sample(range(n), size)
            g, perm = rel.host(hid, base)
            group.append(Call(f"kq:rand:{h}:{q}", op, hid, "random",
                              {"g": g, "a": sorted(perm[v] for v in a), "k": k}))
        rand.append(group)
    return {"family": family, "random": rand}


# ---------------------------------------------------------------------------
# canon_corpus


def _canon_families() -> list[tuple[str, Graph]]:
    out = [(f"Kb{a}_{b}", tg.gen_complete_bipartite(a, b).graph)
           for a, b in ((1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5))]
    out += [(f"K{n}", graph_core.complete_graph(n)) for n in (4, 5, 6, 7)]
    out += [(f"C{n}", graph_core.cycle_graph(n)) for n in (6, 8, 10, 12)]
    for k, ell, seq in ((2, 0, (1, 2)), (2, 1, (2, 3)), (3, 1, (2, 3)), (3, 2, (1, 2, 3)), (2, 0, (1, 2, 3))):
        name = f"fr{k}_{ell}_{''.join(map(str, seq))}"
        out.append((name, tg.gen_degenerate_frayed(k, ell, tg.GoodSequence(seq)).graph))
    return out


_CC_RANDOM = 80


def _canon_group(rel: _Relabeller, gid: str, tag: str, base: Graph) -> list[Call]:
    """canonical_form and automorphism_count of one copy, and is_isomorphic
    of that copy against a second, independently relabelled copy."""
    g, _ = rel.host(gid, base)
    other = rel.copy(base)
    return [
        Call(f"cc:{gid}:cf", "canonical_form", gid, tag, {"g": g}),
        Call(f"cc:{gid}:aut", "automorphism_count", gid, tag, {"g": g}),
        Call(f"cc:{gid}:iso", "is_isomorphic", gid, tag, {"g": g, "h": other}),
    ]


def _canon_corpus(seed: int | None) -> dict[str, list[list[Call]]]:
    rel = _Relabeller(seed)
    corpus = list(canon.connected_graphs(6))
    sections: dict[str, list[list[Call]]] = {"corpus": [], "family": [], "random": [], "distinct": []}
    for i, base in enumerate(corpus):
        sections["corpus"].append(_canon_group(rel, f"c6_{i}", "corpus", base))
    for name, base in _canon_families():
        sections["family"].append(_canon_group(rel, name, "family", base))
    pool = random.Random(_POOL_SEED["canon_corpus"])
    for i in range(_CC_RANDOM):
        base = random_connected_graph(pool, pool.randint(10, 30), pool.choice((0.2, 0.3, 0.4)))
        sections["random"].append(_canon_group(rel, f"rand{i}", "random", base))
    # Non-isomorphic pairs with equal vertex and edge counts, so that the
    # size precheck in is_isomorphic does not decide them.
    by_size: dict[tuple[int, int], list[int]] = {}
    for i, base in enumerate(corpus):
        by_size.setdefault((base.n, len(base.edges)), []).append(i)
    for i, j in (pair for ids in by_size.values() for pair in zip(ids, ids[1:])):
        g, _ = rel.host(f"c6_{i}", corpus[i])
        sections["distinct"].append([Call(f"cc:c6_{i}~c6_{j}:iso", "is_isomorphic", f"c6_{i}", "corpus",
                                          {"g": g, "h": rel.copy(corpus[j])})])
    return sections


# ---------------------------------------------------------------------------
# lean_duality

_LD_BUILDS = 30
_LD_DUALITY = 6
_LD_BOUNDS = 8


def _lean_duality(seed: int | None) -> dict[str, list[list[Call]]]:
    rel = _Relabeller(seed)
    pool = random.Random(_POOL_SEED["lean_duality"])
    sections: dict[str, list[list[Call]]] = {"build": [], "frayed": [], "duality": [], "bounds": []}

    def build_group(gid: str, tag: str, base: Graph, k: int) -> list[Call]:
        g, _ = rel.host(gid, base)
        return [
            Call(f"ld:{gid}:build", "build_k_lean_td", gid, tag, {"g": g, "k": k}),
            Call(f"ld:{gid}:recheck", "recheck_lean", gid, tag, {"g": g, "k": k}, ref=f"ld:{gid}:build"),
        ]

    # Sparse random graphs, n = 8..10.
    for i in range(_LD_BUILDS):
        k = pool.randint(3, 4)
        base = random_connected_graph(pool, pool.randint(8, 10), pool.choice((0.2, 0.3)))
        sections["build"].append(build_group(f"rand{i}", "random", base, k))
    for k, ell, seq in ((2, 1, (1, 2)), (2, 0, (1, 2)), (3, 1, (1, 2)), (2, 1, (2, 3))):
        base = tg.gen_degenerate_frayed(k, ell, tg.GoodSequence(seq)).graph
        for kk in (3, 4):
            gid = f"fr{k}_{ell}_{''.join(map(str, seq))}_k{kk}"
            sections["frayed"].append(build_group(gid, "family", base, kk))
    for i in range(_LD_DUALITY):
        n = pool.randint(6, 8)
        base = random_connected_graph(pool, n, 0.4)
        k = pool.randint(2, 3)
        a = pool.sample(range(n), pool.randint(k + 2, n - 1))
        m = pool.randint(k + 1, len(a))
        g, perm = rel.host(f"dual{i}", base)
        sections["duality"].append([Call(f"ld:dual{i}:duality", "check_duality", f"dual{i}", "random",
                                         {"g": g, "a": sorted(perm[v] for v in a), "k": k, "m": m})])
    for i in range(_LD_BOUNDS):
        base = random_connected_graph(pool, pool.randint(6, 8), pool.choice((0.3, 0.5)))
        g, _ = rel.host(f"sec1_{i}", base)
        sections["bounds"].append([Call(f"ld:sec1_{i}:bounds", "verify_sec1_bounds", f"sec1_{i}", "random",
                                        {"g": g, "k": pool.randint(2, 3)})])
    return sections


_BUILDERS = {
    "kconn_queries": _kconn_queries,
    "canon_corpus": _canon_corpus,
    "lean_duality": _lean_duality,
}


def build(workload: str, seed: int | None, tiny: bool = False) -> list[Call]:
    """The call list of ``workload``; ``seed=None`` keeps the pool labelling."""
    return _sections(_BUILDERS[workload](seed), tiny)
