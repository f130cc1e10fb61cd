import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kconnkit.canon import is_isomorphic
from kconnkit.graph_core import Graph, Separation, complete_bipartite_graph, cycle_graph, path_graph
from kconnkit.kconn import is_k_connected
from kconnkit.sepsys import NestedSeparationSystem, TreeDecomposition, nss_to_td
from kconnkit.typical_gen import (
    CoreMarkedGraph,
    GoodSequence,
    PathBlowup,
    RegularBlueprint,
    Role,
    SingularBlueprint,
    Type1Template,
    Type2Template,
    Type3Template,
    _ROLE_KINDS,
    apply_blowups,
    gen_complete_bipartite,
    gen_degenerate_frayed,
    gen_generalised,
    gen_generalised_complete_bipartite,
    gen_generalised_degenerate_frayed,
    gen_generalised_regular,
    gen_generalised_singular,
    gen_layer_product,
    gen_regular_typical,
    gen_singular_typical,
    interior_core_cutoff,
    two_bipartite_matched,
)
from oracles import outcome, random_connected_graph, random_graph, random_nested_system

# Fixture recipes: a path c-a-b-d with the far leaf contracted, and the
# glued seven-family on the same path.
FIG2_BP = RegularBlueprint(path_graph(4), frozenset({3}), 0)
FIG4_SBP = SingularBlueprint(
    1, 2, path_graph(4), frozenset({3}), {3: (0, 0), 4: (0, 1), 5: (1, 0), 6: (1, 1)}
)
SEQ234 = GoodSequence((2, 3, 4))


def edge_template(k: int) -> Type1Template:
    gamma = {i: (0 if i < k // 2 else 1) for i in range(k)}
    return Type1Template(Graph.from_edges(2, [(0, 1)]), gamma, 0, k)


def simple_type2(bp: RegularBlueprint) -> Type2Template:
    entries = {}
    for node in bp.b.vertices:
        if node in bp.d:
            continue
        path = Graph.from_edges(2, [(0, 1)])
        gamma = {u: 0 for u in bp.b.neighbors(node)}
        entries[node] = PathBlowup(path, 0, 0, 1, 1, gamma)
    return Type2Template(entries, bp.k)


def nonsimple_type2(b: Graph, d: frozenset[int]) -> Type2Template:
    """Every live node blown up into the path 0-1-2-3 with vbot = 1 and
    vtop = 2, so v0, vbot, vtop and v1 are four different nodes."""
    entries = {}
    for node in b.vertices:
        if node not in d:
            gamma = {u: 1 + u % 2 for u in b.neighbors(node)}
            entries[node] = PathBlowup(path_graph(4), 0, 1, 2, 3, gamma)
    return Type2Template(entries, b.n)


def copies_of(gen: CoreMarkedGraph, v: int) -> list[int]:
    """The vertices that parent vertex ``v`` became, by pattern node."""
    return [i for i, p in enumerate(gen.parent_map) if p == v]


def attachments(gen: CoreMarkedGraph, v: int, w: int) -> set[tuple[int, int]]:
    """(pattern node on v's side, pattern node on w's side) of every edge
    between what parent vertices ``v`` and ``w`` became."""
    cv, cw = copies_of(gen, v), copies_of(gen, w)
    return {(i, j) for i, a in enumerate(cv) for j, b in enumerate(cw) if gen.graph.has_edge(a, b)}


def test_complete_bipartite_counts():
    cmg = gen_complete_bipartite(4, 7)
    assert cmg.graph.n == 11
    assert len(cmg.graph.edges) == 28
    assert len(cmg.core) == 7
    assert cmg.with_kind("finite_side") == [0, 1, 2, 3]
    assert list(cmg.core) == cmg.with_kind("core")


def test_complete_bipartite_degenerate_k0():
    cmg = gen_complete_bipartite(0, 3)
    assert cmg.graph.n == 3
    assert not cmg.graph.edges
    assert len(cmg.core) == 3


def test_complete_bipartite_core_connectivity():
    cmg = gen_complete_bipartite(4, 10)
    assert is_k_connected(cmg.graph, cmg.core, 4).ok


def test_layer_product_count_formula():
    cmg = gen_layer_product(path_graph(4), {3}, 5)
    assert cmg.graph.n == 3 * 5 + 1
    assert cmg.with_kind("dominating") == [15]
    dom = cmg.with_kind("dominating")[0]
    # the contracted column is adjacent to its blueprint neighbour in every layer
    assert cmg.graph.degree(dom) == 5


def test_layer_product_without_contraction_is_cartesian():
    cmg = gen_layer_product(path_graph(3), set(), 4)
    assert cmg.graph.n == 12
    assert len(cmg.graph.edges) == 4 * 2 + 3 * 3


def test_layer_product_single_layer_is_blueprint():
    b = path_graph(4)
    cmg = gen_layer_product(b, {3}, 1)
    assert is_isomorphic(cmg.graph, b)


def test_layer_product_contracts_a_smaller_endpoint():
    # the edge (0, 1) of the blueprint has its smaller endpoint in d
    cmg = gen_layer_product(path_graph(3), {0}, 3)
    (dom,) = cmg.with_kind("dominating")
    copies = [v for v, r in enumerate(cmg.roles) if r.kind == "layer" and r.node == 1]
    assert len(copies) == 3
    assert cmg.graph.neighbors(dom) == frozenset(copies)


def test_layer_product_rejects_bad_blueprint():
    with pytest.raises(ValueError):
        gen_layer_product(path_graph(4), {1}, 3)  # not a leaf
    with pytest.raises(ValueError):
        gen_layer_product(Graph.from_edges(3, [(0, 1), (1, 2), ]).add_edges([(0, 2)]), set(), 3)


def test_interior_core_cutoff_without_a_core_is_none():
    cmg = gen_layer_product(path_graph(3), {2}, 2)
    assert cmg.core == ()
    assert cmg.core_boundary() == 0
    assert interior_core_cutoff(cmg, 2) is None
    # a core smaller than k leaves no candidate: the search stops at once
    assert interior_core_cutoff(gen_complete_bipartite(3, 2), 3) is None


def test_interior_core_cutoff_rejects_negative_k():
    # without a core no cutoff is tried, so only the check can see the bad k
    cmg = gen_layer_product(path_graph(3), {2}, 2)
    with pytest.raises(ValueError, match="k must be non-negative, got -1"):
        interior_core_cutoff(cmg, -1)


def test_regular_typical_core():
    cmg = gen_regular_typical(FIG2_BP, 5)
    assert len(cmg.core) == 5
    roles = [cmg.roles[v] for v in cmg.core]
    assert all(r.kind == "core" and r.node == 0 for r in roles)
    assert [r.index for r in roles] == list(range(5))


def test_regular_typical_single_node_tree():
    bp = RegularBlueprint(Graph.from_edges(1), frozenset(), 0)
    cmg = gen_regular_typical(bp, 6)
    assert is_isomorphic(cmg.graph, path_graph(6))
    assert len(cmg.core) == 6


def test_regular_typical_interior_core_is_k_connected():
    cmg = gen_regular_typical(FIG2_BP, 5)
    k = FIG2_BP.k
    cutoff = interior_core_cutoff(cmg, k)
    assert cutoff is not None
    assert cmg.core_boundary() - cutoff <= k + 2


def test_degenerate_frayed_roles_and_core():
    cmg = gen_degenerate_frayed(4, 2, SEQ234)
    assert len(cmg.core) == 9
    assert len(cmg.with_kind("degenerate")) == 2
    assert len(cmg.with_kind("frayed_centre")) == 2
    assert len(cmg.with_kind("finite_side")) == 2 * 3
    # frayed centres reach every block through their stars
    for x in cmg.with_kind("frayed_centre"):
        assert cmg.graph.degree(x) == len(SEQ234)


def test_degenerate_frayed_fully_degenerate_is_complete_bipartite():
    cmg = gen_degenerate_frayed(3, 3, SEQ234)
    flat = gen_complete_bipartite(3, sum(SEQ234.sizes))
    assert is_isomorphic(cmg.graph, flat.graph)


def test_degenerate_frayed_single_block():
    cmg = gen_degenerate_frayed(3, 0, GoodSequence((4,)))
    # one K(3, 4) block plus three one-leaf stars
    assert cmg.graph.n == 4 + 3 + 3
    assert len(cmg.graph.edges) == 12 + 3


def test_degenerate_frayed_interior_core():
    cmg = gen_degenerate_frayed(4, 2, SEQ234)
    cutoff = interior_core_cutoff(cmg, 4)
    assert cutoff is not None
    assert cmg.core_boundary() - cutoff <= 4 + 2


def test_singular_typical_fig4_shape():
    cmg = gen_singular_typical(FIG4_SBP, SEQ234, 7)
    assert len(cmg.with_kind("degenerate")) == 1
    assert len(cmg.with_kind("frayed_centre")) == 2
    assert len(cmg.core) == 9
    assert len(cmg.with_kind("dominating")) == 1


def test_singular_typical_identification_layer():
    # a slot with parity 1 glues block 0 at layer |V(b)| + 1
    cmg = gen_singular_typical(FIG4_SBP, SEQ234, 7)
    g = cmg.graph
    z0 = cmg.core[0]
    glue_layers = sorted(
        cmg.roles[u].index
        for u in g.neighbors(z0)
        if cmg.roles[u].kind == "layer"
    )
    b_order = FIG4_SBP.b.n
    assert glue_layers == [b_order, b_order, b_order + 1, b_order + 1]
    nodes = sorted(
        (cmg.roles[u].node, cmg.roles[u].index - b_order)
        for u in g.neighbors(z0)
        if cmg.roles[u].kind == "layer"
    )
    assert nodes == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_singular_typical_minimal_case():
    sbp = SingularBlueprint(0, 0, Graph.from_edges(1), frozenset(), {0: (0, 0)})
    cmg = gen_singular_typical(sbp, GoodSequence((3,)), 1)
    # one block K(1, 3) glued onto a path
    assert len(cmg.core) == 3
    assert cmg.with_kind("frayed_centre") == []
    assert cmg.with_kind("degenerate") == []


def test_singular_typical_dimension_check():
    with pytest.raises(ValueError):
        gen_singular_typical(FIG4_SBP, SEQ234, 6)


def test_two_bipartite_matched_counts():
    cmg = two_bipartite_matched(4)
    assert cmg.graph.n == 12
    assert len(cmg.graph.edges) == 20
    assert len(cmg.core) == 4
    small = two_bipartite_matched(1)
    assert small.graph.n == 6


def test_two_bipartite_matched_degree_profile():
    cmg = two_bipartite_matched(5)
    degs = sorted(cmg.graph.degree(v) for v in cmg.graph.vertices)
    assert degs == [3] * 10 + [5] * 4


def test_two_bipartite_matched_core_is_4_connected():
    cmg = two_bipartite_matched(5)
    assert is_k_connected(cmg.graph, cmg.core, 4).ok


# ---------------------------------------------------------------------------
# blow-ups


def test_blow_up_single_node_is_isomorphic():
    rng = random.Random(5)
    g = random_graph(rng, 6, p=0.5)
    t = Graph.from_edges(1)
    out, _, _ = apply_blowups(g, {2: (t, {u: 0 for u in g.neighbors(2)})})
    assert is_isomorphic(out, g)


def test_blow_up_star_centre_into_edge():
    g = complete_bipartite_graph(1, 3)  # centre 0, leaves 1..3
    t = Graph.from_edges(2, [(0, 1)])
    out, _, _ = apply_blowups(g, {0: (t, {1: 0, 2: 0, 3: 1})})
    expected = Graph.from_edges(5, [(0, 3), (1, 3), (3, 4), (2, 4)])
    assert is_isomorphic(out, expected)
    assert out.is_tree()


def test_blow_up_requires_total_gamma():
    g = path_graph(3)
    with pytest.raises(ValueError):
        apply_blowups(g, {1: (Graph.from_edges(1), {0: 0})})


def test_type1_template_rejects_gamma_outside_the_tree():
    edge = Graph.from_edges(2, [(0, 1)])
    for bad in (5, -1):
        with pytest.raises(ValueError, match="gamma must map into the tree's nodes"):
            Type1Template(edge, {0: bad, 1: 1}, 0, 2)


def test_path_blowup_rejects_nodes_off_the_path():
    path = path_graph(3)
    for args in ((0, 7, 2, 2, {}), (0, 0, 7, 2, {}), (0, 0, 2, 2, {5: 7})):
        with pytest.raises(ValueError, match="node 7 is not on the path"):
            PathBlowup(path, *args)


def _path_blowup_outcome(*args) -> object:
    result = outcome(lambda: PathBlowup(*args))
    return "ok" if isinstance(result, PathBlowup) else result


def test_path_blowup_reads_the_same_from_either_end():
    """With v0 at the larger-id end the path is read from that end: every
    blow-up is accepted or rejected, with the same message, as its mirror
    image with v0 at the smaller end."""
    for n in range(1, 6):
        path = path_graph(n)
        for v0, vbot, vtop, v1, node in itertools.product(range(n), repeat=5):
            for gamma in ({}, {0: node}):
                mirror = [n - 1 - x for x in (v0, vbot, vtop, v1)]
                mirror_gamma = {i: n - 1 - x for i, x in gamma.items()}
                assert _path_blowup_outcome(path, v0, vbot, vtop, v1, gamma) == (
                    _path_blowup_outcome(path, *mirror, mirror_gamma)
                )


@pytest.mark.parametrize(
    "path, args, outcome",
    [
        # the path 2 - 0 - 3 - 1, with v0 = 2 at its larger-id end
        (Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]), (2, 2, 1, 1, {5: 0}), "ok"),
        (Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]), (2, 0, 3, 1, {5: 0, 6: 3}), "ok"),
        (Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]), (0, 0, 3, 1, {}), "v0 must be an endnode"),
        (Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]), (2, 0, 3, 3, {}), "v1 must be the other endnode"),
        (Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]), (2, 2, 1, 1, {5: 9}), "node 9 is not on the path"),
        (
            Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]),
            (2, 3, 1, 1, {}),
            "vbot must equal v0 or be adjacent to it",
        ),
        (
            Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]),
            (2, 2, 0, 1, {}),
            "vtop must equal v1 or be adjacent to it",
        ),
        (
            Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]),
            (2, 0, 3, 1, {5: 2}),
            "attachments must land between vbot and vtop",
        ),
        (Graph.from_edges(2, [(0, 1)]), (1, 0, 1, 0, {}), "vbot must not pass vtop"),
        (Graph.from_edges(2, [(0, 1)]), (1, 1, 0, 0, {5: 0}), "ok"),
    ],
)
def test_path_blowup_with_v0_at_the_larger_end(path, args, outcome):
    assert _path_blowup_outcome(path, *args) == outcome


def test_blow_up_rejects_vertices_outside_the_graph():
    for v in (3, -1):
        with pytest.raises(ValueError, match=f"vertex {v} outside graph"):
            apply_blowups(path_graph(3), {v: (Graph.from_edges(1), {})})


def _sequential(g, v, tv, gv, w, tw, gw):
    g1, surv, copies = apply_blowups(g, {v: (tv, gv)})
    cop = copies[v]
    gw2 = {}
    for x, node in gw.items():
        if x == v:
            gw2[cop[gv[w]]] = node
        else:
            gw2[surv[x]] = node
    return apply_blowups(g1, {surv[w]: (tw, gw2)})[0]


def test_blow_up_commutes():
    rng = random.Random(99)
    t1 = Graph.from_edges(2, [(0, 1)])
    t2 = path_graph(3)
    for _ in range(20):
        g = random_graph(rng, 7, p=0.5)
        v, w = rng.sample(range(7), 2)
        gv = {u: rng.randint(0, 1) for u in g.neighbors(v)}
        gw = {u: rng.randint(0, 2) for u in g.neighbors(w)}
        via_vw = _sequential(g, v, t1, gv, w, t2, gw)
        via_wv = _sequential(g, w, t2, gw, v, t1, gv)
        assert is_isomorphic(via_vw, via_wv)
        joint, _, _ = apply_blowups(g, {v: (t1, gv), w: (t2, gw)})
        assert is_isomorphic(joint, via_vw)


# ---------------------------------------------------------------------------
# generalised families


def test_generalised_k4m_matches_two_bipartite_matched():
    for m in (3, 4, 5):
        gen = gen_generalised_complete_bipartite(4, m, edge_template(4))
        host = two_bipartite_matched(m)
        assert is_isomorphic(gen.graph, host.graph)


def test_generalised_trivial_template_is_parent():
    t = Type1Template(Graph.from_edges(1), {i: 0 for i in range(3)}, 0, 3)
    gen = gen_generalised_complete_bipartite(3, 5, t)
    assert is_isomorphic(gen.graph, gen.parent.graph)


def test_generalised_frayed_core_and_parent():
    gen = gen_generalised("frayed", 4, 2, SEQ234, edge_template(4))
    assert gen.parent is not None
    assert len(gen.core) == len(gen.parent.core)
    # every core vertex of the parent has exactly one core copy
    assert sorted(gen.parent_map[v] for v in gen.core) == sorted(gen.parent.core)
    cutoff = interior_core_cutoff(gen, 4)
    assert cutoff is not None
    assert gen.core_boundary() - cutoff <= 4 + 2


def test_generalised_regular_core_moves_to_v1():
    gen = gen_generalised_regular(FIG2_BP, 5, simple_type2(FIG2_BP))
    assert len(gen.core) == 5
    assert gen.parent is not None
    # parent had 16 vertices; each of the 15 product vertices doubles
    assert gen.graph.n == 15 * 2 + 1
    cutoff = interior_core_cutoff(gen, FIG2_BP.k)
    assert cutoff is not None
    assert gen.core_boundary() - cutoff <= FIG2_BP.k + 2


def test_generalised_regular_attachments_on_a_nonsimple_template():
    t2 = nonsimple_type2(FIG2_BP.b, FIG2_BP.d)
    gen = gen_generalised_regular(FIG2_BP, 3, t2)
    parent = gen.parent
    product = {(r.node, r.index): v for v, r in enumerate(parent.roles) if r.kind != "dominating"}
    (dom,) = parent.with_kind("dominating")
    for (x, n), v in product.items():
        if (x, n + 1) in product:
            # up the ray: the lower copy attaches at vtop, the upper at vbot
            assert attachments(gen, v, product[x, n + 1]) == {(2, 1)}
        for y in FIG2_BP.b.neighbors(x):
            w = product.get((y, n), dom)
            other = t2.entries[y].gamma[x] if w != dom else 0
            assert attachments(gen, v, w) == {(t2.entries[x].gamma[y], other)}
    assert gen.core == tuple(copies_of(gen, product[FIG2_BP.c, n])[3] for n in range(3))


def test_generalised_singular_attachments_on_a_nonsimple_template():
    t1 = Type1Template(path_graph(3), {0: 0, 1: 2, 2: 2}, 1, 3)
    t3 = Type3Template(t1, nonsimple_type2(FIG4_SBP.b, FIG4_SBP.d))
    gen = gen_generalised_singular(FIG4_SBP, GoodSequence((2, 3)), 7, t3)
    parent = gen.parent
    parities = []
    for z in parent.core:
        for w in parent.graph.neighbors(z):
            role = parent.roles[w]
            if role.kind == "layer":
                # a glued block: c on the block's side, v1 on even layers, v0 on odd
                parities.append(role.index % 2)
                assert attachments(gen, z, w) == {(1, 3 if role.index % 2 == 0 else 0)}
            else:
                assert attachments(gen, z, w) == {(t1.gamma[role.node], 0)}
    assert sorted(parities) == [0] * 10 + [1] * 10
    layer = {(r.node, r.index): v for v, r in enumerate(parent.roles) if r.kind == "layer"}
    for (x, n), v in layer.items():
        if (x, n + 1) in layer:
            assert attachments(gen, v, layer[x, n + 1]) == {(2, 1)}
    assert gen.core == tuple(copies_of(gen, z)[1] for z in parent.core)


def test_generalised_singular_builds_and_connects():
    t3 = Type3Template(edge_template(3), simple_type2(RegularBlueprint(path_graph(4), frozenset({3}), 0)))
    gen = gen_generalised_singular(FIG4_SBP, GoodSequence((2, 3)), 7, t3)
    assert gen.parent is not None
    assert len(gen.core) == 5
    assert gen.graph.is_connected()


def test_generalised_rejects_bad_arity():
    with pytest.raises(ValueError):
        gen_generalised_complete_bipartite(3, 4, edge_template(4))


def test_gen_generalised_dispatch():
    with pytest.raises(ValueError):
        gen_generalised("no-such-family", 1)
    out = gen_generalised("complete-bipartite", 2, 3, edge_template(2))
    assert isinstance(out, CoreMarkedGraph)


# ---------------------------------------------------------------------------
# roles and serialization


SLOTS = [None] + list(range(10))
ALL_ROLES = [Role(*args) for args in itertools.product(_ROLE_KINDS, SLOTS, SLOTS)]
# Regression inputs: a "kind(args)" string encoding cannot tell the first
# two apart from Role("core", index=3) and Role("layer", node=2).
CODEC_CASES = [
    Role("core", node=3),
    Role("layer", index=2),
    Role("core"),
    Role("core", index=2),
    Role("core", node=1, index=4),
    Role("layer", node=2, index=5),
    Role("finite_side", node=1, index=0),
    Role("degenerate", node=0),
    Role("dominating", node=3),
    Role("blown_up", node=7),
    Role("matched", node=2),
]
roles_strategy = st.builds(
    Role, st.sampled_from(_ROLE_KINDS), st.sampled_from(SLOTS), st.sampled_from(SLOTS)
)


blown_up_strategy = st.one_of(
    st.builds(
        lambda k, m: gen_generalised_complete_bipartite(k, m, edge_template(k)),
        st.integers(1, 4),
        st.integers(1, 5),
    ),
    st.builds(
        lambda layers: gen_generalised_regular(FIG2_BP, layers, nonsimple_type2(FIG2_BP.b, FIG2_BP.d)),
        st.integers(1, 3),
    ),
)


def _through_json(obj: dict) -> dict:
    return json.loads(json.dumps(obj))


def _fields(cmg: CoreMarkedGraph | None) -> tuple | None:
    """Every field of ``cmg`` and of its parents, for an exact comparison."""
    if cmg is None:
        return None
    return (cmg.graph, cmg.core, cmg.roles, _fields(cmg.parent), cmg.parent_map)


@settings(max_examples=60, deadline=None)
@given(st.lists(roles_strategy, min_size=1, max_size=12), st.integers(0, 10_000), blown_up_strategy)
@example(CODEC_CASES, 0, gen_generalised_complete_bipartite(1, 1, edge_template(1)))
@example(ALL_ROLES, 1, gen_generalised_complete_bipartite(1, 1, edge_template(1)))
def test_json_round_trips_are_exact(roles, seed, blown_up):
    for cmg in (CoreMarkedGraph(Graph.from_edges(len(roles)), (0,), tuple(roles)), blown_up):
        back = CoreMarkedGraph.from_json(_through_json(cmg.to_json()))
        assert _fields(back) == _fields(cmg)

    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(1, 7))
    nss = random_nested_system(rng, g, allow_improper=rng.random() < 0.5)
    assert NestedSeparationSystem.from_json(_through_json(nss.to_json())) == nss
    for s in nss.seps:
        assert Separation.from_json(_through_json(s.to_json())) == s
    td = nss_to_td(random_nested_system(rng, g))
    assert TreeDecomposition.from_json(_through_json(td.to_json())) == td


def test_cmg_json_round_trip_with_parent():
    gen = gen_generalised_complete_bipartite(3, 4, edge_template(3))
    back = CoreMarkedGraph.from_json(gen.to_json())
    assert back.graph == gen.graph
    assert back.core == gen.core
    assert back.roles == gen.roles
    assert back.parent.graph == gen.parent.graph
    assert back.parent_map == gen.parent_map


def test_cmg_stores_tuples_whatever_sequence_it_is_given():
    """Lists given to the constructor are stored as tuples, so the JSON round
    trip gives equal fields."""
    cmg = CoreMarkedGraph(Graph.from_edges(2), [0], [Role("core")] * 2)
    child = CoreMarkedGraph(Graph.from_edges(2), [], [Role("blown_up", node=0)] * 2, cmg, [0, 0])
    for c in (cmg, child):
        assert _fields(CoreMarkedGraph.from_json(_through_json(c.to_json()))) == _fields(c)
    assert (cmg.core, cmg.roles, child.parent_map) == ((0,), (Role("core"),) * 2, (0, 0))


def _set(items: list, i: int, value: object) -> None:
    items[i] = value


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.update(core=[1.0, True]), "expected an integer, got 1.0"),
        (lambda o: o.update(core=[True]), "expected an integer, got True"),
        (lambda o: o["roles"][1].update(node=1.5), "expected an integer, got 1.5"),
        (lambda o: o["roles"][1].update(index=True), "expected an integer, got True"),
        (lambda o: o["roles"][1].update(colour=3), r"unknown role fields \['colour'\]"),
        (lambda o: o["roles"].pop(), "roles must be one Role per vertex"),
        (lambda o: _set(o["parent_map"], 1, 7.5), "expected an integer, got 7.5"),
        (lambda o: _set(o["parent_map"], 1, 3), "vertex 3 outside graph"),
        (lambda o: _set(o["parent_map"], 1, "0"), "expected an integer, got '0'"),
        (lambda o: o.pop("parent_map"), "parent and parent_map must be given together"),
    ],
)
def test_cmg_from_json_accepts_only_vertex_ids(mutate, message):
    t1 = Type1Template(Graph.from_edges(2, [(0, 1)]), {0: 0, 1: 1}, 0, 2)
    obj = gen_generalised_complete_bipartite(2, 1, t1).to_json()
    assert CoreMarkedGraph.from_json(obj).roles[1] == Role("finite_side", node=1)
    mutate(obj)
    with pytest.raises(ValueError, match=message):
        CoreMarkedGraph.from_json(obj)


EDGE = Graph.from_edges(2, [(0, 1)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
SIMPLE2 = simple_type2(FIG2_BP)
NONSIMPLE2 = nonsimple_type2(FIG4_SBP.b, FIG4_SBP.d)
ROLES2 = (Role("core"),) * 2
PLAIN = CoreMarkedGraph(EDGE, (), ROLES2)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: Role("vertex"), "unknown role kind 'vertex'", id="role-kind"),
        pytest.param(
            lambda: CoreMarkedGraph(EDGE, (), (Role("core"),)),
            "roles must be one Role per vertex",
            id="cmg-roles",
        ),
        pytest.param(
            # the dict shape: it has one entry per vertex, but iterates over ids
            lambda: CoreMarkedGraph(EDGE, (), dict(enumerate(ROLES2))),
            "roles must be one Role per vertex",
            id="cmg-roles-dict",
        ),
        pytest.param(lambda: CoreMarkedGraph(EDGE, (2,), ROLES2), "vertex 2 outside graph", id="cmg-core"),
        pytest.param(
            lambda: CoreMarkedGraph(EDGE, (1.0,), ROLES2), "expected an integer, got 1.0", id="cmg-core-float"
        ),
        pytest.param(lambda: Role("core", index=1.5), "expected an integer, got 1.5", id="role-index-float"),
        pytest.param(lambda: Role("core", node=True), "expected an integer, got True", id="role-node-bool"),
        pytest.param(
            lambda: CoreMarkedGraph(EDGE, (), ROLES2, parent=PLAIN),
            "parent and parent_map must be given together",
            id="cmg-parent-without-map",
        ),
        pytest.param(
            lambda: CoreMarkedGraph(EDGE, (), ROLES2, parent_map=(0, 1)),
            "parent and parent_map must be given together",
            id="cmg-map-without-parent",
        ),
        pytest.param(
            lambda: CoreMarkedGraph(EDGE, (), ROLES2, PLAIN, (0,)),
            "parent_map must cover every vertex exactly",
            id="cmg-parent-map-short",
        ),
        pytest.param(
            lambda: CoreMarkedGraph(EDGE, (), ROLES2, PLAIN, (0, 2)),
            "vertex 2 outside graph",
            id="cmg-parent-map-range",
        ),
        pytest.param(
            lambda: RegularBlueprint(cycle_graph(3), frozenset(), 0),
            "blueprint tree must be a tree",
            id="blueprint-tree",
        ),
        pytest.param(
            lambda: RegularBlueprint(path_graph(3), frozenset({1}), 0),
            "d must be a set of leaves of the blueprint tree",
            id="blueprint-leaves",
        ),
        pytest.param(
            lambda: RegularBlueprint(EDGE, frozenset({0, 1}), 0),
            "d must leave at least one tree node",
            id="blueprint-d-everything",
        ),
        pytest.param(
            lambda: RegularBlueprint(path_graph(3), frozenset({2}), 2),
            "c must be a tree node outside d",
            id="blueprint-c-in-d",
        ),
        pytest.param(
            lambda: RegularBlueprint(path_graph(3), frozenset(), 3),
            "c must be a tree node outside d",
            id="blueprint-c-off-tree",
        ),
        pytest.param(lambda: GoodSequence((0, 1)), "sizes must be positive", id="sequence-positive"),
        pytest.param(lambda: GoodSequence((2, 2)), "sizes must be strictly ascending", id="sequence-ascending"),
        pytest.param(lambda: GoodSequence(()), "sequence must be non-empty", id="sequence-empty"),
        pytest.param(
            lambda: SingularBlueprint(-1, 0, EDGE, frozenset(), {}),
            "ell and f must be non-negative",
            id="singular-ell",
        ),
        pytest.param(
            lambda: SingularBlueprint(0, 0, path_graph(3), frozenset({0, 2}), {}),
            "d may cover at most half of the tree nodes",
            id="singular-d-half",
        ),
        pytest.param(
            lambda: SingularBlueprint(0, 0, EDGE, frozenset(), {0: (0, 0)}),
            "sigma must be defined exactly on [0, 1]",
            id="singular-sigma-domain",
        ),
        pytest.param(
            lambda: SingularBlueprint(0, 0, EDGE, frozenset({1}), {0: (1, 0), 1: (0, 0)}),
            "sigma nodes must avoid d",
            id="singular-sigma-in-d",
        ),
        pytest.param(
            lambda: SingularBlueprint(0, 0, EDGE, frozenset(), {0: (5, 0), 1: (0, 0)}),
            "sigma nodes must avoid d",
            id="singular-sigma-off-tree",
        ),
        pytest.param(
            lambda: SingularBlueprint(0, 0, EDGE, frozenset(), {0: (0, 2), 1: (1, 0)}),
            "sigma parity must be 0 or 1",
            id="singular-sigma-parity",
        ),
        pytest.param(
            lambda: SingularBlueprint(0, 0, EDGE, frozenset(), {0: (0, 0), 1: (0, 0)}),
            "sigma must be injective",
            id="singular-sigma-injective",
        ),
        pytest.param(lambda: gen_complete_bipartite(-1, 2), "need k >= 0 and m >= 1", id="bipartite-k"),
        pytest.param(lambda: gen_complete_bipartite(1, 0), "need k >= 0 and m >= 1", id="bipartite-m"),
        pytest.param(
            lambda: gen_layer_product(path_graph(3), {0}, 0), "layers must be at least 1", id="product-layers"
        ),
        pytest.param(lambda: gen_regular_typical(FIG2_BP, 0), "layers must be at least 1", id="regular-layers"),
        pytest.param(lambda: gen_degenerate_frayed(2, 3, SEQ234), "need 0 <= ell <= k", id="frayed-ell"),
        pytest.param(
            lambda: gen_singular_typical(FIG4_SBP, SEQ234, 6),
            "blueprint describes k=7, requested k=6 (inconsistent dimensions)",
            id="singular-k",
        ),
        pytest.param(lambda: two_bipartite_matched(0), "m must be at least 1", id="matched-m"),
        pytest.param(
            lambda: apply_blowups(path_graph(3), {1: (cycle_graph(3), {0: 0, 2: 0})}),
            "blow-up pattern must be a tree",
            id="blowup-tree",
        ),
        pytest.param(
            lambda: apply_blowups(path_graph(3), {1: (Graph.from_edges(1), {0: 0})}),
            "gamma not total on neighbours of 1: missing [2]",
            id="blowup-gamma-total",
        ),
        pytest.param(
            lambda: apply_blowups(path_graph(3), {1: (Graph.from_edges(1), {0: 0, 2: 1})}),
            "gamma must map into the tree",
            id="blowup-gamma-range",
        ),
        pytest.param(
            lambda: Type1Template(cycle_graph(3), {}, 0, 0), "template tree must be a tree", id="type1-tree"
        ),
        pytest.param(
            lambda: Type1Template(EDGE, {0: 0}, 0, 2), "gamma must cover exactly [0, 2)", id="type1-gamma-domain"
        ),
        pytest.param(lambda: Type1Template(EDGE, {0: 0, 1: 1}, 2, 2), "c must be a tree node", id="type1-c"),
        pytest.param(
            lambda: Type1Template(path_graph(3), {0: 0}, 0, 1),
            "node 1 of low degree is neither c nor attached",
            id="type1-low-degree",
        ),
        pytest.param(
            lambda: Type1Template(Graph.from_edges(1), {}, 0, -1), "k must be non-negative, got -1", id="type1-size"
        ),
        pytest.param(
            lambda: PathBlowup(STAR, 1, 1, 2, 2, {}), "blow-up pattern must be a path", id="path-blowup-star"
        ),
        pytest.param(
            lambda: Type2Template({}, 4).validate_for(FIG2_BP.b, FIG2_BP.d),
            "one entry per non-d blueprint node required",
            id="type2-entries",
        ),
        pytest.param(
            lambda: Type2Template(NONSIMPLE2.entries, 0).validate_for(FIG4_SBP.b, FIG4_SBP.d),
            "blow-up path too long",
            id="type2-length",
        ),
        pytest.param(
            lambda: Type2Template({**SIMPLE2.entries, 0: PathBlowup(EDGE, 0, 0, 1, 1, {})}, 4).validate_for(
                FIG2_BP.b, FIG2_BP.d
            ),
            "gamma of node 0 must cover its blueprint neighbours",
            id="type2-gamma",
        ),
        pytest.param(
            lambda: gen_generalised_complete_bipartite(3, 4, edge_template(2)),
            "template arity does not match k",
            id="generalised-bipartite-arity",
        ),
        pytest.param(
            lambda: gen_generalised_degenerate_frayed(3, 1, SEQ234, edge_template(2)),
            "template arity does not match k",
            id="generalised-frayed-arity",
        ),
        pytest.param(
            lambda: gen_generalised_regular(FIG2_BP, 3, Type2Template(SIMPLE2.entries, 3)),
            "template arity does not match the blueprint order",
            id="generalised-regular-arity",
        ),
        pytest.param(
            lambda: gen_generalised_singular(FIG4_SBP, SEQ234, 7, Type3Template(edge_template(2), NONSIMPLE2)),
            "tree template arity must be ell + f",
            id="generalised-singular-tree-arity",
        ),
        pytest.param(
            lambda: gen_generalised_singular(
                FIG4_SBP, SEQ234, 7, Type3Template(edge_template(3), Type2Template(NONSIMPLE2.entries, 3))
            ),
            "path template arity must be k - ell - f",
            id="generalised-singular-path-arity",
        ),
        pytest.param(
            lambda: gen_generalised("tree"),
            "unknown family 'tree'; choose from ['complete-bipartite', 'frayed', 'regular', 'singular']",
            id="generalised-family",
        ),
    ],
)
def test_typical_gen_rejections(call, expected):
    assert outcome(call) == expected
