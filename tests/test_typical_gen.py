import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kconnkit.canon import is_isomorphic
from kconnkit.graph_core import Graph, Separation, complete_bipartite_graph, path_graph
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
    gen_generalised_regular,
    gen_generalised_singular,
    gen_layer_product,
    gen_regular_typical,
    gen_singular_typical,
    interior_core_cutoff,
    two_bipartite_matched,
)
from oracles import random_connected_graph, random_graph, random_nested_system

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


def test_layer_product_rejects_bad_blueprint():
    with pytest.raises(ValueError):
        gen_layer_product(path_graph(4), {1}, 3)  # not a leaf
    with pytest.raises(ValueError):
        gen_layer_product(Graph.from_edges(3, [(0, 1), (1, 2), ]).add_edges([(0, 2)]), set(), 3)


def test_regular_typical_core():
    cmg = gen_regular_typical(FIG2_BP, 5)
    assert len(cmg.core) == 5
    roles = [cmg.role_of(v) for v in cmg.core]
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
        cmg.role_of(u).index
        for u in g.neighbors(z0)
        if cmg.role_of(u).kind == "layer"
    )
    b_order = FIG4_SBP.b.n
    assert glue_layers == [b_order, b_order, b_order + 1, b_order + 1]
    nodes = sorted(
        (cmg.role_of(u).node, cmg.role_of(u).index - b_order)
        for u in g.neighbors(z0)
        if cmg.role_of(u).kind == "layer"
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


def _through_json(obj: dict) -> dict:
    return json.loads(json.dumps(obj))


@settings(max_examples=60, deadline=None)
@given(st.lists(roles_strategy, min_size=1, max_size=12), st.integers(0, 10_000))
@example(CODEC_CASES, 0)
@example(ALL_ROLES, 1)
def test_json_round_trips_are_exact(roles, seed):
    cmg = CoreMarkedGraph(Graph.from_edges(len(roles)), (0,), dict(enumerate(roles)))
    back = CoreMarkedGraph.from_json(_through_json(cmg.to_json()))
    assert (back.graph, back.core, back.roles) == (cmg.graph, cmg.core, cmg.roles)

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
    assert back.roles == dict(gen.roles)
    assert back.parent.graph == gen.parent.graph
    assert dict(back.parent_map) == dict(gen.parent_map)
