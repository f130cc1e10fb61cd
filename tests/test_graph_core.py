import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from kconnkit.graph_core import (
    Graph,
    Separation,
    check_k,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    graph_from_json,
    graph_to_json,
    is_separation,
    menger,
    menger_count,
    path_graph,
    reachable_mask,
    validate_path_system,
)
from kconnkit.canon import connected_graphs
from oracles import (
    brute_is_separator,
    brute_menger_separator,
    brute_max_disjoint_paths,
    min_separator_size,
    outcome,
    random_graph,
)


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_graph_normalises_edges():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.sorted_edges() == [(0, 2), (1, 2)]
    assert g.neighbors(2) == frozenset({0, 1})
    assert g.degree(0) == 1


def test_components_empty_graph():
    assert components(Graph.from_edges(0)) == []


def test_components_triangle():
    assert components(complete_graph(3)) == [frozenset({0, 1, 2})]


def test_components_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert components(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_reachable_mask_stops_once_it_holds_cover():
    assert reachable_mask(path_graph(6).adjacency_masks, 0b1, 0b111111, 0b100) == 0b111
    rng = random.Random(11)
    for g in connected_graphs(6):
        for _ in range(4):
            start = 1 << rng.randrange(g.n)
            allowed, cover = rng.getrandbits(g.n), rng.getrandbits(g.n)
            full = reachable_mask(g.adjacency_masks, start, allowed)
            got = reachable_mask(g.adjacency_masks, start, allowed, cover)
            if cover & ~full:
                assert got == full
            else:
                assert not got & ~full and not cover & ~got


def test_vertex_arguments_outside_the_graph_are_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError, match="vertex (-1|5) outside"):
        g.induced_subgraph([-1, 5])


def test_menger_complete_bipartite_sides():
    g = complete_bipartite_graph(3, 3)
    res = menger(g, {0, 1, 2}, {3, 4, 5})
    assert len(res.paths) == 3
    assert validate_path_system(g, res.paths, {0, 1, 2}, {3, 4, 5})


def test_menger_path_cut_vertex():
    g = path_graph(3)
    res = menger(g, {0}, {2})
    assert len(res.paths) == 1
    assert res.separator == frozenset({1})
    assert res.paths == ((0, 1, 2),)


def test_menger_trivial_paths_in_intersection():
    # every 0-2 path passes 1, so the trivial path at 1 is the only one
    g = path_graph(3)
    res = menger(g, {0, 1}, {1, 2})
    assert len(res.paths) == 1
    assert res.separator == frozenset({1})
    assert res.paths == ((1,),)
    assert validate_path_system(g, res.paths, {0, 1}, {1, 2})


def test_menger_empty_sides():
    g = path_graph(3)
    assert menger(g, set(), {0}).paths == ()
    assert menger(g, set(), set()).paths == ()


def test_flow_rejects_out_of_range_vertices():
    g = path_graph(4)
    for bad in (-1, g.n):
        with pytest.raises(ValueError):
            menger_count(g, {0}, {bad})
        with pytest.raises(ValueError):
            menger_count(g, {bad}, {0})
        with pytest.raises(ValueError):
            menger(g, {0}, {bad})


def test_menger_matches_brute_force_on_seeded_instances():
    rng = random.Random(80345)
    for _ in range(60):
        g = random_graph(rng, 8)
        a = frozenset(v for v in g.vertices if rng.random() < 0.4)
        b = frozenset(v for v in g.vertices if rng.random() < 0.4)
        res = menger(g, a, b)
        assert len(res.paths) == brute_max_disjoint_paths(g, a, b)
        assert len(res.paths) == len(res.separator)
        assert validate_path_system(g, res.paths, a, b)
        assert brute_is_separator(g, res.separator, a, b)
        assert a & b <= res.separator


def test_menger_is_deterministic():
    rng = random.Random(7)
    g = random_graph(rng, 7)
    a, b = frozenset({0, 1, 2}), frozenset({4, 5, 6})
    r1 = menger(g, a, b)
    r2 = menger(g, a, b)
    assert r1 == r2


def test_is_separation_examples():
    g = path_graph(3)
    assert is_separation(g, Separation.of({0, 1}, {1, 2}))
    k3 = complete_graph(3)
    assert not is_separation(k3, Separation.of({0, 1}, {1, 2}))
    assert is_separation(g, Separation.of({0, 1, 2}, {0, 1, 2}))
    assert not is_separation(g, Separation.of({0}, {2}))


def test_separation_order_and_inverse():
    s = Separation.of({0, 1}, {1, 2})
    assert s.order == 1
    assert s.separator == frozenset({1})
    assert s.inverse() == Separation.of({1, 2}, {0, 1})


def test_min_separator_size_disjoint_components():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert min_separator_size(g, {0, 1}, {2, 3}) == 0


def test_min_separator_size_shared_vertex():
    g = path_graph(3)
    assert min_separator_size(g, {1}, {1}) == 1


def test_min_separator_size_matches_menger_on_seeded_instances():
    rng = random.Random(20211)
    for _ in range(40):
        g = random_graph(rng, 8)
        a = frozenset(v for v in g.vertices if rng.random() < 0.4)
        b = frozenset(v for v in g.vertices if rng.random() < 0.4)
        assert min_separator_size(g, a, b) == len(menger(g, a, b).paths)


def test_menger_separator_matches_the_brute_force_rule():
    """menger's separator is the one with the fewest vertices, then the
    fewest of a | b, then the inclusion-least a-side.  Many cases have more
    than one minimum separator, so the tie-break itself is checked."""
    rng = random.Random(1401)
    cases = competing = 0
    for g in connected_graphs(6):
        for _ in range(6):
            vs = rng.sample(range(g.n), g.n)
            cut = rng.randint(1, min(3, g.n))
            a, b = frozenset(vs[:cut]), frozenset(vs[cut : cut + rng.randint(1, 3)])
            res = menger(g, a, b)
            assert res.separator == brute_menger_separator(g, a, b), (g, a, b)
            minimum = [
                s
                for s in itertools.combinations(g.vertices, len(res.paths))
                if brute_is_separator(g, frozenset(s), a, b)
            ]
            cases += 1
            competing += len(minimum) > 1
    assert cases == 858
    assert competing > 300, competing


def test_menger_side_is_the_separator_plus_the_components_meeting_a():
    """menger's side, read off its weighted flow, is X plus every vertex
    that a plain BFS reaches from a - X in g - X, and it is the a-side of a
    separation of order ``len(paths)`` with b on the other side."""
    rng = random.Random(1902)
    cases = 0
    for g in connected_graphs(6):
        for _ in range(4):
            a = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
            b = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
            res = menger(g, a, b)
            x = res.separator
            reached = set(a - x)
            queue = list(reached)
            for v in queue:
                for w in g.neighbors(v):
                    if w not in reached and w not in x:
                        reached.add(w)
                        queue.append(w)
            assert res.side == x | reached, (g, a, b)
            assert a <= res.side
            sep = Separation(res.side, (g.vertex_set - res.side) | x)
            assert is_separation(g, sep) and sep.order == len(res.paths) and b <= sep.b
            cases += 1
    assert cases == 572


@st.composite
def graphs_and_sets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in all_pairs if draw(st.booleans())]
    a = frozenset(v for v in range(n) if draw(st.booleans()))
    b = frozenset(v for v in range(n) if draw(st.booleans()))
    return Graph.from_edges(n, edges), a, b


@settings(max_examples=120, deadline=None)
@given(graphs_and_sets())
def test_menger_duality_property(data):
    g, a, b = data
    res = menger(g, a, b)
    assert len(res.paths) == min_separator_size(g, a, b)
    assert validate_path_system(g, res.paths, a, b)
    assert brute_is_separator(g, res.separator, a, b)


def test_each_menger_path_hits_every_separator():
    rng = random.Random(99)
    for _ in range(20):
        g = random_graph(rng, 6)
        a = frozenset({0, 1})
        b = frozenset({4, 5})
        res = menger(g, a, b)
        for size in range(g.n + 1):
            for s in itertools.combinations(g.vertices, size):
                fs = frozenset(s)
                if brute_is_separator(g, fs, a, b):
                    for p in res.paths:
                        assert fs & set(p)


def test_menger_count_cached_matches_full():
    g = complete_bipartite_graph(2, 5)
    assert menger_count(g, {2, 3, 4}, {5, 6}) == len(menger(g, {2, 3, 4}, {5, 6}).paths)


def test_graph_json_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 7)
        assert graph_from_json(json.loads(json.dumps(graph_to_json(g)))) == g


def test_graph_json_is_bit_exact():
    g = Graph.from_edges(3, [(2, 1), (0, 2)])
    assert graph_to_json(g) == {"n": 3, "edges": [[0, 2], [1, 2]]}


def test_induced_subgraph_mapping():
    g = path_graph(5)
    sub, old = g.induced_subgraph({1, 2, 4})
    assert old == (1, 2, 4)
    assert sub.sorted_edges() == [(0, 1)]


def test_path_system_validation_catches_overlap():
    g = complete_graph(4)
    ps = ((0, 1), (2, 1))
    assert not validate_path_system(g, ps, {0, 2}, {1})


P4 = path_graph(4)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: Graph(-1, frozenset()), "vertex count must be non-negative", id="negative-n"),
        pytest.param(lambda: Graph(2.0, frozenset()), "expected an integer, got 2.0", id="float-n"),
        pytest.param(lambda: Graph(True, frozenset()), "expected an integer, got True", id="bool-n"),
        pytest.param(lambda: Graph(3, frozenset({(0, 1.5)})), "bad edge (0,1.5) for n=3", id="float-edge"),
        pytest.param(lambda: Graph.from_edges(3, [(0, 1.5)]), "expected an integer, got 1.5", id="float-endpoint"),
        pytest.param(lambda: Graph.from_edges(3, [(0, True)]), "expected an integer, got True", id="bool-endpoint"),
        pytest.param(lambda: Graph.from_edges(3, [(1, 1)]), "bad edge (1,1) for n=3", id="loop"),
        pytest.param(
            lambda: P4.relabel([0, 0, 1, 2]), "perm must be a permutation of the vertices", id="not-a-permutation"
        ),
        pytest.param(
            lambda: Graph.from_edges(2).relabel([True, 0]), "expected an integer, got True", id="bool-perm"
        ),
        pytest.param(
            lambda: Graph.from_edges(3).relabel([0.0, 2, 1]), "expected an integer, got 0.0", id="float-perm"
        ),
        pytest.param(lambda: cycle_graph(2), "cycle needs at least 3 vertices", id="cycle-of-two"),
        pytest.param(lambda: check_k(-1), "k must be non-negative, got -1", id="negative-k"),
        pytest.param(lambda: check_k(2.0), "expected an integer, got 2.0", id="float-k"),
        pytest.param(lambda: check_k(True), "expected an integer, got True", id="bool-k"),
        pytest.param(lambda: check_k("2"), "expected an integer, got '2'", id="str-k"),
        pytest.param(lambda: validate_path_system(P4, ((0, 1, 2, 3),), {0}, {3}), True, id="valid"),
        pytest.param(lambda: validate_path_system(P4, ((),), {0}, {3}), False, id="empty-path"),
        pytest.param(
            lambda: validate_path_system(P4, ((1, 2, 3),), {0}, {3}), False, id="start-outside-a"
        ),
        pytest.param(
            lambda: validate_path_system(P4, ((0, 1, 2),), {0}, {3}), False, id="end-outside-b"
        ),
        pytest.param(
            lambda: validate_path_system(P4, ((0, 1, 2, 3),), {0, 1}, {3}), False, id="interior-in-a"
        ),
        pytest.param(lambda: validate_path_system(P4, ((0, 2, 3),), {0}, {3}), False, id="non-edge"),
        pytest.param(
            lambda: validate_path_system(P4, ((0, 1, 2, 1, 2, 3),), {0}, {3}),
            False,
            id="repeated-vertex",
        ),
        pytest.param(
            lambda: validate_path_system(complete_graph(4), ((0, 2, 3), (1, 2, 3)), {0, 1}, {3}),
            False,
            id="shared-vertex",
        ),
        # a one-vertex path has no edge to check, so its vertex is checked on its own
        pytest.param(
            lambda: validate_path_system(path_graph(3), [[99]], {99}, {99}), False, id="vertex-outside-graph"
        ),
        pytest.param(lambda: validate_path_system(path_graph(3), [(True,)], {1}, {1}), False, id="bool-vertex"),
    ],
)
def test_graph_core_rejections(call, expected):
    assert outcome(call) == expected
