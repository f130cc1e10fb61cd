import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kconnkit.graph_core import (
    Graph,
    _disjoint_paths,
    _mask_of,
    PathSystem,
    Separation,
    complete_bipartite_graph,
    complete_graph,
    components,
    graph_from_json_str,
    graph_to_dot,
    graph_to_json_str,
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
    brute_max_disjoint_paths,
    min_separator_size,
    random_graph,
    subgraph_disjoint_paths,
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


def test_components_within_matches_induced_subgraph():
    rng = random.Random(6)
    for g in connected_graphs(6):
        subsets = [set(), set(g.vertices)]
        subsets += [{v for v in g.vertices if rng.random() < 0.5} for _ in range(4)]
        for keep in subsets:
            sub, old = g.induced_subgraph(keep)
            expected = [frozenset(old[v] for v in c) for c in components(sub)]
            assert components(g, keep) == expected


def test_disjoint_paths_within_match_the_induced_subgraph():
    """A vertex mask gives the paths menger finds on a copy of g[within]."""
    rng = random.Random(1811)
    confined = 0
    for g in connected_graphs(6):
        for _ in range(4):
            a = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            b = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            keep = {v for v in g.vertices if rng.random() < 0.75}
            got = _disjoint_paths(g, a, b, within=_mask_of(keep))
            assert got == subgraph_disjoint_paths(g, a, b, keep), (g, a, b, keep)
            confined += len(got) < menger_count(g, a, b)
    assert confined > 0


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
    with pytest.raises(ValueError, match="vertex -1 outside"):
        components(g, [-1])
    with pytest.raises(ValueError, match="vertex 5 outside"):
        components(g, [5])


def test_menger_complete_bipartite_sides():
    g = complete_bipartite_graph(3, 3)
    res = menger(g, {0, 1, 2}, {3, 4, 5})
    assert res.count == 3
    assert validate_path_system(g, res.paths, {0, 1, 2}, {3, 4, 5})


def test_menger_path_cut_vertex():
    g = path_graph(3)
    res = menger(g, {0}, {2})
    assert res.count == 1
    assert res.separator == frozenset({1})
    assert res.paths.paths == ((0, 1, 2),)


def test_menger_trivial_paths_in_intersection():
    # every 0-2 path passes 1, so the trivial path at 1 is the only one
    g = path_graph(3)
    res = menger(g, {0, 1}, {1, 2})
    assert res.count == 1
    assert res.separator == frozenset({1})
    assert res.paths.paths == ((1,),)
    assert validate_path_system(g, res.paths, {0, 1}, {1, 2})


def test_menger_empty_sides():
    g = path_graph(3)
    assert menger(g, set(), {0}).count == 0
    assert menger(g, set(), set()).count == 0


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
        assert res.count == brute_max_disjoint_paths(g, a, b)
        assert res.count == len(res.separator) == len(res.paths.paths)
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
        assert min_separator_size(g, a, b) == menger(g, a, b).count


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
    assert res.count == min_separator_size(g, a, b)
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
                    for p in res.paths.paths:
                        assert fs & set(p)


def test_menger_count_cached_matches_full():
    g = complete_bipartite_graph(2, 5)
    assert menger_count(g, {2, 3, 4}, {5, 6}) == menger(g, {2, 3, 4}, {5, 6}).count


def test_graph_json_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 7)
        assert graph_from_json_str(graph_to_json_str(g)) == g


def test_graph_json_is_bit_exact():
    g = Graph.from_edges(3, [(2, 1), (0, 2)])
    assert graph_to_json_str(g) == '{"edges":[[0,2],[1,2]],"n":3}'


def test_dot_export_sorted():
    g = Graph.from_edges(3, [(1, 2), (0, 1)])
    dot = graph_to_dot(g)
    assert dot.index("0 -- 1") < dot.index("1 -- 2")


def test_induced_subgraph_mapping():
    g = path_graph(5)
    sub, old = g.induced_subgraph({1, 2, 4})
    assert old == (1, 2, 4)
    assert sub.sorted_edges() == [(0, 1)]


def test_path_system_validation_catches_overlap():
    g = complete_graph(4)
    ps = PathSystem(((0, 1), (2, 1)))
    assert not validate_path_system(g, ps, {0, 2}, {1})
