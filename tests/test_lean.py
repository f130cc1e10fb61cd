import random

import pytest

from kconnkit.canon import connected_graphs
from kconnkit.graph_core import Graph, Separation, complete_graph, path_graph
from kconnkit.kconn import is_k_connected
from kconnkit.lean import LeanViolation, build_k_lean_td, is_k_lean_nss, is_k_lean_td
from kconnkit.sepsys import (
    NestedSeparationSystem,
    TreeDecomposition,
    adhesion,
    nss_from_separations,
    nss_to_td,
    td_to_nss,
    validate_td,
)
from oracles import brute_is_separator, random_connected_graph


def test_single_part_complete_graph_is_lean():
    g = complete_graph(5)
    td = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    assert is_k_lean_td(g, td, 3) is True


def test_violation_inside_one_part():
    # a 1-separator edge saves cross-part demands, but demands within one
    # part get no edge clause and must be answered by paths
    g = path_graph(6)
    td = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]),
        (frozenset({0, 1, 2, 3}), frozenset({3, 4, 5})),
    )
    verdict = is_k_lean_td(g, td, 2)
    assert isinstance(verdict, LeanViolation)
    assert not verdict
    assert (verdict.t1, verdict.t2) == (0, 0)
    assert verdict.z1 == frozenset({0, 1})
    assert verdict.z2 == frozenset({1, 2})
    assert verdict.max_paths == 1


def test_checker_rejects_large_adhesion():
    g = path_graph(4)
    td = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]),
        (frozenset({0, 1, 2}), frozenset({1, 2, 3})),
    )
    with pytest.raises(ValueError):
        is_k_lean_td(g, td, 2)


def test_empty_system_leanness():
    assert is_k_lean_nss(NestedSeparationSystem(complete_graph(4), frozenset()), 3) is True
    verdict = is_k_lean_nss(NestedSeparationSystem(path_graph(4), frozenset()), 2)
    assert isinstance(verdict, LeanViolation)


def test_nss_checker_rejects_large_orders():
    g = path_graph(4)
    n = nss_from_separations(g, [Separation.of({0, 1, 2}, {1, 2, 3})])
    with pytest.raises(ValueError):
        is_k_lean_nss(n, 2)


def test_nss_checker_keeps_improper_members():
    # A separation onto the whole vertex set makes nss_to_td refuse the
    # system; the checker still scans its orientation parts.
    g = path_graph(4)
    improper = Separation.of({0, 1, 2, 3}, {0})
    n = nss_from_separations(g, [improper, Separation.of({0, 1}, {1, 2, 3})])
    with pytest.raises(ValueError):
        nss_to_td(n)
    assert is_k_lean_nss(n, 2) == LeanViolation(0, 0, frozenset({1, 2}), frozenset({2, 3}), 1)
    lean = nss_from_separations(complete_graph(4), [Separation.of({0, 1, 2, 3}, {0, 1})])
    assert is_k_lean_nss(lean, 3) is True


def test_build_complete_graph_single_part():
    for k in (1, 2, 3):
        td = build_k_lean_td(complete_graph(5), k)
        assert td.tree.n == 1
        assert td.parts == (frozenset(range(5)),)


def test_build_tree_input_gives_edge_parts():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    td = build_k_lean_td(g, 2)
    assert validate_td(g, td)
    assert adhesion(td) <= 1
    assert sorted(sorted(p) for p in td.parts) == [
        [0, 1],
        [1, 2],
        [1, 3],
        [3, 4],
        [3, 5],
    ]


def test_build_is_deterministic():
    rng = random.Random(9)
    g = random_connected_graph(rng, 7)
    assert build_k_lean_td(g, 3) == build_k_lean_td(g, 3)


def test_build_disconnected_graph():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for k in (1, 2):
        td = build_k_lean_td(g, k)
        assert validate_td(g, td)
        assert is_k_lean_td(g, td, k) is True


def test_build_small_corpus_and_part_connectivity():
    for g in connected_graphs(5):
        for k in (1, 2, 3):
            td = build_k_lean_td(g, k)
            assert validate_td(g, td)
            assert all(len(s) < k for s in td.adhesion_sets())
            assert is_k_lean_td(g, td, k) is True
            for p in td.parts:
                assert is_k_connected(g, p, min(k, len(p))).ok


def test_lean_transfer_to_induced_system():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 7))
        k = rng.choice((2, 3))
        td = build_k_lean_td(g, k)
        n = td_to_nss(g, td)
        assert is_k_lean_nss(n, k) is True


def test_violation_witness_is_sound():
    rng = random.Random(23)
    found = 0
    while found < 10:
        g = random_connected_graph(rng, 6)
        td = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
        verdict = is_k_lean_td(g, td, 3)
        if verdict is True:
            continue
        found += 1
        from kconnkit.graph_core import menger

        res = menger(g, verdict.z1, verdict.z2)
        assert res.count == verdict.max_paths < len(verdict.z1)
        assert brute_is_separator(g, res.separator, verdict.z1, verdict.z2)
