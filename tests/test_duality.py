import random

import pytest

from kconnkit import duality
from kconnkit.canon import connected_graphs
from kconnkit.duality import (
    _min_max_decomposition,
    check_duality,
    k_tree_width,
    tree_width,
    verify_sec1_bounds,
    verify_td_certificate,
)
from kconnkit.graph_core import (
    Graph,
    SizeGuardError,
    complete_bipartite_graph,
    complete_graph,
    menger_count,
    path_graph,
)
from kconnkit.sepsys import TreeDecomposition, validate_td
from duality_census import bounds_hold, census_cases
from oracles import (
    frozenset_min_max_decomposition,
    min_separator_size,
    pull_tree_width,
    random_connected_graph,
)


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def test_tree_width_known_values():
    assert tree_width(complete_graph(5)) == 4
    assert tree_width(path_graph(6)) == 1
    assert tree_width(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) == 1
    assert tree_width(grid_graph(3, 3)) == 3
    assert tree_width(Graph.from_edges(1)) == 0
    assert tree_width(Graph.from_edges(0)) == -1


def test_min_max_matches_frozenset_search():
    # same value and same decomposition (part order and tree) as the frozenset
    # search, for the k_tree_width cost and for separability from V and from A
    rng = random.Random(7301)
    cases = 0
    for g in connected_graphs(6):
        a = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        costs = (
            len,
            lambda p, g=g: menger_count(g, g.vertex_set, p),
            lambda p, g=g, a=a: menger_count(g, a, p),
        )
        for k in range(1, 5):
            for cost in costs:
                value, td = _min_max_decomposition(g, k, cost)
                want_value, want_td = frozenset_min_max_decomposition(g, k, cost)
                assert (value, td) == (want_value, want_td), (g, a, k)
                cases += 1
    assert cases == 143 * 4 * 3


def test_tree_width_matches_pull_dp():
    rng = random.Random(7302)
    hosts = list(connected_graphs(7)) + [grid_graph(3, 3)]
    hosts += [random_connected_graph(rng, n, p) for n in (9, 10) for p in (0.2, 0.4, 0.6)]
    for g in hosts:
        assert tree_width(g) == pull_tree_width(g), g


def test_duality_census():
    # s' - (k - 1) <= v <= s' on every connected graph with n <= 6, for A = V
    # and a seeded A; since v <= s', the optimal decomposition certifies m = s' + 1
    cases = 0
    for g, _, a, k, report in census_cases(6):
        assert bounds_hold(k, report), (g, a, k, report.max_kconn, report.separability)
        assert verify_td_certificate(g, a, k, report.max_kconn + 1, report.best_td)
        cases += 1
    assert cases == 1130


def test_tree_width_guard():
    with pytest.raises(SizeGuardError):
        tree_width(complete_graph(11))


def test_size_guards_name_their_constants():
    with pytest.raises(SizeGuardError, match="n <= _MAX_TREE_WIDTH_N = 10"):
        tree_width(complete_graph(11))
    g = path_graph(9)
    for search in (
        lambda: k_tree_width(g, 2),
        lambda: check_duality(g, g.vertex_set, 2, 2),
        lambda: verify_sec1_bounds(g, 2),
    ):
        with pytest.raises(SizeGuardError, match="n <= _MAX_EXACT_N = 8"):
            search()


def test_k_tree_width_complete_graph():
    # no proper separation of K_n has order below n - 1, so for k <= n - 1
    # only the trivial decomposition qualifies
    for k in (1, 2, 3, 4):
        assert k_tree_width(complete_graph(5), k) == 5


def test_k_tree_width_path():
    assert k_tree_width(path_graph(5), 2) == 2


def test_k_tree_width_k0_single_part():
    g = random_connected_graph(random.Random(1), 6)
    assert k_tree_width(g, 0) == 6


def test_negative_k_is_rejected():
    g = path_graph(4)
    with pytest.raises(ValueError, match="k must be non-negative, got -2"):
        k_tree_width(g, -2)
    one_part = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    with pytest.raises(ValueError, match="k must be non-negative, got -1"):
        verify_td_certificate(g, g.vertex_set, -1, 2, one_part)
    assert k_tree_width(g, 0) == 4


def test_k_tree_width_unbounded_adhesion_is_tree_width():
    # with adhesion unconstrained the same search computes tree-width + 1
    rng = random.Random(42)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(3, 7))
        assert k_tree_width(g, g.n + 1) == tree_width(g) + 1


def test_k_tree_width_monotone_in_k():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, 6)
        values = [k_tree_width(g, k) for k in range(0, 5)]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_verify_td_certificate_single_part_fails():
    g = complete_bipartite_graph(3, 5)
    a = frozenset(range(3, 8))
    td = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    # a cannot be separated from a part containing it by fewer than |a|
    assert min_separator_size(g, a, g.vertex_set) == len(a)
    assert not verify_td_certificate(g, a, 3, 5, td)
    assert verify_td_certificate(g, a, 3, 6, td)


def test_verify_td_certificate_disconnected():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    a = frozenset({0, 1})
    td = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]), (frozenset({0, 1}), frozenset({2, 3, 4}))
    )
    assert validate_td(g, td)
    assert min_separator_size(g, a, frozenset({2, 3, 4})) == 0
    # the part containing a needs |a| separator vertices (trivial paths)
    assert not verify_td_certificate(g, a, 1, 2, td)
    assert verify_td_certificate(g, a, 1, 3, td)


def test_verify_td_certificate_rejects_invalid():
    g = path_graph(3)
    bad = TreeDecomposition(Graph.from_edges(1), (frozenset({0, 1}),))
    with pytest.raises(ValueError):
        verify_td_certificate(g, frozenset({0}), 2, 2, bad)


def test_check_duality_set_side():
    g = complete_bipartite_graph(3, 5)
    a = frozenset(range(3, 8))
    report = check_duality(g, a, 3, 5)
    assert report.set_certificate is not None
    assert len(report.set_certificate) >= 5
    assert report.td_certificate is None


def test_check_duality_td_side():
    # with a = V every part P needs |P| separator vertices, so the smallest
    # workable threshold is one above the k-tree-width
    g = path_graph(6)
    report = check_duality(g, g.vertex_set, 2, 3)
    assert report.td_certificate is not None
    assert report.set_certificate is None
    assert max(report.separability) < 3
    assert report.ktw == 2


def test_check_duality_rejects_m_below_k():
    with pytest.raises(ValueError):
        check_duality(path_graph(4), {0, 1}, 2, 1)


def test_sec1_bounds_k7():
    rep = verify_sec1_bounds(complete_graph(7), 2)
    assert rep.s_bigger == 7 and rep.tw == 6
    assert rep.djgt_lower_ok and rep.djgt_upper_ok
    assert rep.gj_lower_ok and rep.gj_upper_ok


def test_sec1_bounds_tree_k1():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    rep = verify_sec1_bounds(g, 1)
    assert rep.s_prime == 6  # any subset of a connected graph is 1-connected
    assert rep.gj_lower_ok  # w <= s'
    assert rep.gj_upper_ok is None  # upper bound only stated for k >= 2


def test_sec1_bounds_grid(monkeypatch):
    monkeypatch.setattr(duality, "_MAX_EXACT_N", 9)
    rep = verify_sec1_bounds(grid_graph(3, 3), 2)
    assert rep.tw == 3
    assert rep.djgt_lower_ok and rep.djgt_upper_ok
    if rep.s_prime >= 2:
        assert rep.gj_lower_ok and rep.gj_upper_ok


def test_sec1_bounds_seeded_sample():
    rng = random.Random(60321)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 7))
        for k in (1, 2, 3):
            rep = verify_sec1_bounds(g, k)
            assert rep.djgt_lower_ok and rep.djgt_upper_ok
            if rep.gj_lower_ok is not None:
                assert rep.gj_lower_ok
            if rep.gj_upper_ok is not None:
                assert rep.gj_upper_ok
