import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kconnkit import duality
from kconnkit.canon import connected_graphs
from kconnkit.duality import (
    _contraction_degeneracy,
    _min_degree_width,
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
    cycle_graph,
    menger_count,
    path_graph,
)
from kconnkit.sepsys import TreeDecomposition, validate_td
from kconnkit.typical_gen import (
    GoodSequence,
    gen_complete_bipartite,
    gen_degenerate_frayed,
    two_bipartite_matched,
)
from duality_census import bounds_hold, census_cases
from oracles import (
    frozenset_min_max_decomposition,
    min_separator_size,
    outcome,
    pair_scan_is_k_connected,
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
    # past the size guard: the greedy bounds meet, so no search runs
    assert tree_width(complete_graph(11)) == 10
    assert tree_width(grid_graph(4, 4)) == 4
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


def test_min_max_matches_frozenset_search_past_n6():
    # same value and decomposition on seeded hosts with n = 8-9, for the
    # k_tree_width cost and for separability from a seeded A
    rng = random.Random(7304)
    for i in range(12):
        g = random_connected_graph(rng, 8 + i % 2, rng.choice((0.25, 0.35, 0.45)))
        a = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        for k in range(2, 5):
            for cost in (len, lambda p, g=g, a=a: menger_count(g, a, p)):
                want = frozenset_min_max_decomposition(g, k, cost)
                assert _min_max_decomposition(g, k, cost) == want, (g, a, k)


def test_min_max_costs_only_feasible_parts():
    # in C6 every part but a single vertex or V leaves arcs with two
    # neighbours each: with k = 2 only those 7 parts are costed, with k = 3
    # all 63 are, each once
    g = cycle_graph(6)
    for k in (2, 3):
        costed = []

        def cost(p):
            costed.append(p)
            return len(p)

        _min_max_decomposition(g, k, cost)
        assert len(costed) == len(set(costed))
        if k == 2:
            assert set(costed) == {frozenset({v}) for v in range(6)} | {g.vertex_set}
        else:
            assert len(costed) == 63


def test_tree_width_matches_pull_dp():
    # the contraction degeneracy and the min-degree width bracket the
    # tree-width; where they differ, the min-max search runs and must agree
    rng = random.Random(7302)
    hosts = list(connected_graphs(7)) + [grid_graph(3, 3), grid_graph(3, 4)]
    hosts += [random_connected_graph(rng, n, p) for n in (9, 10) for p in (0.2, 0.4, 0.6)]
    hosts += [random_connected_graph(rng, 9 + i % 2, rng.uniform(0.2, 0.6)) for i in range(40)]
    dp_hosts = 0
    for g in hosts:
        want = pull_tree_width(g, size_guard=12)
        lower, upper = _contraction_degeneracy(g.adjacency_masks), _min_degree_width(g.adjacency_masks)
        assert lower <= want <= upper, g
        assert tree_width(g) == want, g
        dp_hosts += lower < upper
    assert dp_hosts > 0


def test_duality_census():
    # s' - (k - 1) <= v <= s' on every connected graph with n <= 6, for A = V
    # and a seeded A; since v <= s', the optimal decomposition certifies m = s' + 1.
    # The lower bound is only observed: it holds for n <= 7 but fails on 12
    # cases at n = 8 (test_census_lower_bound_fails_at_n8), while v <= s' held
    # everywhere
    cases = 0
    for g, _, a, k, report in census_cases(6):
        assert bounds_hold(k, report), (g, a, k, report.max_kconn, report.separability)
        assert verify_td_certificate(g, a, k, report.max_kconn + 1, report.best_td)
        cases += 1
    assert cases == 1130


def test_census_lower_bound_fails_at_n8():
    # the first n = 8 case where s' - (k - 1) <= v fails: a 3-connected set
    # of 6 vertices, yet a decomposition whose parts have at most 3 vertices
    g = Graph.from_edges(
        8, [(0, 1), (0, 6), (1, 7), (2, 4), (2, 6), (3, 5), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7)]
    )
    report = check_duality(g, g.vertex_set, 3, 3)
    assert (report.max_kconn, max(report.separability), report.ktw, report.tw) == (6, 3, 3, 2)
    assert not bounds_hold(3, report)
    assert max(report.separability) <= report.max_kconn


def test_tree_width_guard():
    # n = 11 with greedy bounds 4 and 5, so the min-max search is needed
    with pytest.raises(SizeGuardError):
        tree_width(random_connected_graph(random.Random(4), 11, 0.3))


def test_size_guards_name_their_constants(monkeypatch):
    # oversized input fails at once: the guard comes before any subset search
    def no_subset_search(*args):
        raise AssertionError("subset search ran before the size guard")

    monkeypatch.setattr(duality, "max_k_connected_subset", no_subset_search)
    with pytest.raises(SizeGuardError, match="n <= _MAX_EXACT_N = 10"):
        tree_width(random_connected_graph(random.Random(4), 11, 0.3))
    for g in (path_graph(11), path_graph(30)):
        for search in (
            lambda: k_tree_width(g, 2),
            lambda: check_duality(g, g.vertex_set, 2, 2),
            lambda: verify_sec1_bounds(g, 2),
        ):
            with pytest.raises(SizeGuardError, match="n <= _MAX_EXACT_N = 10"):
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


def test_verify_td_certificate_rejects_a_missing_decomposition():
    with pytest.raises(ValueError, match="td must be a TreeDecomposition, got NoneType"):
        verify_td_certificate(path_graph(3), frozenset({0}), 2, 2, None)


def test_verify_td_certificate_rejects_vertices_outside_the_graph():
    # the adhesion set {1} is not below k = 1, which must not hide the bad vertex
    g = path_graph(4)
    td = TreeDecomposition(path_graph(2), (frozenset({0, 1}), frozenset({1, 2, 3})))
    for k in (1, 2):
        with pytest.raises(ValueError, match="vertex 9 outside graph"):
            verify_td_certificate(g, {9}, k, 3, td)


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


@st.composite
def duality_instances(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    a = frozenset(v for v in range(n) if draw(st.booleans()))
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=k, max_value=k + 3))
    return Graph.from_edges(n, edges), a, k, m


@settings(max_examples=80, deadline=None)
@given(duality_instances())
def test_duality_certificates_pass_the_oracles(data):
    """Both certificates and the reported separability are re-checked by
    the brute-force and pair-scan oracles, not by the library's checkers."""
    g, a, k, m = data
    report = check_duality(g, a, k, m)
    cert = report.set_certificate
    if cert is not None:
        assert cert <= a and len(cert) >= m
        assert pair_scan_is_k_connected(g, cert, k).ok
    td = report.td_certificate
    if td is not None:
        assert validate_td(g, td)
        assert all(min_separator_size(g, a, p) < m for p in td.parts)
        assert all(len(s) < k for s in td.adhesion_sets())
    assert report.separability == tuple(min_separator_size(g, a, p) for p in report.best_td.parts)


@pytest.mark.parametrize(
    "cmg, k, tw",
    [
        pytest.param(gen_complete_bipartite(2, 7), 2, 2, id="K(2,7)"),
        pytest.param(gen_complete_bipartite(2, 8), 2, 2, id="K(2,8)"),
        pytest.param(gen_complete_bipartite(3, 6), 3, 3, id="K(3,6)"),
        pytest.param(gen_complete_bipartite(3, 7), 3, 3, id="K(3,7)"),
        pytest.param(two_bipartite_matched(3), 3, 3, id="two_bipartite_matched(3)"),
    ],
)
def test_check_duality_on_typical_graphs(cmg, k, tw):
    # the core is a k-connected set: no decomposition certifies |core|, and
    # every adhesion-<k decomposition keeps all of V in one part
    g, core = cmg.graph, frozenset(cmg.core)
    report = check_duality(g, core, k, len(core))
    assert report.set_certificate is not None and report.td_certificate is None
    assert max(report.separability) == report.max_kconn == len(core)
    assert (report.ktw, report.tw) == (g.n, tw)


def test_check_duality_past_the_guard_on_a_typical_graph():
    cmg = gen_degenerate_frayed(2, 0, GoodSequence((2, 3)))
    assert cmg.graph.n == 11
    with pytest.raises(SizeGuardError, match="n <= _MAX_EXACT_N = 10"):
        check_duality(cmg.graph, cmg.core, 2, len(cmg.core))


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


def test_sec1_bounds_grid():
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


P3_TWO_PARTS = TreeDecomposition(Graph.from_edges(2, [(0, 1)]), (frozenset({0, 1}), frozenset({1, 2})))
P3_ONE_PART = TreeDecomposition(Graph.from_edges(1), (frozenset({0, 1, 2}),))


@pytest.mark.parametrize(
    "call, expected",
    [
        # adhesion {1} is not below k = 1, although each part is small
        pytest.param(
            lambda: verify_td_certificate(path_graph(3), frozenset({0, 2}), 1, 3, P3_TWO_PARTS),
            False,
            id="adhesion-not-below-k",
        ),
        pytest.param(
            lambda: verify_td_certificate(path_graph(3), frozenset({0, 2}), 2, 3, P3_TWO_PARTS),
            True,
            id="certificate-holds",
        ),
        pytest.param(
            lambda: verify_td_certificate(path_graph(3), frozenset({0, 2}), 2, True, P3_TWO_PARTS),
            "expected an integer, got True",
            id="bool-m-certificate",
        ),
        pytest.param(
            lambda: verify_td_certificate(path_graph(3), frozenset(), 1, 2.5, P3_ONE_PART),
            "expected an integer, got 2.5",
            id="float-m-certificate",
        ),
        pytest.param(
            lambda: k_tree_width(path_graph(4), 2.0), "expected an integer, got 2.0", id="float-k"
        ),
        pytest.param(
            lambda: k_tree_width(path_graph(4), True), "expected an integer, got True", id="bool-k"
        ),
        pytest.param(
            lambda: k_tree_width(path_graph(4), "2"), "expected an integer, got '2'", id="str-k"
        ),
        pytest.param(
            lambda: check_duality(path_graph(4), {0, 1}, 2, 2.0),
            "expected an integer, got 2.0",
            id="float-m",
        ),
        pytest.param(
            lambda: check_duality(path_graph(4), {0, 1}, 1, True),
            "expected an integer, got True",
            id="bool-m",
        ),
        pytest.param(
            lambda: check_duality(path_graph(4), {0, 1}, 2, "2"),
            "expected an integer, got '2'",
            id="str-m",
        ),
        pytest.param(
            lambda: check_duality(path_graph(4), {0, 1}, "2", 2),
            "expected an integer, got '2'",
            id="str-k-duality",
        ),
        pytest.param(
            lambda: _min_max_decomposition(Graph.from_edges(0), 2, len),
            (0, TreeDecomposition(Graph.from_edges(1), (frozenset(),))),
            id="empty-graph",
        ),
    ],
)
def test_duality_rejections(call, expected):
    assert outcome(call) == expected
