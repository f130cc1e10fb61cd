import collections
import functools
import random

import pytest

from kconnkit import graph_core, lean
from kconnkit.canon import connected_graphs
from kconnkit.graph_core import (
    Graph,
    Separation,
    SizeGuardError,
    complete_graph,
    cycle_graph,
    menger,
    path_graph,
)
from kconnkit.kconn import is_k_connected
from kconnkit.lean import LeanViolation, build_k_lean_td, is_k_lean_nss, is_k_lean_td
from kconnkit.sepsys import (
    NestedSeparationSystem,
    TreeDecomposition,
    adhesion,
    consistent_orientations,
    nss_from_separations,
    nss_to_td,
    part_of,
    td_to_nss,
    validate_td,
)
from oracles import (
    brute_is_separator,
    min_path_adhesion,
    pair_scan_first_violation,
    random_connected_graph,
    random_nested_system,
)


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


def test_build_gives_up_after_max_rounds(monkeypatch):
    g = path_graph(3)
    one_part = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    assert is_k_lean_td(g, one_part, 2) is not True  # the host needs a split
    monkeypatch.setattr(lean, "_MAX_ROUNDS", 0)
    with pytest.raises(RuntimeError, match="exceeded _MAX_ROUNDS = 0 splits") as err:
        build_k_lean_td(g, 2)
    assert err.type is SizeGuardError


def test_split_runs_one_separator_flow_and_copies_nothing(monkeypatch):
    """Each split runs one menger call: one weighted flow (its separator) and
    one unweighted flow (its path system), with no subgraph copy."""
    flows = collections.Counter()
    splits = []
    copies = []
    run_flow = graph_core._run_flow
    split = lean._split_on_violation
    induced_subgraph = Graph.induced_subgraph

    def counting_run_flow(g, fa, fb, weighted=False, **within):
        flows[weighted] += 1
        return run_flow(g, fa, fb, weighted, **within)

    def counting_split(g, td, v):
        splits.append(v)
        return split(g, td, v)

    def counting_copy(self, keep):
        copies.append(keep)
        return induced_subgraph(self, keep)

    monkeypatch.setattr(graph_core, "_run_flow", counting_run_flow)
    monkeypatch.setattr(lean, "_split_on_violation", counting_split)
    monkeypatch.setattr(Graph, "induced_subgraph", counting_copy)
    g = cycle_graph(10).add_edges([(0, 5), (2, 7)])
    td = build_k_lean_td(g, 3)
    monkeypatch.undo()
    assert is_k_lean_td(g, td, 3) is True
    assert len(splits) == 6
    assert (flows[True], flows[False], len(copies)) == (6, 6, 0)


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
        res = menger(g, verdict.z1, verdict.z2)
        assert res.count == verdict.max_paths < len(verdict.z1)
        assert brute_is_separator(g, res.separator, verdict.z1, verdict.z2)


def test_part_vertices_outside_the_graph_are_rejected():
    g = complete_graph(12)
    td = TreeDecomposition(Graph.from_edges(1), (frozenset(range(12)) | {15},))
    with pytest.raises(ValueError, match="vertex 15 outside"):
        is_k_lean_td(g, td, 3)


def test_negative_k_is_rejected():
    g = path_graph(4)
    one_part = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    empty = NestedSeparationSystem(g, frozenset())
    for call in (
        lambda k: build_k_lean_td(g, k),
        lambda k: is_k_lean_td(g, one_part, k),
        lambda k: is_k_lean_nss(empty, k),
    ):
        with pytest.raises(ValueError, match="k must be non-negative, got -1"):
            call(-1)
    assert build_k_lean_td(g, 0) == one_part
    assert is_k_lean_td(g, one_part, 0) is True
    assert is_k_lean_nss(empty, 0) is True


def test_decomposition_tree_must_be_a_tree():
    parts = (frozenset({0, 1}), frozenset({1, 2}))
    with pytest.raises(ValueError, match="not a tree"):
        is_k_lean_td(path_graph(3), TreeDecomposition(Graph.from_edges(2), parts), 2)
    cycle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="not a tree"):
        is_k_lean_td(path_graph(3), TreeDecomposition(cycle, parts + (frozenset({1}),)), 2)


def _sparse_part_decompositions(rng):
    """Large sparse hosts with a path of small overlapping parts, so that the
    demand kernel meets small part pairs on hosts with many separators."""
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(36, 44), rng.choice((0.0, 0.02, 0.1)))
        verts = rng.sample(range(g.n), 12)
        parts, start = [], 0
        while start + 3 <= len(verts):
            size = rng.choice((3, 4))
            parts.append(frozenset(verts[start : start + size]))
            start += size - rng.choice((1, 2))
        tree = Graph.from_edges(len(parts), [(t, t + 1) for t in range(len(parts) - 1)])
        for k in (3, 4):
            yield g, TreeDecomposition(tree, tuple(parts)), k
        yield g, TreeDecomposition(Graph.from_edges(1), (parts[0],)), 3


def test_lean_checkers_match_pair_scan():
    """Same verdict and violation as a flow for every demand, with both
    answers and cross-part violations."""
    answers = collections.Counter()
    cross = 0

    def check(g, parts, k, cut_order, got):
        nonlocal cross
        expected = pair_scan_first_violation(g, parts, k, cut_order)
        assert got == (True if expected is None else expected), (g, parts, k)
        answers[got is True] += 1
        cross += got is not True and got.t1 != got.t2

    def check_td(g, td, k):
        cut_order = functools.partial(min_path_adhesion, td)
        check(g, list(td.parts), k, cut_order, is_k_lean_td(g, td, k))

    rng = random.Random(2764)
    for g in connected_graphs(6):
        for k in range(1, 5):
            check_td(g, TreeDecomposition(Graph.from_edges(1), (g.vertex_set,)), k)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(7, 11), rng.choice((0.2, 0.35)))
        td = build_k_lean_td(g, rng.choice((2, 3)))
        for k in range(max(map(len, td.adhesion_sets()), default=0) + 1, 5):
            check_td(g, td, k)
    for g, td, k in _sparse_part_decompositions(rng):
        check_td(g, td, k)
    for _ in range(250):
        g = random_connected_graph(rng, rng.randint(5, 9), rng.choice((0.2, 0.35, 0.5)))
        n = random_nested_system(rng, g, allow_improper=True)
        parts = [part_of(n, o) for o in consistent_orientations(n)]

        def cut_order(i, j):
            return min(
                (s.order for s in n.seps if parts[i] <= s.a and parts[j] <= s.b), default=None
            )

        for k in range(max((s.order for s in n.seps), default=0) + 1, 5):
            check(g, parts, k, cut_order, is_k_lean_nss(n, k))
    assert answers[True] and answers[False], answers
    assert cross > 0


def test_build_matches_pair_scan_builder(monkeypatch):
    cases = [(g, k) for g in connected_graphs(6) for k in range(1, 5)]
    built = [build_k_lean_td(g, k) for g, k in cases]
    monkeypatch.setattr(lean, "_first_violation", pair_scan_first_violation)
    assert built == [build_k_lean_td(g, k) for g, k in cases]
