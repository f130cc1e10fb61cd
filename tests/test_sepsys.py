import itertools
import random
from collections import Counter

import pytest

from kconnkit.graph_core import (
    Graph,
    Separation,
    cycle_graph,
    graph_from_json,
    is_separation,
    path_graph,
)
from kconnkit.sepsys import (
    NestedSeparationSystem,
    TreeDecomposition,
    adhesion,
    clean_up,
    consistent_orientations,
    is_consistent,
    is_nested_pair,
    nss_from_separations,
    nss_to_td,
    part_of,
    td_to_nss,
    tree_edge_sides,
    validate_td,
)
from oracles import outcome, random_connected_graph, random_nested_system, subtree_nodes


def _empty_nss(g: Graph) -> NestedSeparationSystem:
    return NestedSeparationSystem(g, frozenset())


def test_is_nested_pair_reflexive_and_inverse():
    s = Separation.of({0, 1}, {1, 2})
    assert is_nested_pair(s, s)
    assert is_nested_pair(s, s.inverse())


def test_crossing_diagonals_of_square_are_not_nested():
    s1 = Separation.of({0, 1, 2}, {2, 3, 0})
    s2 = Separation.of({1, 2, 3}, {3, 0, 1})
    assert not is_nested_pair(s1, s2)
    with pytest.raises(ValueError):
        nss_from_separations(cycle_graph(4), [s1, s2])


def test_system_requires_separations_of_host():
    with pytest.raises(ValueError):
        nss_from_separations(cycle_graph(4), [Separation.of({0, 1}, {1, 2, 3})])


def test_consistent_orientations_empty_system():
    g = path_graph(3)
    n = _empty_nss(g)
    orients = consistent_orientations(n)
    assert orients == [frozenset()]
    assert part_of(n, orients[0]) == g.vertex_set


def test_consistent_orientations_single_pair():
    g = path_graph(3)
    s = Separation.of({0, 1}, {1, 2})
    n = nss_from_separations(g, [s])
    orients = consistent_orientations(n)
    assert len(orients) == 2
    parts = {part_of(n, o) for o in orients}
    assert parts == {frozenset({0, 1}), frozenset({1, 2})}


def test_consistent_orientations_chain_of_two():
    g = path_graph(5)
    s1 = Separation.of({0, 1}, {1, 2, 3, 4})
    s2 = Separation.of({0, 1, 2, 3}, {3, 4})
    n = nss_from_separations(g, [s1, s2])
    orients = consistent_orientations(n)
    assert len(orients) == 3
    parts = sorted(sorted(part_of(n, o)) for o in orients)
    assert parts == [[0, 1], [1, 2, 3], [3, 4]]


def test_improper_separation_never_oriented_towards_full_side():
    g = path_graph(3)
    s = Separation.of({1}, {0, 1, 2})
    n = nss_from_separations(g, [s])
    for o in consistent_orientations(n):
        assert Separation.of({0, 1, 2}, {1}) not in o
        assert is_consistent(n, o)


def test_all_enumerated_orientations_are_consistent():
    rng = random.Random(321)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 7))
        n = random_nested_system(rng, g)
        for o in consistent_orientations(n):
            assert is_consistent(n, o)
            assert len(o) == len(n.pairs)


def test_orientations_come_out_sorted():
    """The DFS emits the orientations in the order of their sorted members,
    which is what lets ``consistent_orientations`` skip a final sort."""
    rng = random.Random(1501)
    improper = 0
    for i in range(320):
        g = random_connected_graph(rng, rng.randint(2, 8))
        n = random_nested_system(rng, g, allow_improper=i % 3 == 0)
        improper += any(g.vertex_set in (s.a, s.b) for s in n.seps)
        keys = [tuple(sorted(s.sort_key() for s in o)) for o in consistent_orientations(n)]
        assert all(x < y for x, y in zip(keys, keys[1:]))
    assert improper >= 30


def test_orientations_are_every_consistent_choice_of_one_member_per_pair():
    """Complete and in order: the brute force takes one member of each pair,
    members in sort order, and keeps the choices ``is_consistent`` accepts."""
    rng = random.Random(1503)
    improper = 0
    for i in range(200):
        g = random_connected_graph(rng, rng.randint(2, 8))
        n = random_nested_system(rng, g, allow_improper=i % 3 == 0)
        improper += any(g.vertex_set in (s.a, s.b) for s in n.seps)
        choices = itertools.product(*(sorted(p, key=Separation.sort_key) for p in n.pairs))
        brute = [o for o in map(frozenset, choices) if is_consistent(n, o)]
        assert consistent_orientations(n) == brute, n
    assert improper >= 20


def test_td_nodes_are_adjacent_iff_their_orientations_differ_on_one_pair():
    rng = random.Random(1502)
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(2, 8))
        n = _proper_subsystem(random_nested_system(rng, g))
        orients = consistent_orientations(n)
        td = nss_to_td(n)
        for i, j in itertools.combinations(range(len(orients)), 2):
            flipped = sum(orients[i] & p != orients[j] & p for p in n.pairs)
            assert td.tree.has_edge(i, j) == (flipped == 1)


def test_validate_td_trivial_and_broken():
    g = cycle_graph(4)
    ok = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    assert validate_td(g, ok)
    missing_edge = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]),
        (frozenset({0, 1, 2}), frozenset({2, 3})),
    )
    assert not validate_td(g, missing_edge)  # edge (3, 0) in no part


def test_validate_td_rejects_disconnected_occurrences():
    g = path_graph(3)
    bad = TreeDecomposition(
        path_graph(3),
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1})),
    )
    assert not validate_td(g, bad)


def test_tree_edge_sides_match_the_subtree_walk():
    rng = random.Random(254)
    for n in range(1, 12):
        tree = Graph.from_edges(n, [(t, rng.randrange(t)) for t in range(1, n)])
        sides = tree_edge_sides(tree)
        assert [(u, w) for u, w, _ in sides] == tree.sorted_edges()
        for u, w, side in sides:
            assert side == sum(1 << t for t in subtree_nodes(tree, u, w))


def test_adhesion_values():
    g = path_graph(4)
    assert adhesion(_empty_nss(g)) == 0
    n = nss_from_separations(g, [Separation.of({0, 1, 2}, {1, 2, 3})])
    assert adhesion(n) == 2
    td = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    assert adhesion(td) == 0


def test_nss_to_td_empty_system():
    g = path_graph(3)
    td = nss_to_td(_empty_nss(g))
    assert td.tree.n == 1
    assert td.parts == (g.vertex_set,)
    assert validate_td(g, td)


def test_nss_to_td_single_pair():
    g = path_graph(3)
    n = nss_from_separations(g, [Separation.of({0, 1}, {1, 2})])
    td = nss_to_td(n)
    assert td.tree.n == 2
    assert validate_td(g, td)
    assert sorted(sorted(p) for p in td.parts) == [[0, 1], [1, 2]]


def test_nss_to_td_rejects_full_side():
    g = path_graph(3)
    n = nss_from_separations(g, [Separation.of({1}, {0, 1, 2})])
    with pytest.raises(ValueError):
        nss_to_td(n)


def _proper_subsystem(n: NestedSeparationSystem) -> NestedSeparationSystem:
    full = n.graph.vertex_set
    kept = [s for s in n.seps if s.a != full and s.b != full]
    return NestedSeparationSystem(n.graph, frozenset(kept))


def test_nss_td_round_trip_on_seeded_systems():
    rng = random.Random(98765)
    done = 0
    while done < 40:
        g = random_connected_graph(rng, rng.randint(3, 7))
        n = _proper_subsystem(random_nested_system(rng, g))
        done += 1
        td = nss_to_td(n)
        assert validate_td(g, td)
        orient_parts = Counter(part_of(n, o) for o in consistent_orientations(n))
        assert Counter(td.parts) == orient_parts
        assert adhesion(td) == adhesion(n)
        back = td_to_nss(g, td)
        back_parts = Counter(part_of(back, o) for o in consistent_orientations(back))
        assert back_parts == orient_parts
        assert adhesion(back) == adhesion(n)


def test_td_to_nss_small_cases():
    g = path_graph(3)
    single = TreeDecomposition(Graph.from_edges(1), (g.vertex_set,))
    assert td_to_nss(g, single).seps == frozenset()
    two = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]), (frozenset({0, 1}), frozenset({1, 2}))
    )
    n = td_to_nss(g, two)
    assert n.seps == frozenset(
        {Separation.of({0, 1}, {1, 2}), Separation.of({1, 2}, {0, 1})}
    )


def test_td_to_nss_rejects_invalid():
    g = path_graph(3)
    bad = TreeDecomposition(Graph.from_edges(1), (frozenset({0, 1}),))
    with pytest.raises(ValueError):
        td_to_nss(g, bad)


def test_vertex_ids_outside_the_host_are_caught_at_the_boundary():
    """The entries that take raw separations or decompositions answer False
    or raise on an id outside the graph; every other entry takes a system
    that one of them has already checked."""
    g = path_graph(3)
    sep = Separation.of({0, 1, 5}, {1, 2})
    td = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]), (frozenset({0, 1}), frozenset({1, 2, 7}))
    )
    assert not is_separation(g, sep)
    assert not validate_td(g, td)
    with pytest.raises(ValueError, match="not a separation of the host graph"):
        nss_from_separations(g, [sep])
    with pytest.raises(ValueError, match="invalid tree-decomposition"):
        td_to_nss(g, td)


# ---------------------------------------------------------------------------
# clean-up


def test_clean_up_empty():
    g = path_graph(3)
    assert clean_up(_empty_nss(g)).seps == frozenset()


def test_clean_up_path_middle_vertex():
    g = path_graph(3)
    n = nss_from_separations(g, [Separation.of({0, 1}, {1, 2})])
    cleaned = clean_up(n)
    assert cleaned.seps == frozenset(
        {Separation.of({0, 1}, {1, 2}), Separation.of({1, 2}, {0, 1})}
    )


def test_clean_up_crossing_improper_separators_is_reported():
    # improper members are nested with everything, so their separators can
    # cross; the component cuts then cross and clean_up must say so
    g = Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)])
    n = nss_from_separations(
        g,
        [Separation.of({0, 2}, {0, 1, 2, 3}), Separation.of({1, 2, 3}, {0, 1, 2, 3})],
    )
    with pytest.raises(ValueError, match="cross"):
        clean_up(n)


def test_clean_up_drops_full_side_components():
    # separator {1} of the path 0-1-2-3 with everything on one side
    g = path_graph(4)
    n = nss_from_separations(
        g, [Separation.of({1}, {0, 1, 2, 3})],
    )
    cleaned = clean_up(n)
    full = g.vertex_set
    assert all(s.a != full and s.b != full for s in cleaned.seps)
    # both components of g - {1} survive as cuts
    assert Separation.of({0, 1}, {1, 2, 3}) in cleaned.seps
    assert Separation.of({1, 2, 3}, {0, 1}) in cleaned.seps


def _same_separator_chains(n: NestedSeparationSystem) -> bool:
    by_sep: dict[frozenset, list[Separation]] = {}
    for s in n.seps:
        by_sep.setdefault(s.separator, []).append(s)
    for group in by_sep.values():
        for s1, s2, s3 in itertools.permutations(group, 3):
            if s1.leq(s2) and s2.leq(s3) and len({s1, s2, s3}) == 3:
                return True
    return False


def test_clean_up_lemma_properties_on_tree_like_systems():
    # three hand-built systems along cut vertices and small separators: the
    # clean-up stays proper, keeps adhesion below k, refines every part and
    # leaves no chain of three separations with one separator
    cases = []
    g1 = path_graph(6)
    cases.append(
        (g1, [Separation.of({0, 1, 2}, {2, 3, 4, 5}), Separation.of({0, 1, 2, 3, 4}, {4, 5})])
    )
    g2 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    cases.append((g2, [Separation.of({0, 1, 2}, {2, 3, 4, 5}), Separation.of({0, 1, 2, 3}, {3, 4, 5})]))
    g3 = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)])
    cases.append(
        (g3, [Separation.of({0, 1, 2}, {0, 3, 4, 5, 6}), Separation.of({0, 1, 2, 3, 4}, {3, 5, 6})])
    )
    for g, seps in cases:
        n = nss_from_separations(g, seps)
        k = max(s.order for s in n.seps) + 1
        cleaned = clean_up(n)  # construction validates nestedness
        full = g.vertex_set
        assert all(s.b != full and s.a != full for s in cleaned.seps)
        assert adhesion(cleaned) < k
        n_parts = [part_of(n, o) for o in consistent_orientations(n)]
        for o in consistent_orientations(cleaned):
            p = part_of(cleaned, o)
            assert any(p <= q for q in n_parts)
        assert not _same_separator_chains(cleaned)


def test_clean_up_can_cross_on_general_nested_input():
    # tightening separators to component neighbourhoods may break
    # nestedness for general (non-lean) nested systems; the operation
    # reports this rather than returning a crossing system
    g = Graph.from_edges(
        6,
        [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (3, 5), (4, 5)],
    )
    n = nss_from_separations(
        g,
        [
            Separation.of({0, 1, 3, 4, 5}, {0, 2, 4, 5}),
            Separation.of({0, 2, 3, 4, 5}, {1, 3, 4, 5}),
        ],
    )
    with pytest.raises(ValueError, match="cross"):
        clean_up(n)


def test_nss_json_round_trip():
    rng = random.Random(12)
    g = random_connected_graph(rng, 6)
    n = random_nested_system(rng, g)
    assert NestedSeparationSystem.from_json(n.to_json()) == n


def test_td_json_round_trip():
    g = path_graph(3)
    td = TreeDecomposition(
        Graph.from_edges(2, [(0, 1)]), (frozenset({0, 1}), frozenset({1, 2}))
    )
    assert TreeDecomposition.from_json(td.to_json()) == td


# Explicit ids, kept as pytest first generated them, so a deleted row renames no other row.
@pytest.mark.parametrize(
    "decode, obj",
    [
        pytest.param(graph_from_json, {"n": 3.7, "edges": []}, id="graph_from_json-obj0"),
        pytest.param(graph_from_json, {"n": "3", "edges": []}, id="graph_from_json-obj1"),
        pytest.param(graph_from_json, {"n": True, "edges": []}, id="graph_from_json-obj2"),
        pytest.param(graph_from_json, {"n": 3, "edges": [[0.0, 1.0]]}, id="graph_from_json-obj3"),
        pytest.param(graph_from_json, {"n": 3, "edges": [[0, False]]}, id="graph_from_json-obj4"),
        pytest.param(Separation.from_json, {"a": [0, 1.5], "b": [1]}, id="from_json-obj5"),
        pytest.param(Separation.from_json, {"a": [0, 1], "b": [True]}, id="from_json-obj6"),
        pytest.param(
            TreeDecomposition.from_json,
            {"tree": {"n": 1, "edges": []}, "parts": [[0.5]]},
            id="from_json-obj7",
        ),
        pytest.param(
            TreeDecomposition.from_json,
            {"tree": {"n": 1.0, "edges": []}, "parts": [[0]]},
            id="from_json-obj8",
        ),
        pytest.param(
            NestedSeparationSystem.from_json,
            {"graph": {"n": 2, "edges": [[0, 1]]}, "separations": [{"a": [0, 1], "b": ["1"]}]},
            id="from_json-obj9",
        ),
        pytest.param(graph_from_json, {"n": 3, "edges": [["0", 1]]}, id="graph_from_json-obj10"),
    ],
)
def test_json_decoders_reject_non_integer_ids(decode, obj):
    with pytest.raises(ValueError, match="expected an integer"):
        decode(obj)


P3_SEP = Separation.of({0, 1}, {1, 2})


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: NestedSeparationSystem(path_graph(3), frozenset({P3_SEP})),
            f"system is not symmetric at {P3_SEP}",
            id="not-symmetric",
        ),
        pytest.param(
            # a list holding one orientation of a pair is not closed up
            lambda: NestedSeparationSystem.from_json(
                {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "separations": [P3_SEP.to_json()]}
            ),
            f"system is not symmetric at {P3_SEP}",
            id="json-not-symmetric",
        ),
        pytest.param(
            # (1, 012) <= (01, 12) is in the system but not chosen
            lambda: is_consistent(
                nss_from_separations(path_graph(3), [P3_SEP, Separation.of({1}, {0, 1, 2})]),
                frozenset({P3_SEP, Separation.of({0, 1, 2}, {1})}),
            ),
            False,
            id="inconsistent-orientation",
        ),
        pytest.param(
            lambda: TreeDecomposition(Graph.from_edges(2), (frozenset({0}),)),
            "one part per tree node required",
            id="td-parts",
        ),
        pytest.param(
            lambda: validate_td(path_graph(2), TreeDecomposition(Graph.from_edges(2), (frozenset({0, 1}),) * 2)),
            False,
            id="td-not-a-tree",
        ),
    ],
)
def test_sepsys_rejections(call, expected):
    assert outcome(call) == expected
