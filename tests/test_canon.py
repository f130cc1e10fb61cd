import itertools
import math
import random

import pytest

from kconnkit import canon
from kconnkit.canon import (
    automorphism_count,
    canonical_form,
    canonical_perm,
    connected_graphs,
    is_isomorphic,
)
from kconnkit.graph_core import Graph, complete_graph, cycle_graph, path_graph
from kconnkit.typical_gen import GoodSequence, gen_complete_bipartite, gen_degenerate_frayed
from oracles import (
    all_masks_connected_graphs,
    backtrack_automorphism_count,
    full_refine,
    labeled_connected_count,
    outcome,
    random_graph,
    to_graph6,
    unpruned_canonical_perm,
)


def brute_canonical(g: Graph) -> Graph:
    best = None
    for perm in itertools.permutations(range(g.n)):
        h = g.relabel(list(perm))
        key = sorted(h.edges)
        if best is None or key < best[0]:
            best = (key, h)
    return best[1]


def test_canonical_matches_brute_force_key_class():
    rng = random.Random(4242)
    for _ in range(40):
        g = random_graph(rng, 6)
        assert is_isomorphic(canonical_form(g), brute_canonical(g))


def test_canonical_is_isomorphism_invariant():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_is_isomorphic_distinguishes():
    assert is_isomorphic(cycle_graph(6), cycle_graph(6).relabel([3, 1, 4, 5, 0, 2]))
    g1 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    g2 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_isomorphic(g1, g2)


def test_automorphism_counts_known():
    assert automorphism_count(complete_graph(4)) == 24
    assert automorphism_count(cycle_graph(5)) == 10
    assert automorphism_count(path_graph(4)) == 2
    assert automorphism_count(Graph.from_edges(1)) == 1


def test_enumeration_counts_small():
    counts = {}
    for g in connected_graphs(7):
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
    assert list(connected_graphs(0)) == []


def test_enumeration_matches_the_all_masks_oracle():
    # The filtered enumeration yields the very graphs, in the very order, of
    # labelling every augmentation.
    assert list(connected_graphs(6)) == list(all_masks_connected_graphs(6))


def test_enumeration_labels_only_the_filtered_augmentations():
    # Labelling all 759 augmentations up to n = 6 is what the filter avoids.
    canon._canonical.cache_clear()
    canonical_perm.cache_clear()
    list(connected_graphs(6))
    assert canon._canonical.cache_info().misses <= 379


def test_enumeration_cross_checked_by_labeled_counting():
    # sum over isomorphism classes of n!/|Aut| must equal the labeled count
    by_n: dict[int, list[Graph]] = {}
    for g in connected_graphs(6):
        by_n.setdefault(g.n, []).append(g)
    for n, graphs in by_n.items():
        labeled = sum(math.factorial(n) // automorphism_count(g) for g in graphs)
        assert labeled == labeled_connected_count(n), f"n={n}"


def test_enumeration_yields_distinct_classes():
    seen = set()
    for g in connected_graphs(5):
        key = canonical_form(g).edges
        assert key not in seen
        seen.add(key)
        assert g.is_connected()


def test_graph6_round_shape():
    # path on 3 vertices: 0-1, 1-2 -> bits x(0,1)=1, x(0,2)=0, x(1,2)=1
    g = path_graph(3)
    assert to_graph6(g) == chr(63 + 3) + chr(63 + 0b101000)


def test_canonical_graph6_invariant():
    rng = random.Random(3)
    g = random_graph(rng, 6)
    perm = [2, 4, 0, 5, 1, 3]
    assert to_graph6(canonical_form(g)) == to_graph6(canonical_form(g.relabel(perm)))


def _relabelled(rng, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _canon_corpus_families() -> list[Graph]:
    """The family graphs of the benchmark's canon_corpus workload."""
    out = [
        gen_complete_bipartite(a, b).graph
        for a, b in ((1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5))
    ]
    out += [complete_graph(n) for n in (4, 5, 6, 7)]
    out += [cycle_graph(n) for n in (6, 8, 10, 12)]
    for k, ell, seq in ((2, 0, (1, 2)), (2, 1, (2, 3)), (3, 1, (2, 3)), (3, 2, (1, 2, 3)), (2, 0, (1, 2, 3))):
        out.append(gen_degenerate_frayed(k, ell, GoodSequence(seq)).graph)
    return out


def _petersen() -> Graph:
    pairs = list(itertools.combinations(range(5), 2))  # adjacent when disjoint
    return Graph.from_edges(
        10, [(i, j) for i, j in itertools.combinations(range(10), 2) if not set(pairs[i]) & set(pairs[j])]
    )


def _rook(k: int) -> Graph:
    """K_k x K_k: the k*k squares of a board, adjacent when in one row or column."""
    return Graph.from_edges(
        k * k, [(u, v) for u, v in itertools.combinations(range(k * k), 2) if u // k == v // k or u % k == v % k]
    )


def test_refine_matches_the_full_resort(monkeypatch):
    # Sorting only the cells next to a split must give the ranks of re-sorting
    # every vertex in every round, and the first repeated rank's cell.
    rng = random.Random(21)
    graphs = list(connected_graphs(7)) + _canon_corpus_families()
    graphs += [random_graph(rng, rng.randint(10, 30)) for _ in range(60)]
    graphs += [_petersen(), _rook(4)] + [cycle_graph(n) for n in range(12, 17)]
    refine = canon._refine
    seen = [0]

    def checked(adj, colors):
        ranks, cell = refine(adj, colors)
        assert ranks == full_refine(adj, colors), colors
        repeated = sorted(c for c in set(ranks) if ranks.count(c) > 1)
        assert cell == ([v for v, c in enumerate(ranks) if c == repeated[0]] if repeated else None)
        seen[0] += 1
        return ranks, cell

    monkeypatch.setattr(canon, "_refine", checked)
    for g in graphs:
        canon._canonical.__wrapped__(g)  # bypass the cache
    assert seen[0] > 2 * len(graphs)


def test_twin_pruning_keeps_the_permutation():
    # The pruned search must return the very permutation of the full search,
    # not only an isomorphic form; the full search uses its own refinement.
    rng = random.Random(5)
    graphs = list(connected_graphs(7)) + _canon_corpus_families()
    assert len(graphs) == 996 + 23
    for g in graphs:
        h = _relabelled(rng, g)
        assert canonical_perm(h) == unpruned_canonical_perm(h), sorted(h.edges)


_TWIN_CLASS_GRAPHS = (  # (graph, |Aut|)
    (complete_graph(8), math.factorial(8)),
    (gen_complete_bipartite(3, 9).graph, math.factorial(3) * math.factorial(9)),
    (gen_complete_bipartite(4, 20).graph, math.factorial(4) * math.factorial(20)),
)


def _count_search_calls(monkeypatch) -> list[int]:
    """Wrap ``canon._search``; the returned one-item list counts its calls."""
    search = canon._search
    calls = [0]

    def counting(g, colors):
        calls[0] += 1
        return search(g, colors)

    monkeypatch.setattr(canon, "_search", counting)
    return calls


def test_twin_pruning_visits_at_most_n_nodes(monkeypatch):
    calls = _count_search_calls(monkeypatch)
    for g, _ in _TWIN_CLASS_GRAPHS:
        calls[0] = 0
        canon._canonical.__wrapped__(g)  # bypass the cache
        assert 0 < calls[0] <= g.n, (g.n, calls[0])


def test_automorphism_count_reuses_the_canonical_search(monkeypatch):
    # One search of at most n nodes labels the graph and counts |Aut|; the
    # count that follows canonical_form runs no second search.
    calls = _count_search_calls(monkeypatch)
    for g, aut in _TWIN_CLASS_GRAPHS:
        canon._canonical.cache_clear()
        canonical_perm.cache_clear()
        calls[0] = 0
        canonical_form(g)
        assert automorphism_count(g) == aut
        assert 0 < calls[0] <= g.n, (g.n, calls[0])


def test_automorphism_count_matches_backtracking():
    rng = random.Random(8)
    graphs = list(connected_graphs(7)) + _canon_corpus_families()
    graphs += [Graph.from_edges(n) for n in range(7)]  # n = 0 and edgeless
    graphs += [random_graph(rng, rng.randint(1, 9)) for _ in range(400)]
    assert sum(not g.is_connected() for g in graphs) > 50
    for g in graphs:
        h = _relabelled(rng, g)
        assert automorphism_count(h) == backtrack_automorphism_count(h), (h.n, sorted(h.edges))


def test_degree_precheck_skips_the_search(monkeypatch):
    by_size: dict[tuple[int, int], list[Graph]] = {}
    for g in connected_graphs(6):
        by_size.setdefault((g.n, len(g.edges)), []).append(g)
    pairs = [
        (g, h)
        for same in by_size.values()
        for g, h in zip(same, same[1:])
        if sorted(map(g.degree, g.vertices)) != sorted(map(h.degree, h.vertices))
    ]
    assert len(pairs) > 20

    def no_search(g):
        raise AssertionError("canonical_perm reached")

    monkeypatch.setattr(canon, "canonical_perm", no_search)
    for g, h in pairs:
        assert not is_isomorphic(g, h)


def test_isomorphic_pairs_pass_the_degree_precheck():
    rng = random.Random(11)
    for g in list(connected_graphs(6)) + _canon_corpus_families():
        assert is_isomorphic(_relabelled(rng, g), _relabelled(rng, g))


@pytest.mark.parametrize(
    "call, expected",
    [
        # same order and size, degrees 1, 1, 2, 2 against 1, 1, 1, 3
        pytest.param(
            lambda: is_isomorphic(path_graph(4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
            False,
            id="degree-sequences-differ",
        ),
        pytest.param(lambda: is_isomorphic(path_graph(3), path_graph(4)), False, id="orders-differ"),
        pytest.param(
            lambda: to_graph6(path_graph(63)), "graph6 small form supports n <= 62 only", id="graph6-n-63"
        ),
        pytest.param(lambda: to_graph6(path_graph(62))[0], chr(63 + 62), id="graph6-n-62"),
        pytest.param(
            lambda: list(connected_graphs(True)), "expected an integer, got True", id="enumeration-bool-n-max"
        ),
        pytest.param(
            lambda: list(connected_graphs(2.0)), "expected an integer, got 2.0", id="enumeration-float-n-max"
        ),
    ],
)
def test_canon_rejections(call, expected):
    assert outcome(call) == expected
