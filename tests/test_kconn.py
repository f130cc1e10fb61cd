import collections
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kconnkit import graph_core, kconn
from kconnkit.canon import connected_graphs
from kconnkit.graph_core import (
    Graph,
    SizeGuardError,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    path_graph,
)
from kconnkit.kconn import (
    MaxKConnResult,
    PathWitness,
    StarWitness,
    is_k_connected,
    max_k_connected_subset,
    star_or_path,
)
from oracles import (
    brute_is_separator,
    brute_max_disjoint_paths,
    check_star_or_path,
    outcome,
    pair_scan_is_k_connected,
    per_set_tight_separators,
    random_connected_graph,
    random_graph,
)


def brute_is_k_connected(g: Graph, a, k: int) -> bool:
    """Subset-pair brute force that never touches the flow machinery."""
    fa = sorted(a)
    for ell in range(1, min(k, len(fa)) + 1):
        for z1 in itertools.combinations(fa, ell):
            for z2 in itertools.combinations(fa, ell):
                if brute_max_disjoint_paths(g, z1, z2) < ell:
                    return False
    return True


def test_complete_bipartite_core_is_k_connected():
    g = complete_bipartite_graph(4, 10)
    core = set(range(4, 14))
    assert is_k_connected(g, core, 4).ok
    # the whole vertex set is 4-connected too, but not 5-connected
    assert is_k_connected(g, g.vertex_set, 4).ok
    assert not is_k_connected(g, g.vertex_set, 5).ok
    small = complete_bipartite_graph(4, 6)
    assert is_k_connected(small, small.vertex_set, 4).ok


def test_is_k_connected_matches_pair_scan():
    """Same verdict and witness as the pair scan, on small hosts and on large
    sparse hosts with small sets."""
    rng = random.Random(3262)
    cases = []
    for g in connected_graphs(6):
        cases.append((g, g.vertex_set))
        cases.append((g, frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))))
    # large sparse hosts with small sets
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(25, 40), rng.choice((0.02, 0.08)))
        cases.append((g, frozenset(rng.sample(range(g.n), rng.randint(3, 5)))))
    verdicts = collections.Counter()
    for g, a in cases:
        for k in range(len(a) + 1):
            got = is_k_connected(g, a, k)
            assert got == pair_scan_is_k_connected(g, a, k), (g, a, k)
            verdicts[got.ok] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_route_a_runs_one_search_per_vertex_of_z1(monkeypatch):
    """Route a (the separator is z1 & z2) decides all pairs of one z1 with at
    most s + 1 searches: one per vertex u of z1, in g - (z1 - u)."""
    searches = []
    real = kconn.reachable_mask

    def counting(*args):
        if sys._getframe(1).f_code.co_name == "_first_split_pair":
            searches.append(args)
        return real(*args)

    monkeypatch.setattr(kconn, "reachable_mask", counting)
    rng = random.Random(1044)
    hosts = [
        (cycle_graph(8), 4),
        (complete_bipartite_graph(3, 6), 4),
        (random_connected_graph(rng, 10, 0.3), 4),
    ]
    for g, k in hosts:
        del searches[:]
        z1, z2 = kconn.first_failed_pair(g, g.vertex_set, g.vertex_set, k)
        s = len(z1) - 1
        scanned = list(map(frozenset, itertools.combinations(range(g.n), s + 1))).index(z1) + 1
        assert 0 < len(searches) <= scanned * (s + 1), (g, len(searches), scanned)


def test_vertices_outside_the_graph_are_rejected():
    g = path_graph(3)
    for a, k, bad in (({0, 5}, 1, "5"), ({0, 1, 5}, 2, "5"), ({-1, 0}, 1, "-1")):
        with pytest.raises(ValueError, match=f"vertex {bad} outside"):
            is_k_connected(g, a, k)
        with pytest.raises(ValueError, match=f"vertex {bad} outside"):
            max_k_connected_subset(g, a, k)


def test_other_entry_points_reject_vertices_outside_the_graph():
    g = path_graph(3)
    with pytest.raises(ValueError, match="vertex 5 outside"):
        star_or_path(g, {5}, 1)


# Explicit ids, kept as pytest first generated them, so a deleted row renames no other row.
@pytest.mark.parametrize(
    "ids, bad",
    [
        pytest.param([0, 1.0, 2], 1.0, id="ids0-1.0"),
        pytest.param([True, 2, 3], True, id="ids1-True"),
        pytest.param([1, True, 2], True, id="ids2-True"),
    ],
)
def test_non_integer_vertex_ids_are_rejected(ids, bad):
    # 1.0 and True pass a range check and equal the vertex 1, so a set of
    # the ids would drop a True that follows a 1
    g = cycle_graph(5)
    assert outcome(lambda: is_k_connected(g, ids, 2)) == f"expected an integer, got {bad!r}"
    assert outcome(lambda: max_k_connected_subset(g, ids, 2)) == f"expected an integer, got {bad!r}"


def test_failing_pair_flow_runs_once(monkeypatch):
    runs = []
    real_run_flow = graph_core._run_flow

    def counting_run_flow(g, fa, fb, weighted=False):
        runs.append((fa, fb, weighted))
        return real_run_flow(g, fa, fb, weighted)

    monkeypatch.setattr(graph_core, "_run_flow", counting_run_flow)
    graph_core._menger_count_cached.cache_clear()
    verdict = is_k_connected(path_graph(4), {0, 1, 2, 3}, 2)
    assert (verdict.witness.z1, verdict.witness.z2) == (frozenset({0, 1}), frozenset({1, 2}))
    # no pair flow on the separator branch; one weighted flow for the separator
    assert runs == [(frozenset({0, 1}), frozenset({1, 2}), True)]


def test_separator_branch_runs_no_pair_flow(monkeypatch):
    """The kernel decides every pair by bitmask tests: a failing pair has
    exactly l - 1 disjoint paths, no flow runs, and both routes (the
    separator is z1 & z2, or one of the order-s separators) are exercised,
    as is the reading of the rest of a level by the first route-b pair.  The
    cases include large sparse hosts with small sets.  The kernel raises
    AssertionError if a violating separation yields no failing pair.  On
    cycles and paths every pair before the witness shares s vertices, so
    route a alone reaches the witness and the rest of the level is never
    entered."""
    flows = []
    real_run_flow = graph_core._run_flow

    def counting_run_flow(g, fa, fb, weighted=False):
        flows.append(weighted)
        return real_run_flow(g, fa, fb, weighted)

    levels = []  # (s, times the rest of the level was entered)
    real_scan = kconn._smallest_violating_order

    def recording_scan(*args):
        got = real_scan(*args)
        if got is None:
            levels.append(None)
            return None
        s, first, rest = got
        entry = [s, 0]
        levels.append(entry)

        def lazy_rest():
            entry[1] += 1
            yield from rest

        return s, first, lazy_rest()

    monkeypatch.setattr(graph_core, "_run_flow", counting_run_flow)
    monkeypatch.setattr(kconn, "_smallest_violating_order", recording_scan)
    rng = random.Random(6116)
    cases = []
    for g in connected_graphs(6):
        for a in (g.vertex_set, frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))):
            cases += [(g, a, k, False) for k in range(len(a) + 1)]
    square = Graph.from_edges(16, [(i, i + d) for d in (1, 2) for i in range(16 - d)])
    for g in (cycle_graph(12), cycle_graph(16), path_graph(16), square):
        cases += [(g, g.vertex_set, k, g is not square) for k in range(1, 5)]
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(25, 60), rng.choice((0.02, 0.05, 0.1)))
        a = frozenset(rng.sample(range(g.n), rng.randint(3, 6)))
        cases += [(g, a, k, False) for k in range(1, min(4, len(a)) + 1)]
    routes = collections.Counter()
    for g, a, k, route_a_only in cases:
        del levels[:]
        graph_core._menger_count_cached.cache_clear()  # a cached flow would hide a pair flow
        before = len(flows)
        got = kconn.first_failed_pair(g, a, a, k)
        assert len(flows) == before, (g, a, k)
        if got is None:
            assert levels == [None]
            continue
        (s, entered), (z1, z2) = levels[0], got
        ell = len(z1)
        assert graph_core.menger_count(g, z1, z2) == ell - 1 == s
        assert not (route_a_only and entered), (g, k)
        routes["rest of level entered"] += entered > 0
        routes["a fails" if len(z1 & z2) == s else "b fails"] += 1
        # the pairs scanned before the witness all passed
        subsets = [frozenset(z) for z in itertools.combinations(sorted(a), ell)]
        before_witness = itertools.takewhile(
            lambda pair: pair != (z1, z2),
            ((x, y) for i, x in enumerate(subsets) for y in subsets[i + 1 :]),
        )
        routes["a passes"] += any(len(x & y) == s for x, y in before_witness)
    for route in ("a fails", "a passes", "b fails", "rest of level entered"):
        assert routes[route], routes


def test_tight_levels_match_the_demand_enumeration():
    """Reading only tight separators changes neither the least violating
    order nor the violating separators of that order: the table agrees with
    the enumeration of every separator for one demand, compared by the
    components that meet ``p1 | p2``."""
    rng = random.Random(2707)
    levels = collections.Counter()
    for g in connected_graphs(6):
        pairs = [(g.vertex_set, g.vertex_set)]
        pairs += [
            tuple(frozenset(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in "12") for _ in "ab"
        ]
        for (p1, p2), k in itertools.product(pairs, range(1, 5)):
            both = sum(1 << v for v in p1 | p2)
            least = None
            for s in range(min(k, len(p1), len(p2))):
                demand = collections.Counter(
                    frozenset(comps) for comps in kconn._demand_separators(g, p1, p2, s)
                )
                table = collections.Counter(
                    frozenset(c for c in comps if c & both)
                    for comps in kconn._table_separators(g, p1, p2, s)
                )
                assert table == demand, (g, p1, p2, s)
                if demand:
                    least = s
                    break
            levels[least] += 1
    assert len(levels) >= 4, levels


def test_each_order_a_scan_reaches_is_tabled_once():
    """On a host whose s-sets fit in one block every level a scan reads
    comes from the host's table, whatever the size of the demand: no pair
    fails, so the first scan tables orders 0, 1 and 2, and a second scan
    reads all three from the cache."""
    g = random_connected_graph(random.Random(27), 10, 0.3)
    a = frozenset(range(5))
    kconn._tight_separators.cache_clear()
    assert kconn.first_failed_pair(g, a, a, 3) is None
    assert kconn._tight_separators.cache_info().misses == 3
    assert kconn.first_failed_pair(g, a, a, 3) is None
    info = kconn._tight_separators.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_a_small_demand_on_a_large_host_enumerates_its_own_levels():
    """K40 has C(40, 7) = 18,643,560 sets of 7 vertices, and a table of
    them would cost every one.  With 8 vertices at stake, order 3 is the
    last that passes every s-set through the count bound, and order 2 the
    last whose s-sets fit in one block, so orders 0-3 are tabled and orders
    4-7 are enumerated for the demand alone."""
    a = frozenset(range(8))
    kconn._tight_separators.cache_clear()
    assert kconn.first_failed_pair(complete_graph(40), a, a, 8) is None
    assert kconn._tight_separators.cache_info().misses == 4


def test_the_table_matches_the_per_set_oracle():
    """The search over every s-set at once builds the same table as a
    search per set: on every connected graph with n <= 7, on seeded hosts
    (edgeless and disconnected ones among them), and on hosts with n >= 33,
    whose lanes span several machine words."""
    hosts = [(g, range(5)) for g in connected_graphs(7)]
    rng = random.Random(31)
    hosts += [(Graph.from_edges(n), range(n + 1)) for n in (0, 1, 4)]
    for p in (0.05, 0.2, 0.4, 0.8):
        hosts += [(random_graph(rng, n, p), range(n + 1)) for n in range(15)]
    hosts += [(random_connected_graph(rng, n, 0.1), range(4)) for n in (33, 40, 47)]
    hosts += [(random_graph(rng, 36, 0.05), range(4))]
    orders = collections.Counter()
    for g, ss in hosts:
        for s in ss:
            table = kconn._tight_separators(g, s)
            assert table == per_set_tight_separators(g, s), (g, s)
            orders[s > 0, bool(table)] += 1
    assert len(orders) == 3, orders  # order 0, and orders >= 1 with and without tight sets
    assert any(len(components(g)) > 1 for g, _ in hosts)
    assert [count for count, _ in kconn._lane_blocks(47, 3)] == [1024] * 15 + [855]  # C(47, 3) = 16,215


def test_the_table_build_holds_one_block_of_lanes_at_a_time():
    """The lanes of K40 at order 4 take 91,390 * 6 bytes, over 535 KiB, but
    the build holds one block of them at a time, and a table keeps only its
    tight sets (none here)."""
    g = complete_graph(40)
    tracemalloc.start()
    try:
        assert kconn._tight_separators.__wrapped__(g, 4) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_the_search_rules_out_every_set_with_a_connected_complement(monkeypatch):
    """The tables alone would not show a search that rules out too little,
    since the per-set test behind it decides exactly.  No set of at most two
    vertices separates K(3, 12), so no set reaches the per-set test; in C6
    only the nine 2-sets that are not edges split the cycle, and only they
    reach it."""
    searched = []
    search = kconn.reachable_mask

    def counted(masks, start, allowed, cover=-1):
        searched.append(allowed)
        return search(masks, start, allowed, cover)

    monkeypatch.setattr(kconn, "reachable_mask", counted)
    g = complete_bipartite_graph(3, 12)
    assert [kconn._tight_separators.__wrapped__(g, s) for s in (1, 2)] == [(), ()]
    assert searched == []
    assert len(kconn._tight_separators.__wrapped__(cycle_graph(6), 2)) == 9
    assert len(set(searched)) == 9


def test_tight_separators_are_pinned():
    """In the path 0-1-2-3-4, {1, 3} leaves {0}, {2} and {4} and is tight;
    {0, 2} is not, because 0 has only one neighbour, and neither is {1, 2},
    because all that 1 and 2 reach outside it is {0} and {3} respectively.
    The table is bounded."""
    table = dict(kconn._tight_separators(path_graph(5), 2))
    assert table == {0b01010: (0b00001, 0b00100, 0b10000)}
    assert dict(kconn._tight_separators(cycle_graph(4), 1)) == {}
    assert kconn._tight_separators(cycle_graph(4), 0) == ((0, (0b1111,)),)
    assert kconn._tight_separators.cache_info().maxsize == 4096


def test_path_is_not_2_connected_with_deterministic_witness():
    g = path_graph(4)
    verdict = is_k_connected(g, {0, 1, 2, 3}, 2)
    assert not verdict.ok
    assert bool(verdict) is verdict.ok
    w = verdict.witness
    # first failure in (ascending l, lexicographic pair) order
    assert (w.z1, w.z2) == (frozenset({0, 1}), frozenset({1, 2}))
    assert w.separator == frozenset({1})
    assert len(w.separator) < len(w.z1)
    assert brute_is_separator(g, w.separator, w.z1, w.z2)


def test_one_connected_means_same_component():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert is_k_connected(g, {0, 1, 2}, 1).ok
    assert not is_k_connected(g, {0, 3}, 1).ok
    assert is_k_connected(g, {3, 4}, 1).ok


def test_is_k_connected_requires_big_enough_set():
    with pytest.raises(ValueError):
        is_k_connected(path_graph(4), {0, 1}, 3)


def test_negative_k_is_rejected():
    g = path_graph(4)
    a = frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        is_k_connected(g, a, -1)
    with pytest.raises(ValueError):
        max_k_connected_subset(g, a, -1)
    assert is_k_connected(g, a, 0).ok
    assert max_k_connected_subset(g, a, 0) == MaxKConnResult(3, a)


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_non_integer_k_and_m_are_rejected(bad):
    # True would pass as k = 1, 2.0 and "2" fail inside the search
    expected = f"expected an integer, got {bad!r}"
    assert outcome(lambda: is_k_connected(cycle_graph(5), range(5), bad)) == expected
    assert outcome(lambda: max_k_connected_subset(cycle_graph(5), range(5), bad)) == expected
    assert outcome(lambda: star_or_path(path_graph(4), {0, 3}, bad)) == expected


def test_is_k_connected_matches_brute_force_exhaustively_small():
    for g in connected_graphs(5):
        for k in (1, 2, 3):
            if g.n < k:
                continue
            got = is_k_connected(g, g.vertex_set, k).ok
            want = brute_is_k_connected(g, g.vertex_set, k)
            assert got == want, (g, k)


def test_is_k_connected_matches_brute_force_seeded():
    rng = random.Random(1234)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(4, 7))
        a = frozenset(rng.sample(range(g.n), rng.randint(3, g.n)))
        for k in (1, 2, 3):
            if len(a) < k:
                continue
            assert is_k_connected(g, a, k).ok == brute_is_k_connected(g, a, k)


def test_subset_monotonicity():
    rng = random.Random(77)
    for _ in range(30):
        g = random_connected_graph(rng, 7)
        a = g.vertex_set
        for k in (2, 3):
            if is_k_connected(g, a, k).ok:
                for size in range(k, len(a)):
                    sub = frozenset(rng.sample(sorted(a), size))
                    assert is_k_connected(g, sub, k).ok


def test_max_k_connected_subset_complete_graph():
    res = max_k_connected_subset(complete_graph(5), range(5), 3)
    assert res.size == 5
    assert res.vertices == frozenset(range(5))


def test_max_k_connected_subset_path_at_k2():
    # any 2-set of a connected graph is 2-connected (trivial paths cover
    # the overlapping pairs), while no 3-subset of a path works
    res = max_k_connected_subset(path_graph(4), range(4), 2)
    assert res.size == 2
    assert res.vertices == frozenset({0, 1})
    assert not is_k_connected(path_graph(4), {0, 1, 2}, 2).ok


def test_max_k_connected_subset_sentinel():
    # a path has no 3-connected set of any size >= 3
    res = max_k_connected_subset(path_graph(5), range(5), 3)
    assert res.size == 2
    assert res.vertices is None


def test_max_k_connected_subset_matches_brute_force():
    rng = random.Random(5150)
    for _ in range(15):
        g = random_connected_graph(rng, 6)
        for k in (2, 3):
            res = max_k_connected_subset(g, g.vertex_set, k)
            best = k - 1
            for size in range(g.n, k - 1, -1):
                if any(
                    brute_is_k_connected(g, c, k)
                    for c in itertools.combinations(range(g.n), size)
                ):
                    best = size
                    break
            assert res.size == best


def test_max_k_connected_subset_returns_lex_least_maximum():
    g = complete_bipartite_graph(2, 4)
    res = max_k_connected_subset(g, g.vertex_set, 2)
    alt = [
        frozenset(c)
        for c in itertools.combinations(range(g.n), res.size)
        if is_k_connected(g, c, 2).ok
    ]
    assert res.vertices == min(alt, key=lambda s: sorted(s))


def test_max_k_connected_subset_has_a_candidate_budget():
    # no 4-set of a cycle is 3-connected, so every larger set comes up before
    # the answer, a 3-set: C20 has over a million of them
    with pytest.raises(SizeGuardError, match="_MAX_CANDIDATES = 20000"):
        max_k_connected_subset(cycle_graph(20), range(20), 3)


def test_max_k_connected_subset_runs_no_flow(monkeypatch):
    """Candidates are decided by the demand kernel, which runs no flow; a
    failed candidate needs no witness separator either."""
    flows = []
    real_run_flow = graph_core._run_flow

    def counting_run_flow(*args, **kwargs):
        flows.append(args[1:3])
        return real_run_flow(*args, **kwargs)

    failed = []
    real_kernel = kconn.first_failed_pair

    def recording_kernel(*args):
        got = real_kernel(*args)
        failed.append(got is not None)
        return got

    monkeypatch.setattr(graph_core, "_run_flow", counting_run_flow)
    monkeypatch.setattr(kconn, "first_failed_pair", recording_kernel)
    graph_core._menger_count_cached.cache_clear()  # a cached flow would hide a run
    cases = [(path_graph(5), 3), (cycle_graph(8), 3), (complete_bipartite_graph(2, 4), 2)]
    cases += [(g, k) for g in connected_graphs(5) for k in (1, 2, 3)]
    for g, k in cases:
        max_k_connected_subset(g, g.vertex_set, k)
    assert sum(failed) > 100
    assert flows == []


@st.composite
def graphs_and_nested_sets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    big = frozenset(v for v in range(n) if draw(st.booleans()))
    small = frozenset(v for v in sorted(big) if draw(st.booleans()))
    return Graph.from_edges(n, edges), small, big


@settings(max_examples=80, deadline=None)
@given(graphs_and_nested_sets())
def test_max_k_connected_subset_is_monotone(data):
    """Being k-connected is down-closed, so the maximum k-connected subset
    of ``a`` does not grow with k and does not shrink when ``a`` grows.  A
    missing set (the sentinel) counts as size 0."""
    g, small, big = data
    sizes = {}
    for a in (small, big):
        for k in range(1, 5):
            res = max_k_connected_subset(g, a, k)
            if res.vertices is not None:
                assert res.vertices <= a and len(res.vertices) == res.size >= k
                assert is_k_connected(g, res.vertices, k).ok
            sizes[a, k] = len(res.vertices or ())
    for a in (small, big):
        assert all(sizes[a, k] >= sizes[a, k + 1] for k in range(1, 4)), sizes
    assert all(sizes[small, k] <= sizes[big, k] for k in range(1, 5)), sizes


def test_star_or_path_on_star_host():
    g = complete_bipartite_graph(1, 6)
    res = star_or_path(g, set(range(1, 7)), 5)
    assert isinstance(res, StarWitness)
    assert res.centre == 0
    check_star_or_path(g, res, set(range(1, 7)), 5)


def test_star_or_path_on_path_host():
    g = path_graph(10)
    res = star_or_path(g, set(range(10)), 8)
    assert isinstance(res, PathWitness)
    assert sum(1 for v in res.path if v < 10) >= 8
    check_star_or_path(g, res, set(range(10)), 8)


def test_star_or_path_on_random_trees():
    rng = random.Random(40)
    for _ in range(10):
        n = 40
        edges = [(i, rng.randint(0, i - 1)) for i in range(1, n)]
        g = Graph.from_edges(n, edges)
        leaves = {v for v in g.vertices if g.degree(v) == 1}
        res = star_or_path(g, leaves, 4)
        assert res is not None
        check_star_or_path(g, res, leaves, 4)


def test_star_or_path_rejects_split_u():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        star_or_path(g, {0, 3}, 2)


def test_star_or_path_rejects_m_below_one():
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be at least 1"):
            star_or_path(path_graph(4), {0, 3}, m)


def test_star_or_path_rejects_empty_u():
    with pytest.raises(ValueError, match="u must be non-empty"):
        star_or_path(path_graph(4), set(), 1)


def test_star_or_path_on_a_long_path():
    # the tree recipe walks its tree without recursion
    res = star_or_path(path_graph(1500), range(1500), 3)
    assert res == PathWitness(tuple(range(1500)))


def test_star_or_path_none_when_impossible():
    g = path_graph(3)
    assert star_or_path(g, {0, 1, 2}, 4) is None


def _spider(legs: int) -> tuple[Graph, set[int]]:
    """Three paths of ``legs`` vertices hung from vertex 0, with u the three
    leaves and the centre: no vertex has 4 neighbours and no path passes 4
    vertices of u, so with m = 4 every stage of star_or_path runs."""
    edges = [(0, 1 + i * legs) for i in range(3)]
    edges += [(v, v + 1) for i in range(3) for v in range(1 + i * legs, (i + 1) * legs)]
    return Graph.from_edges(1 + 3 * legs, edges), {0, legs, 2 * legs, 3 * legs}


def test_star_or_path_exact_search_runs_without_recursion():
    # the exact path search walks every simple path from each vertex of u
    g, u = _spider(100)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        assert star_or_path(g, u, 4) is None
    finally:
        sys.setrecursionlimit(limit)


def test_star_or_path_exact_search_is_linear_on_a_spider(monkeypatch):
    """The path search starts only in u, so on a tree it visits each vertex
    once per start: a few scans of the adjacency, not one per path."""
    g, u = _spider(300)
    calls = 0
    real_neighbors = Graph.neighbors

    def counting_neighbors(self, v):
        nonlocal calls
        calls += 1
        return real_neighbors(self, v)

    monkeypatch.setattr(Graph, "neighbors", counting_neighbors)
    assert star_or_path(g, u, 4) is None
    assert calls <= 10 * g.n


def test_star_or_path_exact_path_stage_has_a_step_budget():
    """A spider of three 2x12 ladders hung from vertex 0 by one corner each,
    u = the centre and the far corner on the other rail of each ladder: no
    vertex has 4 neighbours and no path passes 4 vertices of u, and the exact
    path stage would walk the ladders' exponentially many simple paths."""
    rows = 12
    edges, u = [], {0}
    for i in range(3):
        rail = (1 + 2 * rows * i, 1 + 2 * rows * i + rows)  # first vertex of each rail
        edges.append((0, rail[0]))
        edges += [(r + j, r + j + 1) for r in rail for j in range(rows - 1)]
        edges += [(rail[0] + j, rail[1] + j) for j in range(rows)]
        u.add(rail[1] + rows - 1)
    g = Graph.from_edges(1 + 6 * rows, edges)
    with pytest.raises(SizeGuardError, match="_MAX_PATH_STEPS = 200000"):
        star_or_path(g, u, 4)


def _brute_star_or_path_exists(g: Graph, u: frozenset[int], m: int) -> bool:
    """Existence by brute force, no flow: a star at c is m disjoint paths
    from N(c) to u - {c} in g - c; a path is found by a DFS over every simple
    path from every vertex."""
    for c in g.vertices:
        rest = Graph.from_edges(g.n, [e for e in g.edges if c not in e])
        if brute_max_disjoint_paths(rest, g.neighbors(c), u - {c}) >= m:
            return True

    def extend(path: list[int], count: int) -> bool:
        if count >= m:
            return True
        return any(
            extend(path + [w], count + (w in u)) for w in g.neighbors(path[-1]) if w not in path
        )

    return any(extend([s], int(s in u)) for s in g.vertices)


def test_star_or_path_matches_brute_force():
    rng = random.Random(1306)
    kinds = collections.Counter()
    for g in connected_graphs(6):
        for _ in range(2):
            u = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            for m in range(1, 5):
                res = star_or_path(g, u, m)
                assert (res is None) != _brute_star_or_path_exists(g, u, m), (g, u, m, res)
                if res is not None:
                    check_star_or_path(g, res, u, m)
                kinds[type(res).__name__] += 1
    assert min(kinds.values()) > 200, kinds


def _grid_with_tail() -> tuple[Graph, range, set[int]]:
    """A 30x30 grid with a 6-vertex tail ending in three leaves, and u = the
    leaves: the u-spanned tree is the tail's end and the leaves."""
    side = 30
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    tail = range(side * side, side * side + 6)
    edges += [(side * side - 1, tail[0])] + [(v, v + 1) for v in tail[:-1]]
    u = {tail[-1] + 1, tail[-1] + 2, tail[-1] + 3}
    edges += [(tail[-1], leaf) for leaf in u]
    return Graph.from_edges(side * side + 9, edges), tail, u


def test_tree_star_runs_no_flow(monkeypatch):
    """On the grid with a tail, the star's legs are read off the tree
    without a flow over the 909-vertex host."""
    g, tail, u = _grid_with_tail()
    flows = []
    real_run_flow = graph_core._run_flow

    def counting_run_flow(*args, **kwargs):
        flows.append(args[1:3])
        return real_run_flow(*args, **kwargs)

    monkeypatch.setattr(graph_core, "_run_flow", counting_run_flow)
    res = star_or_path(g, u, 3)
    assert res == StarWitness(tail[-1], tuple((tail[-1], leaf) for leaf in sorted(u)))
    assert flows == []


def test_u_tree_stops_its_search_at_the_last_vertex_of_u(monkeypatch):
    """The BFS scans only the root and the tail's end: once it has found
    every leaf it stops, instead of walking the other 907 vertices."""
    g, tail, u = _grid_with_tail()
    scanned = []
    real_neighbors = Graph.neighbors

    def counting_neighbors(self, v):
        scanned.append(v)
        return real_neighbors(self, v)

    monkeypatch.setattr(Graph, "neighbors", counting_neighbors)
    parent, order = kconn._u_tree(g, frozenset(u))
    assert scanned == [min(u), tail[-1]]
    assert order == [min(u), tail[-1]] + sorted(u - {min(u)})
    assert parent == {v: tail[-1] for v in order} | {tail[-1]: min(u), min(u): min(u)}


def test_tree_star_legs_are_tree_paths_to_their_first_u_vertex():
    rng = random.Random(1811)
    stars = 0
    for g in connected_graphs(6):
        for _ in range(2):
            u = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            parent, order = kconn._u_tree(g, u)
            degree = collections.Counter(v for w in order[1:] for v in (w, parent[w]))
            for m in range(1, 5):
                if max(degree.values(), default=0) < m:
                    continue
                res = star_or_path(g, u, m)
                assert isinstance(res, StarWitness), (g, u, m, res)
                check_star_or_path(g, res, u, m)
                for leg in res.legs:
                    assert all(parent[x] == y or parent[y] == x for x, y in zip(leg, leg[1:]))
                    assert [v for v in leg[1:] if v in u] == [leg[-1]], (g, u, m, leg)
                stars += 1
    assert stars > 300


def test_exact_star_finds_as_many_legs_as_brute_force():
    """The unmasked flow from N(c) to u - {c} gives as many legs as the
    disjoint paths in g without c's edges, so c needs no mask."""
    rng = random.Random(1306)
    for g in connected_graphs(6):
        u = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        for c in g.vertices:
            rest = Graph.from_edges(g.n, [e for e in g.edges if c not in e])
            count = brute_max_disjoint_paths(rest, g.neighbors(c), u - {c})
            for m in range(1, g.degree(c) + 1):
                star = kconn._star(g, c, u, m)
                assert (star is not None) == (count >= m), (g, c, u, m)
                if star is not None:
                    assert star.centre == c
                    check_star_or_path(g, star, u, m)
