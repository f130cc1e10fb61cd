"""Every verdict and value of the paper's objects is an isomorphism invariant.

Each property runs on a small graph g and on a seeded relabelling of it, and
the witnesses found on the relabelled graph are re-checked by ``oracles``.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from kconnkit.canon import automorphism_count
from kconnkit.duality import check_duality
from kconnkit.graph_core import Graph, components
from kconnkit.kconn import is_k_connected, max_k_connected_subset, star_or_path
from kconnkit.lean import build_k_lean_td, is_k_lean_td
from kconnkit.sepsys import validate_td
from oracles import (
    brute_is_separator,
    brute_max_disjoint_paths,
    check_star_or_path,
    min_separator_size,
    pair_scan_is_k_connected,
    to_graph6,
)

# Erfg in graph6: a graph whose 4-lean decomposition from build_k_lean_td
# has a largest part that depends on the labelling.
ERFG = Graph.from_edges(
    6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]
)


@st.composite
def relabelled_hosts(draw):
    """(g, its relabelling, the permutation, k, a vertex set of g)."""
    n = draw(st.integers(1, 7))
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())])
    perm = list(range(n))
    random.Random(draw(st.integers(0, 1 << 16))).shuffle(perm)
    k = draw(st.integers(1, min(3, n)))
    a = draw(st.frozensets(st.integers(0, n - 1), min_size=k))
    return g, g.relabel(perm), perm, k, a


def _width(g: Graph, k: int) -> int:
    return max(map(len, build_k_lean_td(g, k).parts))


@settings(max_examples=100, deadline=None)
@given(relabelled_hosts(), st.integers(1, 3))
def test_verdicts_and_values_are_isomorphism_invariant(host, m):
    g, h, perm, k, a = host
    ha = frozenset(perm[v] for v in a)

    verdict = is_k_connected(h, ha, k)
    assert is_k_connected(g, a, k).ok == verdict.ok
    if not verdict.ok:
        w = verdict.witness
        assert w.z1 | w.z2 <= ha and len(w.z1) == len(w.z2) <= k
        assert brute_max_disjoint_paths(h, w.z1, w.z2) == len(w.separator) < len(w.z1)
        assert brute_is_separator(h, w.separator, w.z1, w.z2)

    best = max_k_connected_subset(h, ha, k)
    assert max_k_connected_subset(g, a, k).size == best.size
    if best.vertices is not None:
        assert best.vertices <= ha and len(best.vertices) == best.size
        assert pair_scan_is_k_connected(h, best.vertices, k).ok

    report = check_duality(h, ha, k, k)
    other = check_duality(g, a, k, k)
    assert (other.max_kconn, other.ktw, other.tw) == (report.max_kconn, report.ktw, report.tw)
    assert max(other.separability) == max(report.separability)
    if report.set_certificate is not None:
        assert pair_scan_is_k_connected(h, report.set_certificate, k).ok
    if report.td_certificate is not None:
        td = report.td_certificate
        assert validate_td(h, td) and all(len(s) < k for s in td.adhesion_sets())
        assert all(min_separator_size(h, ha, p) < k for p in td.parts)

    assert automorphism_count(g) == automorphism_count(h)

    # u lies in one component, as star_or_path requires
    u = next(c for c in components(g) if min(a) in c) & a
    hu = frozenset(perm[v] for v in u)
    found = star_or_path(h, hu, m)
    assert (star_or_path(g, u, m) is None) == (found is None)
    if found is not None:
        check_star_or_path(h, found, hu, m)

    for x in (g, h):
        td = build_k_lean_td(x, k)
        assert validate_td(x, td) and is_k_lean_td(x, td, k) is True


def test_lean_builder_width_depends_on_the_labelling():
    """A known defect, pinned so that a change to it shows up: the largest
    part of the builder's 4-lean decomposition of Erfg is 4 as labelled and 4
    or 5 under relabelling."""
    assert to_graph6(ERFG) == "Erfg"
    assert _width(ERFG, 4) == 4
    widths = []
    for seed in range(20):
        perm = list(range(6))
        random.Random(seed).shuffle(perm)
        widths.append(_width(ERFG.relabel(perm), 4))
    assert sorted(set(widths)) == [4, 5]
