"""Census of the finite duality between k-connected sets and decompositions.

For every connected graph with at most ``n_max`` vertices, every k in
1..min(4, n), and two sets A (A = V, and one seeded A of at least k
vertices, a proper subset of V when k < n), ``check_duality`` gives s', the
size of the largest k-connected subset of A (``max_kconn``, k - 1 if there is
none), and v, the min-max separability from A over adhesion-<k
tree-decompositions (the largest entry of ``separability``).  The census
checks s' - (k - 1) <= v <= s' and counts v - s' per (A kind, k).

The upper bound says that whenever no k-connected m-set exists (s' < m),
the optimal decomposition is a certificate for m.  The lower bound is not a
theorem: it is observed for n <= 7 but fails on 12 cases at n = 8 (all with
A = V, k = 3, s' = 6 and v = 3), while v <= s' held everywhere.

Write the table for n <= 7 (18-20 s and 30 MB peak RSS in two runs on a
2-vCPU VM) with::

    PYTHONPATH=src python tests/duality_census.py 7 > DUALITY_CENSUS.json
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from typing import Iterator

from kconnkit.canon import connected_graphs
from kconnkit.duality import DualityReport, check_duality
from kconnkit.graph_core import Graph

SEED = 1811
KINDS = ("V", "seeded")


def census_cases(
    n_max: int, seed: int = SEED
) -> Iterator[tuple[Graph, str, frozenset[int], int, DualityReport]]:
    """``(g, kind, a, k, report)`` for every census case, in a fixed order.

    The seeded sets are drawn in graph order, so the cases of a smaller
    ``n_max`` are a prefix of those of a larger one.
    """
    rng = random.Random(seed)
    for g in connected_graphs(n_max):
        for k in range(1, min(4, g.n) + 1):
            seeded = frozenset(rng.sample(range(g.n), rng.randint(k, max(k, g.n - 1))))
            for kind, a in zip(KINDS, (g.vertex_set, seeded)):
                yield g, kind, a, k, check_duality(g, a, k, k)


def bounds_hold(k: int, report: DualityReport) -> bool:
    """s' - (k - 1) <= v <= s'.  The upper bound held on every case; the
    lower one is observed for n <= 7 and fails on 12 cases at n = 8."""
    s_prime = report.max_kconn
    return s_prime - (k - 1) <= max(report.separability) <= s_prime


def census(n_max: int, seed: int = SEED) -> dict:
    counts: dict[str, dict[int, Counter]] = {kind: {} for kind in KINDS}
    violations = []
    cases = 0
    for g, kind, a, k, report in census_cases(n_max, seed):
        cases += 1
        gap = max(report.separability) - report.max_kconn
        counts[kind].setdefault(k, Counter())[gap] += 1
        if not bounds_hold(k, report):
            violations.append(
                {"n": g.n, "edges": g.sorted_edges(), "kind": kind, "a": sorted(a), "k": k,
                 "s_prime": report.max_kconn, "v": max(report.separability)}
            )
    return {
        "what": "v - s' per (A kind, k) over connected graphs with n <= n_max, k = 1..min(4, n); "
                "s' = max_kconn, v = max(separability) from check_duality(g, A, k, k)",
        "command": f"PYTHONPATH=src python tests/duality_census.py {n_max}",
        "seed": seed,
        "n_max": n_max,
        "cases": cases,
        "bound": "s' - (k - 1) <= v <= s'",
        "violations": violations,
        "counts": {
            kind: {str(k): {str(gap): c for gap, c in sorted(ctr.items(), reverse=True)}
                   for k, ctr in sorted(by_k.items())}
            for kind, by_k in counts.items()
        },
    }


if __name__ == "__main__":
    print(json.dumps(census(int(sys.argv[1])), indent=1))
