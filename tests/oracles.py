"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's flow/search machinery: they enumerate
structures directly so that agreement is a real check and not a tautology.
"""

from __future__ import annotations

import itertools
import math
from itertools import combinations
from typing import Callable, Iterator

from kconnkit.canon import _canon_key, canonical_form
from kconnkit.graph_core import (
    Graph,
    Separation,
    SizeGuardError,
    components,
    menger,
    menger_count,
    reachable_mask,
)
from kconnkit.kconn import KConnVerdict, KConnWitness, PathWitness, StarWitness
from kconnkit.lean import LeanViolation
from kconnkit.sepsys import TreeDecomposition, is_nested_pair, nss_from_separations


def all_ab_paths(g: Graph, a: frozenset[int], b: frozenset[int]) -> list[tuple[int, ...]]:
    """Every a-b path (inner vertices outside a | b), as vertex sequences."""
    out: list[tuple[int, ...]] = []
    blocked = a | b

    def extend(path: list[int]) -> None:
        last = path[-1]
        for w in sorted(g.neighbors(last)):
            if w in path:
                continue
            if w in b:
                out.append(tuple(path) + (w,))
            elif w not in blocked:
                path.append(w)
                extend(path)
                path.pop()

    for s in sorted(a):
        if s in b:
            out.append((s,))
        extend([s])
    return out


def brute_max_disjoint_paths(g: Graph, a, b) -> int:
    """Maximum size of a family of pairwise vertex-disjoint a-b paths."""
    fa, fb = frozenset(a), frozenset(b)
    masks = sorted(
        {
            sum(1 << v for v in p): None for p in all_ab_paths(g, fa, fb)
        }.keys()
    )
    cap = min(len(fa), len(fb))
    best = 0

    def rec(i: int, used: int, cnt: int) -> None:
        nonlocal best
        if cnt > best:
            best = cnt
        if best >= cap or cnt + (len(masks) - i) <= best:
            return
        for j in range(i, len(masks)):
            if not masks[j] & used:
                rec(j + 1, used | masks[j], cnt + 1)
                if best >= cap:
                    return

    rec(0, 0, 0)
    return best


def brute_is_separator(g: Graph, s: frozenset[int], a, b) -> bool:
    """True iff no component of g - s contains vertices of both a-s and b-s."""
    fa, fb = frozenset(a) - s, frozenset(b) - s
    remaining = set(g.vertices) - s
    seen: set[int] = set()
    for start in remaining:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in remaining and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if comp & fa and comp & fb:
            return False
    return True


def min_separator_size(g: Graph, a, b) -> int:
    """Size of a minimum a-b separator, by direct subset enumeration.

    Reference for the flow-based ``menger_count``: ``a & b`` lies in every
    separator, so only subsets of the remaining vertices are tried, smallest
    first.  Exponential; meant for graphs of at most about ten vertices.
    """
    fa, fb = frozenset(a), frozenset(b)
    forced = fa & fb
    rest = sorted(set(g.vertices) - forced)
    for extra in range(len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            if brute_is_separator(g, forced | frozenset(combo), fa, fb):
                return len(forced) + extra
    raise AssertionError("unreachable: deleting every vertex always separates")


def brute_menger_separator(g: Graph, a, b) -> frozenset[int]:
    """The separator ``menger`` reports, by direct subset enumeration.

    Among the a-b separators with the fewest vertices, then the fewest
    vertices of ``a | b``, it takes the one whose a-side (the vertices
    reachable from a - S in g - S) is contained in every other a-side, and
    asserts that there is exactly one such separator.
    """
    fa, fb = frozenset(a), frozenset(b)
    forced = fa & fb
    rest = sorted(set(g.vertices) - forced)
    best: list[tuple[frozenset[int], frozenset[int]]] = []
    best_key = None
    for extra in range(len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            sep = forced | frozenset(combo)
            if not brute_is_separator(g, sep, fa, fb):
                continue
            key = (len(sep), len(sep & (fa | fb)))
            if best_key is None or key < best_key:
                best, best_key = [], key
            if key == best_key:
                side = set(fa - sep)
                stack = list(side)
                while stack:
                    for w in g.neighbors(stack.pop()):
                        if w not in sep and w not in side:
                            side.add(w)
                            stack.append(w)
                best.append((frozenset(side), sep))
        if best:
            break
    least = {sep for side, sep in best if all(side <= other for other, _ in best)}
    assert len(least) == 1, (g, fa, fb, best)
    return least.pop()


def components_within(g: Graph, keep) -> list[frozenset[int]]:
    """Components of ``g[keep]`` in ``g``'s ids, ordered by their smallest
    vertex."""
    rest = sum(1 << v for v in keep)
    out = []
    while rest:
        comp = reachable_mask(g.adjacency_masks, rest & -rest, rest)
        out.append(frozenset(v for v in range(g.n) if comp >> v & 1))
        rest &= ~comp
    return out


def min_path_adhesion(td: TreeDecomposition, t1: int, t2: int) -> int | None:
    """Smallest adhesion set size along the t1-t2 tree path; None if t1 == t2."""
    if t1 == t2:
        return None
    prev = {t1: t1}
    queue = [t1]
    for t in queue:
        for w in td.tree.neighbors(t):
            if w not in prev:
                prev[w] = t
                queue.append(w)
    sizes = []
    while t2 != t1:
        sizes.append(len(td.parts[t2] & td.parts[prev[t2]]))
        t2 = prev[t2]
    return min(sizes)


def subtree_nodes(tree: Graph, keep: int, cut: int) -> set[int]:
    """Nodes on the ``keep`` side when the edge (keep, cut) is removed."""
    seen = {keep}
    stack = [keep]
    while stack:
        t = stack.pop()
        for w in tree.neighbors(t):
            if w != cut and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_star_or_path(g: Graph, w: StarWitness | PathWitness, u: set, m: int) -> None:
    """Assert that ``w`` is a star of at least m legs ending in ``u``, or a
    path through at least m vertices of ``u``."""
    if isinstance(w, PathWitness):
        assert len(set(w.path)) == len(w.path)
        assert all(g.has_edge(x, y) for x, y in zip(w.path, w.path[1:]))
        assert sum(1 for v in w.path if v in u) >= m
        return
    assert len(w.legs) >= m
    seen: set[int] = set()
    for leg in w.legs:
        assert leg[0] == w.centre
        assert len(set(leg)) == len(leg) >= 2
        assert leg[-1] in u
        assert all(g.has_edge(x, y) for x, y in zip(leg, leg[1:]))
        inner = set(leg[1:])
        assert not inner & seen
        seen |= inner


def pair_scan_is_k_connected(g: Graph, a, k: int) -> KConnVerdict:
    """``is_k_connected`` by a flow for every pair of l-subsets, l <= k.

    The reference for the separator scan: pairs are tried ascending in l,
    then lexicographically, and the first failing one is the witness.  Unlike
    the oracles above it runs the library's flows, which are themselves
    cross-checked against ``brute_max_disjoint_paths`` and
    ``min_separator_size``.
    """
    ordered = sorted(a)
    for ell in range(1, min(k, len(ordered)) + 1):
        subsets = list(itertools.combinations(ordered, ell))
        for i, z1 in enumerate(subsets):
            for z2 in subsets[i + 1 :]:
                if menger_count(g, frozenset(z1), frozenset(z2)) >= ell:
                    continue
                res = menger(g, z1, z2)
                return KConnVerdict(
                    False, KConnWitness(frozenset(z1), frozenset(z2), res.separator)
                )
    return KConnVerdict(True)


def pair_scan_first_violation(g: Graph, parts, k: int, cut_order):
    """``lean._first_violation`` by a flow for every demand.

    The reference for the demand kernel: for each pair of parts ``i <= j``
    every pair of l-subsets is tried, ascending in l and then
    lexicographically, up to ``min(k, |Pi|, |Pj|)`` and the smallest order
    ``cut_order(i, j)`` of a separation between the parts.
    """
    for i, part_i in enumerate(parts):
        p1 = sorted(part_i)
        for j in range(i, len(parts)):
            p2 = sorted(parts[j])
            min_adh = cut_order(i, j)
            top = min(k, len(p1), len(p2))
            for ell in range(1, top + 1):
                if min_adh is not None and min_adh < ell:
                    break  # a small separation answers this and larger demands
                for z1 in itertools.combinations(p1, ell):
                    for z2 in itertools.combinations(p2, ell):
                        if z1 == z2 or (i == j and z2 < z1):
                            continue
                        fz1, fz2 = frozenset(z1), frozenset(z2)
                        if menger_count(g, fz1, fz2) < ell:
                            return LeanViolation(i, j, fz1, fz2)
    return None


def full_refine(adj: tuple[frozenset[int], ...], colors: list[int]) -> list[int]:
    """Colour refinement that re-ranks every vertex in every round by its
    colour and the sorted tuple of its neighbours' colours, until a round
    changes nothing; the reference for ``canon._refine``'s dense ranks."""
    n = len(adj)
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[sig[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def _unpruned_search(g: Graph, colors: list[int]) -> tuple[tuple, list[int]]:
    n = g.n
    colors = full_refine(g.adjacency, colors)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        perm = [0] * n
        for v in range(n):
            perm[v] = colors[v]
        return _canon_key(g, perm), perm
    best_key = None
    best_perm: list[int] = []
    for v in target:
        branched = list(colors)
        branched[v] = -1  # individualise; refinement re-normalises colours
        key, perm = _unpruned_search(g, branched)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    return best_key, best_perm


def unpruned_canonical_perm(g: Graph) -> tuple[int, ...]:
    """``canon.canonical_perm`` without twin pruning: every vertex of the
    target cell is branched on, so the whole search tree is visited."""
    if g.n == 0:
        return ()
    _, perm = _unpruned_search(g, [0] * g.n)
    return tuple(perm)


def all_masks_connected_graphs(n_max: int) -> Iterator[Graph]:
    """``connected_graphs`` without its filter: every augmentation of every
    graph of the level before is labelled."""
    if n_max < 1:
        return
    level: list[Graph] = [Graph.from_edges(1)]
    yield level[0]
    for size in range(2, n_max + 1):
        seen: set[frozenset[tuple[int, int]]] = set()
        nxt: list[Graph] = []
        for g in level:
            for mask in range(1, 1 << g.n):
                edges = list(g.edges) + [
                    (v, g.n) for v in range(g.n) if (mask >> v) & 1
                ]
                h = canonical_form(Graph.from_edges(g.n + 1, edges))
                if h.edges not in seen:
                    seen.add(h.edges)
                    nxt.append(h)
        nxt.sort(key=lambda h: sorted(h.edges))
        yield from nxt
        level = nxt


def to_graph6(g: Graph) -> str:
    """Encode in the standard graph6 format (n <= 62)."""
    if g.n > 62:
        raise ValueError("graph6 small form supports n <= 62 only")
    bits: list[int] = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


def backtrack_automorphism_count(g: Graph) -> int:
    """Number of adjacency-preserving permutations, by backtracking."""
    n = g.n
    if n == 0:
        return 1
    adj = g.adjacency
    degs = [g.degree(v) for v in range(n)]
    image = [-1] * n
    used = [False] * n
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or degs[w] != degs[v]:
                continue
            ok = True
            for u in adj[v]:
                if u < v and image[u] not in adj[w]:
                    ok = False
                    break
            if ok:
                for u in range(v):
                    if u not in adj[v] and image[u] in adj[w]:
                        ok = False
                        break
            if ok:
                image[v] = w
                used[w] = True
                rec(v + 1)
                used[w] = False
                image[v] = -1

    rec(0)
    return count


def frozenset_min_max_decomposition(
    g: Graph, k: int, cost: Callable[[frozenset[int]], int]
) -> tuple[int, TreeDecomposition]:
    """``duality._min_max_decomposition`` as a frozenset search: minimise the
    maximum part cost over decompositions of adhesion < k.

    Exact, memoised on (interface, component) states.  Returns the optimum
    value together with a witnessing decomposition.
    """
    if g.n == 0:
        return 0, TreeDecomposition(Graph.from_edges(1), (frozenset(),))
    if k <= 0:
        part = g.vertex_set
        return cost(part), TreeDecomposition(Graph.from_edges(1), (part,))

    memo: dict[tuple[frozenset[int], frozenset[int]], tuple[int, tuple]] = {}

    def neighbourhood(c: frozenset[int]) -> frozenset[int]:
        return frozenset().union(*(g.neighbors(v) for v in c)) - c

    def best_for(interface: frozenset[int], comp: frozenset[int]) -> tuple[int, tuple]:
        key = (interface, comp)
        if key in memo:
            return memo[key]
        best_val = math.inf
        best_struct: tuple | None = None
        ordered = sorted(comp)
        for size in range(1, len(ordered) + 1):
            for extra in combinations(ordered, size):
                part = interface | frozenset(extra)
                part_cost = cost(part)
                if part_cost >= best_val:
                    continue
                val = part_cost
                children = []
                feasible = True
                for child_comp in components_within(g, comp - part):
                    child_if = neighbourhood(child_comp) & part
                    if len(child_if) >= k:
                        feasible = False
                        break
                    child_val, child_struct = best_for(child_if, child_comp)
                    val = max(val, child_val)
                    children.append(child_struct)
                    if val >= best_val:
                        feasible = False
                        break
                if feasible and val < best_val:
                    best_val = val
                    best_struct = (part, tuple(children))
        if best_struct is None:
            raise AssertionError("taking the whole region as one part always works")
        memo[key] = (best_val, best_struct)
        return memo[key]

    structures = []
    value = 0
    for comp in components(g):
        v, s = best_for(frozenset(), comp)
        value = max(value, v)
        structures.append(s)

    parts: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []

    def emit(struct: tuple, parent: int | None) -> None:
        part, children = struct
        idx = len(parts)
        parts.append(part)
        if parent is not None:
            edges.append((parent, idx))
        for ch in children:
            emit(ch, idx)

    root_ids = []
    for s in structures:
        root_ids.append(len(parts))
        emit(s, None)
    for r1, r2 in zip(root_ids, root_ids[1:]):
        edges.append((r1, r2))
    td = TreeDecomposition(Graph.from_edges(len(parts), edges), tuple(parts))
    return value, td


def pull_tree_width(g: Graph, size_guard: int = 10) -> int:
    """``duality.tree_width`` as a pull DP: exact tree-width via the
    elimination-ordering subset DP, one reachability search per (set, vertex)."""
    if g.n > size_guard:
        raise SizeGuardError(f"tree_width exact search limited to n <= {size_guard}")
    n = g.n
    if n == 0:
        return -1
    masks = g.adjacency_masks
    full = (1 << n) - 1

    def elim_degree(xmask: int, v: int) -> int:
        # neighbours of v reachable through eliminated set xmask
        region = reachable_mask(masks, masks[v] & xmask, xmask)
        seen = masks[v] | region
        m = region
        while m:
            b = m & -m
            seen |= masks[b.bit_length() - 1]
            m ^= b
        return bin(seen & ~xmask & ~(1 << v)).count("1")

    f = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = n
        m = s
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            prev = f[s ^ b]
            cand = max(prev, elim_degree(s ^ b, v))
            if cand < best:
                best = cand
        f[s] = best
    return f[full]


def labeled_connected_count(n: int) -> int:
    """Number of labeled connected graphs on n vertices (counting oracle).

    Independent of the enumeration: uses the standard recurrence that splits
    off the component of a fixed vertex.
    """
    if n == 0:
        return 1
    total = [1] * (n + 1)
    for m in range(1, n + 1):
        total[m] = 2 ** (m * (m - 1) // 2)
    conn = [0] * (n + 1)
    conn[1] = 1
    for m in range(2, n + 1):
        s = total[m]
        for k in range(1, m):
            s -= math.comb(m - 1, k - 1) * conn[k] * total[m - k]
        conn[m] = s
    return conn[n]


def add_edges(g: Graph, extra) -> Graph:
    """``g`` with the edges ``extra`` added."""
    return Graph.from_edges(g.n, list(g.edges) + [tuple(e) for e in extra])


def random_graph(rng, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n: int, p: float = 0.4) -> Graph:
    """Random graph plus a random spanning tree, so it is always connected."""
    g = random_graph(rng, n, p)
    verts = list(range(n))
    rng.shuffle(verts)
    extra = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return add_edges(g, extra)


def random_separation(rng, g: Graph, max_sep: int = 3, allow_improper: bool = False):
    """A random separation built from a separator and a component split."""
    size = rng.randint(0, min(max_sep, g.n))
    s = frozenset(rng.sample(range(g.n), size))
    sub_vertices = sorted(set(g.vertices) - s)
    if not sub_vertices:
        return None
    comps = components_within(g, sub_vertices)
    sides = [rng.randint(0, 1) for _ in comps]
    a = set(s)
    b = set(s)
    for comp, side in zip(comps, sides):
        (a if side == 0 else b).update(comp)
    sep = Separation(frozenset(a), frozenset(b))
    full = g.vertex_set
    if not allow_improper and (sep.a == full or sep.b == full):
        return None
    return sep


def random_nested_system(rng, g: Graph, tries: int = 12, allow_improper: bool = False):
    """A seeded nested separation system grown by rejection sampling.

    Candidates must nest with everything chosen so far.  Improper members
    (one side the whole vertex set) nest with everything, so systems built
    with ``allow_improper`` can carry arbitrarily crossing separators; keep
    it off for corpora that exercise clean-up properties.
    """
    chosen = []
    for _ in range(tries):
        cand = random_separation(rng, g, allow_improper=allow_improper)
        if cand is None:
            continue
        if all(is_nested_pair(cand, t) for t in chosen):
            chosen.append(cand)
    return nss_from_separations(g, chosen)


def outcome(call: Callable[[], object]) -> object:
    """What ``call()`` returns, or the message of the ``ValueError`` it
    raises: one value for table-driven tests of accept and reject paths."""
    try:
        return call()
    except ValueError as e:
        return str(e)
