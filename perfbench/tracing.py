"""Spans around the calls into each layer of ``kconnkit``, and the per-layer
metrics derived from them.

The wrappers replace the name each caller module looks up, for example
``kconnkit.kconn.menger_count`` or ``kconnkit.duality.min_separator_size``,
so a call is recorded exactly where one layer enters another; nothing inside
the library is edited.  Spans stay in memory as ``[name, start, end, parent,
call]`` lists (``call`` is the index of the benchmark call that caused the
span) and are written out once the pass is over.  A layer's self time is
its spans' time minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import json
import time

from kconnkit import canon, duality, graph_core, kconn, lean, sepsys
from kconnkit import typical_gen as tg

# (module, attribute, span name): every caller module's own reference.
_LAYER_TARGETS = [
    (kconn, "menger_count", "graph_core.menger_count"),
    (lean, "menger_count", "graph_core.menger_count"),
    (kconn, "menger", "graph_core.menger"),
    (lean, "menger", "graph_core.menger"),
    (duality, "menger", "graph_core.menger"),
    (duality, "min_separator_size", "graph_core.min_separator_size"),
    (graph_core.Graph, "induced_subgraph", "graph_core.induced_subgraph"),
    (kconn, "is_k_connected", "kconn.is_k_connected"),
    (duality, "is_k_connected", "kconn.is_k_connected"),
    (tg, "is_k_connected", "kconn.is_k_connected"),
    (kconn, "max_k_connected_subset", "kconn.max_k_connected_subset"),
    (duality, "max_k_connected_subset", "kconn.max_k_connected_subset"),
    (canon, "canonical_form", "canon.canonical_form"),
    (canon, "is_isomorphic", "canon.is_isomorphic"),
    (canon, "automorphism_count", "canon.automorphism_count"),
    (lean, "build_k_lean_td", "lean.build_k_lean_td"),
    (lean, "is_k_lean_td", "lean.is_k_lean_td"),
    (lean, "is_k_lean_nss", "lean.is_k_lean_nss"),
    (sepsys, "validate_td", "sepsys.validate_td"),
    (duality, "validate_td", "sepsys.validate_td"),
    (sepsys, "td_to_nss", "sepsys.td_to_nss"),
    (duality, "check_duality", "duality.check_duality"),
    (duality, "k_tree_width", "duality.k_tree_width"),
    (duality, "tree_width", "duality.tree_width"),
    (duality, "verify_sec1_bounds", "duality.verify_sec1_bounds"),
    (duality, "_min_max_decomposition", "duality.min_max_decomposition"),
]

_GENERATORS = [
    name for name in dir(tg)
    if (name.startswith("gen_") or name == "two_bipartite_matched") and callable(getattr(tg, name))
]

_FLOW_CACHE = graph_core._menger_count_cached

# Per-layer metrics of a traced run, with units.  A layer's self time is
# given as its share of the traced pass's call-list wall time (``trace.wall_s``
# gives the seconds), so a layer a workload never calls reads 0 % rather than
# a constant time.  Shares and times are medians over the traced passes of a
# run; counts and ratios come from its first traced pass, whose inputs depend
# on the seed alone, so they repeat exactly.
PER_LAYER = [
    ("graph_core.menger_count.calls", "count"),
    ("graph_core.menger_count.self_share", "%"),
    ("graph_core.menger.calls", "count"),
    ("graph_core.menger.self_share", "%"),
    ("graph_core.flow_cache.hit_ratio", "ratio"),
    ("graph_core.flow_cache.entries", "count"),
    ("graph_core.min_separator_size.calls", "count"),
    ("graph_core.min_separator_size.self_share", "%"),
    ("graph_core.induced_subgraph.calls", "count"),
    ("graph_core.induced_subgraph.self_share", "%"),
    ("kconn.is_k_connected.calls", "count"),
    ("kconn.is_k_connected.self_share", "%"),
    ("kconn.is_k_connected.positive_ratio", "ratio"),
    ("kconn.is_k_connected.flows_per_call", "flows/call"),
    ("kconn.max_k_connected_subset.calls", "count"),
    ("kconn.max_k_connected_subset.self_share", "%"),
    ("kconn.max_k_connected_subset.candidates_per_call", "sets/call"),
    ("kconn.queries.positive_share", "ratio"),
    ("kconn.queries.repeated_host_share", "ratio"),
    ("canon.canonical_form.calls", "count"),
    ("canon.canonical_form.self_share", "%"),
    ("canon.canonical_form.random_self_share", "%"),
    ("canon.canonical_perm.hit_ratio", "ratio"),
    ("canon.is_isomorphic.calls", "count"),
    ("canon.is_isomorphic.self_share", "%"),
    ("canon.automorphism_count.calls", "count"),
    ("canon.automorphism_count.self_share", "%"),
    ("canon.symmetric_ratio", "ratio"),
    ("lean.build_k_lean_td.calls", "count"),
    ("lean.build_k_lean_td.self_share", "%"),
    ("lean.is_k_lean_td.calls", "count"),
    ("lean.is_k_lean_td.self_share", "%"),
    ("lean.rounds_per_build", "rounds/build"),
    ("lean.is_k_lean_nss.calls", "count"),
    ("lean.is_k_lean_nss.self_share", "%"),
    ("sepsys.validate_td.calls", "count"),
    ("sepsys.validate_td.self_share", "%"),
    ("sepsys.td_to_nss.self_share", "%"),
    ("duality.check_duality.calls", "count"),
    ("duality.check_duality.self_share", "%"),
    ("duality.min_max_decomposition.self_share", "%"),
    ("duality.k_tree_width.self_share", "%"),
    ("duality.tree_width.self_share", "%"),
    ("duality.verify_sec1_bounds.self_share", "%"),
    ("typical_gen.generators.calls", "count"),
    ("typical_gen.generators.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]

_LAYER_NAMES = sorted({name for _, _, name in _LAYER_TARGETS} | {"typical_gen.generators"})


class Tracer:
    """In-memory span recorder.  ``call`` is set by the caller before each
    benchmark call; spans opened outside any call carry -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = -1
        self.verdicts: dict[int, bool] = {}  # span index -> is_k_connected verdict
        self.flows: dict[int, int] = {}  # span index -> flow-cache misses inside

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        verdicts, flows = self.verdicts, self.flows
        is_kconn = name == "kconn.is_k_connected"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call]
            spans.append(span)
            stack.append(idx)
            if is_kconn:
                misses = _FLOW_CACHE.cache_info().misses
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_kconn:
                flows[idx] = _FLOW_CACHE.cache_info().misses - misses
                verdicts[idx] = out.ok
            return out

        return traced

    def install_generators(self) -> None:
        for attr in _GENERATORS:
            setattr(tg, attr, self.wrap("typical_gen.generators", getattr(tg, attr)))

    def install_layers(self) -> None:
        for owner, attr, name in _LAYER_TARGETS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"], "spans": self.spans}, fh)

    def layer_metrics(self, tags: list[str]) -> dict[str, float]:
        """Per-layer counts and self times of this pass; ``tags[call]`` is the
        input tag of each benchmark call."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls = dict.fromkeys(_LAYER_NAMES, 0)
        self_s = dict.fromkeys(_LAYER_NAMES, 0.0)
        random_cf = 0.0
        parent_of = {}
        for i, s in enumerate(spans):
            own = s[2] - s[1] - child[i]
            if s[0] in calls:
                calls[s[0]] += 1
                self_s[s[0]] += own
            if s[0] == "canon.canonical_form" and s[4] >= 0 and tags[s[4]] == "random":
                random_cf += own
            if s[3] >= 0:
                key = (s[0], spans[s[3]][0])
                parent_of[key] = parent_of.get(key, 0) + 1
        ikc = calls["kconn.is_k_connected"]
        mkc = calls["kconn.max_k_connected_subset"]
        builds = calls["lean.build_k_lean_td"]
        out: dict[str, float] = {}
        for name in _LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["kconn.is_k_connected.positive_ratio"] = sum(self.verdicts.values()) / ikc if ikc else 0.0
        out["kconn.is_k_connected.flows_per_call"] = sum(self.flows.values()) / ikc if ikc else 0.0
        under_mkc = parent_of.get(("kconn.is_k_connected", "kconn.max_k_connected_subset"), 0)
        out["kconn.max_k_connected_subset.candidates_per_call"] = under_mkc / mkc if mkc else 0.0
        checks = parent_of.get(("lean.is_k_lean_td", "lean.build_k_lean_td"), 0)
        out["lean.rounds_per_build"] = (checks - builds) / builds if builds else 0.0
        out["canon.canonical_form.random_self_s"] = random_cf
        out["trace.spans"] = len(spans)
        return out


def cache_ratios(flow: list[int], perm: list[int]) -> dict[str, float]:
    """Hit ratios and size from ``cache_info()`` (hits, misses, currsize)."""
    return {
        "graph_core.flow_cache.hit_ratio": flow[0] / (flow[0] + flow[1]) if flow[0] + flow[1] else 0.0,
        "graph_core.flow_cache.entries": flow[2],
        "canon.canonical_perm.hit_ratio": perm[0] / (perm[0] + perm[1]) if perm[0] + perm[1] else 0.0,
    }
