"""Output checker, run outside the timed region.

Each call record carries its (relabelled) inputs and its outputs.  The
checker compares the relabelling-invariant part of an output, as given by
``invariants``, with the value ``expected.json`` pinned, and checks every
witness for validity rather than equality: a negative k-connectivity
witness must really separate, a canonical form must be isomorphic to its
input (``networkx`` is the independent reference), and every decomposition
must pass ``validate_td`` with all adhesion sets below k.
"""

from __future__ import annotations

import networkx as nx

from kconnkit.graph_core import graph_from_json
from kconnkit.sepsys import TreeDecomposition, validate_td


def nx_graph(g: dict) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g["n"]))
    h.add_edges_from(map(tuple, g["edges"]))
    return h


def invariants(op: str, args: dict, out: dict) -> dict:
    """The part of an output that every relabelling of the input shares."""
    g = args["g"]
    inv = {"n": g["n"], "m": len(g["edges"])}
    if op == "is_k_connected":
        inv["ok"] = out["ok"]
    elif op == "max_k_connected_subset":
        inv["size"] = out["size"]
    elif op == "canonical_form":
        inv["form"] = out["form"]
    elif op == "is_isomorphic":
        inv["iso"] = out["iso"]
    elif op == "automorphism_count":
        inv["aut"] = out["aut"]
    elif op == "recheck_lean":
        inv["lean"] = out["lean"]
    elif op == "check_duality":
        inv.update(max_kconn=out["max_kconn"], ktw=out["ktw"], tw=out["tw"],
                   set_certificate=out["set_certificate"] is not None,
                   td_certificate=out["td_certificate"] is not None)
    elif op == "verify_sec1_bounds":
        inv.update(out)
    return inv


def _separates(g: nx.Graph, sep: set, z1: set, z2: set) -> bool:
    if (z1 & z2) - sep:
        return False
    rest = g.subgraph(set(g) - sep)
    return not any(c & z1 and c & z2 for c in nx.connected_components(rest))


def _td_problems(args: dict, td_json: dict, k: int) -> list[str]:
    g = graph_from_json(args["g"])
    td = TreeDecomposition.from_json(td_json)
    problems = []
    if not validate_td(g, td):
        problems.append("validate_td rejects the decomposition")
    if any(len(s) >= k for s in td.adhesion_sets()):
        problems.append(f"an adhesion set has at least k={k} vertices")
    return problems


def validity(op: str, args: dict, out: dict) -> list[str]:
    """Problems with the witnesses of one output; empty when all are valid."""
    if op == "is_k_connected":
        if out["ok"]:
            return []
        if "z1" not in out:
            return ["negative verdict without a witness"]
        z1, z2, sep = set(out["z1"]), set(out["z2"]), set(out["sep"])
        a = set(args["a"])
        if not (z1 <= a and z2 <= a and len(z1) == len(z2) <= args["k"] and z1 != z2):
            return ["witness sets are not two distinct equal-size subsets of A"]
        if len(sep) >= len(z1):
            return [f"separator of size {len(sep)} is not smaller than |z1| = {len(z1)}"]
        if not _separates(nx_graph(args["g"]), sep, z1, z2):
            return ["witness separator does not separate z1 from z2"]
        return []
    if op == "max_k_connected_subset":
        vs = out["vertices"]
        if vs is None:
            return [] if out["size"] == args["k"] - 1 else ["no vertex set for a non-sentinel size"]
        if not set(vs) <= set(args["a"]) or len(vs) != out["size"] or len(vs) < args["k"]:
            return ["returned set is not a subset of A of the reported size"]
        return []
    if op == "canonical_form":
        if not nx.is_isomorphic(nx_graph(out["form"]), nx_graph(args["g"])):
            return ["canonical form is not isomorphic to the input"]
        return []
    if op == "build_k_lean_td":
        return _td_problems(args, out["td"], args["k"])
    if op == "check_duality":
        problems = []
        cert = out["set_certificate"]
        if cert is not None and (not set(cert) <= set(args["a"]) or len(cert) < args["m"]):
            problems.append("set certificate is not a subset of A with at least m vertices")
        if out["td_certificate"] is not None:
            problems += _td_problems(args, out["td_certificate"], args["k"])
        return problems
    return []


def check(rec: dict, expected: dict) -> list[str]:
    """Every problem with one call record; empty when the call is correct."""
    if "error" in rec:
        return [rec["error"]]
    pinned = expected.get(rec["id"])
    if pinned is None:
        return ["no pinned expectation for this call"]
    try:
        problems = validity(rec["op"], rec["in"], rec["out"])
        got = invariants(rec["op"], rec["in"], rec["out"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    if got != pinned:
        diff = sorted(key for key in pinned.keys() | got.keys() if pinned.get(key) != got.get(key))
        problems.append(f"differs from the pinned answer in {', '.join(diff)}")
    return problems
