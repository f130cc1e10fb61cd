"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --pass-seed N [--trace] [--tiny]
       [--plant] [--spans PATH]

Imports ``kconnkit`` from ``src/`` of the checkout holding this file, builds
the pass inputs, runs the call list once and prints one JSON object: set-up
time (import plus input generation), wall time of the call list, per-call
latencies, peak RSS, the flow and canonical-labelling cache counters, and
every input and output for the checker.  With ``--trace`` the layer wrappers
are installed and per-layer metrics are added.  ``--plant`` corrupts the
first output on purpose, so the self-test can see the checker catch it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_library():
    """Import ``kconnkit`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kconnkit

    if Path(kconnkit.__file__).resolve().parent != src / "kconnkit":
        raise SystemExit(f"kconnkit imported from {kconnkit.__file__}, not from {src}")
    return kconnkit


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started its program.

    ``ru_maxrss`` would also count the parent's memory copied at fork, so
    the kernel's high-water mark of the current address space is read.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def make_runner():
    """``run(call, results)``: the library call for ``call.op``.  Functions are
    looked up on their modules at call time, so installed wrappers apply."""
    from kconnkit import canon, duality, kconn, lean, sepsys

    ops = {
        "is_k_connected": lambda a, r: kconn.is_k_connected(a["g"], a["a"], a["k"]),
        "max_k_connected_subset": lambda a, r: kconn.max_k_connected_subset(a["g"], a["a"], a["k"]),
        "canonical_form": lambda a, r: canon.canonical_form(a["g"]),
        "is_isomorphic": lambda a, r: canon.is_isomorphic(a["g"], a["h"]),
        "automorphism_count": lambda a, r: canon.automorphism_count(a["g"]),
        "build_k_lean_td": lambda a, r: lean.build_k_lean_td(a["g"], a["k"]),
        "recheck_lean": lambda a, r: lean.is_k_lean_nss(sepsys.td_to_nss(a["g"], r), a["k"]),
        "check_duality": lambda a, r: duality.check_duality(a["g"], a["a"], a["k"], a["m"]),
        "verify_sec1_bounds": lambda a, r: duality.verify_sec1_bounds(a["g"], a["k"]),
    }

    def run(call, results: dict):
        ref = results[call.ref] if call.ref is not None else None
        return ops[call.op](call.args, ref)

    return run


def _graph(g) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def encode_args(args: dict) -> dict:
    return {key: _graph(v) if hasattr(v, "edges") else v for key, v in args.items()}


def encode_out(op: str, out) -> dict:
    if op == "is_k_connected":
        w = out.witness
        if w is None:
            return {"ok": out.ok}
        return {"ok": out.ok, "z1": sorted(w.z1), "z2": sorted(w.z2), "sep": sorted(w.separator)}
    if op == "max_k_connected_subset":
        return {"size": out.size, "vertices": None if out.vertices is None else sorted(out.vertices)}
    if op == "canonical_form":
        return {"form": _graph(out)}
    if op == "is_isomorphic":
        return {"iso": out}
    if op == "automorphism_count":
        return {"aut": out}
    if op == "build_k_lean_td":
        return {"td": out.to_json()}
    if op == "recheck_lean":
        return {"lean": out is True}
    if op == "check_duality":
        return {
            "max_kconn": out.max_kconn,
            "ktw": out.ktw,
            "tw": out.tw,
            "set_certificate": None if out.set_certificate is None else sorted(out.set_certificate),
            "td_certificate": None if out.td_certificate is None else out.td_certificate.to_json(),
        }
    if op == "verify_sec1_bounds":
        return dataclasses.asdict(out)
    raise ValueError(f"unknown op {op}")


def plant(record: dict) -> None:
    """Corrupt one output the way a wrong answer would look."""
    out, op = record["out"], record["op"]
    if op == "is_k_connected":
        out["ok"] = not out["ok"]
    elif op == "canonical_form":
        edges = out["form"]["edges"]
        out["form"]["edges"] = edges[1:] if edges else [[0, 1]]
    elif op == "build_k_lean_td":
        out["td"]["parts"][0] = out["td"]["parts"][0][1:]
    else:
        raise ValueError(f"no planted fault for {op}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pass-seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import_library()
    from kconnkit import canon, graph_core

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install_generators()
    import inputs

    calls = inputs.build(args.workload, args.pass_seed, args.tiny)
    setup_s = time.perf_counter() - _T0
    if tracer is not None:
        tracer.install_layers()

    run_call = make_runner()
    results: dict = {}
    errors: dict[str, str] = {}
    latency: list[float] = []
    clock = time.perf_counter
    start = clock()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call = i
        t = clock()
        try:
            results[call.id] = run_call(call, results)
        except Exception as exc:  # every exception is a failed call, reported below
            errors[call.id] = f"{type(exc).__name__}: {exc}"
        latency.append(clock() - t)
    wall_s = clock() - start
    peak_rss_mb = peak_rss_kb() / 1024.0
    flow = graph_core._menger_count_cached.cache_info()
    perm = canon.canonical_perm.cache_info()

    records = []
    for call, dt in zip(calls, latency):
        rec = {"id": call.id, "op": call.op, "host": call.host, "tag": call.tag, "ref": call.ref,
               "s": dt, "in": encode_args(call.args)}
        if call.id in errors:
            rec["error"] = errors[call.id]
        else:
            rec["out"] = encode_out(call.op, results[call.id])
        records.append(rec)
    if args.plant:
        plant(next(r for r in records if "out" in r and r["op"] != "automorphism_count"))

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "flow_cache": [flow.hits, flow.misses, flow.currsize],
        "perm_cache": [perm.hits, perm.misses, perm.currsize],
        "calls": records,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics([c.tag for c in calls])
        if args.spans:
            tracer.dump(args.spans)
    json.dump(report, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
