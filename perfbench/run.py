"""kconnkit benchmark: one workload, measured for a fixed time, outputs checked.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one caller:
passes run one after another, each in a fresh interpreter (``worker.py``),
so the library's process-wide caches start cold in every pass and are never
cleared inside one.  Pass i of a run uses the inputs of pass seed
``1000 * seed + i``.  Passes start until ``--seconds`` have gone by and at
least ``MIN_SAMPLES`` calls were timed.

``--trace 0`` prints the end-to-end metrics: median set-up time, median wall
time of a pass's call list, call latency p50 and p90 over every call of the
run, and median peak RSS of a pass.  ``--trace 1`` runs each pass twice,
untraced and traced in alternating order, and prints the per-layer metrics (see
``tracing.PER_LAYER``) with the tracing overhead; the spans of the first
traced pass go to ``.perfbench/spans-<workload>.json``.

Every output is checked (``check.py``) after its pass.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A pass that cannot run, such as in a directory
without ``src/kconnkit``, ends the benchmark with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PYCACHE = OUT / "pycache"
MIN_SAMPLES = 100
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class PassFailed(Exception):
    pass


def run_pass(args, pass_seed: int, traced: bool, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--pass-seed", str(pass_seed)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant:
        cmd.append("--plant")
    # Fixed hashing for repeatable counts; bytecode cached (under .perfbench)
    # as an installed library would have it, whatever the caller's setting.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_seed} did not finish in time") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def input_shares(workload: str, first: dict, expected: dict) -> dict[str, float]:
    """Shares of the first pass's calls that have the property an
    optimisation would depend on."""
    calls = first["calls"]
    out = {"kconn.queries.positive_share": 0.0, "kconn.queries.repeated_host_share": 0.0,
           "canon.symmetric_ratio": 0.0}
    if workload == "kconn_queries":
        ikc = [c for c in calls if c["op"] == "is_k_connected"]
        out["kconn.queries.positive_share"] = sum(expected.get(c["id"], {}).get("ok", False) for c in ikc) / len(ikc)
        per_host: dict[str, int] = {}
        for c in calls:
            per_host[c["host"]] = per_host.get(c["host"], 0) + 1
        out["kconn.queries.repeated_host_share"] = sum(per_host[c["host"]] > 1 for c in calls) / len(calls)
    elif workload == "canon_corpus":
        forms = [c for c in calls if c["op"] == "canonical_form"]
        out["canon.symmetric_ratio"] = sum(
            expected.get(f"cc:{c['host']}:aut", {}).get("aut", 1) > 1 for c in forms) / len(forms)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few calls per section (self-test)")
    ap.add_argument("--plant", action="store_true", help="corrupt one output per pass (self-test)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "kconnkit").is_dir():
        print(f"no kconnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(ROOT / "src"))
    import check
    import tracing

    with open(HERE / "expected.json") as fh:
        pinned = json.load(fh)
    if args.workload not in pinned:
        print(f"unknown workload {args.workload!r}; choose from {sorted(pinned)}", file=sys.stderr)
        return 1
    expected = pinned[args.workload]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.json"

    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    first_problem = None
    stop = time.monotonic() + args.seconds
    i = 0
    try:
        while True:
            pass_seed = 1000 * args.seed + i
            # A traced run pairs each untraced pass with a traced one on the
            # same inputs, alternating which goes first.
            modes = [False, True][: 1 + args.trace]
            runs = []
            for traced_mode in modes if i % 2 == 0 else modes[::-1]:
                report = run_pass(args, pass_seed, traced_mode, deadline, spans_path if i == 0 else None)
                (traced if traced_mode else untraced).append(report)
                runs.append(report)
            for report in runs:
                for rec in report["calls"]:
                    attempted += 1
                    problems = check.check(rec, expected)
                    if problems:
                        failed += 1
                        first_problem = first_problem or f"{rec['id']}: {'; '.join(problems)}"
            i += 1
            samples = sum(len(r["calls"]) for r in untraced)
            if time.monotonic() >= stop and (samples >= MIN_SAMPLES or args.tiny):
                break
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    latencies = sorted(c["s"] for r in untraced for c in r["calls"])
    print(f"{args.workload} seed {args.seed}: {len(untraced)} passes, {len(latencies)} timed calls "
          f"({len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90), {failed} of {attempted} "
          f"checked calls failed")
    if first_problem:
        print(f"first failure: {first_problem}")

    if args.trace:
        first = traced[0]
        values = dict(first["layers"])
        for name, unit in tracing.PER_LAYER:
            if unit == "%":
                own = name.replace("_share", "_s")
                values[name] = statistics.median(100 * r["layers"][own] / r["wall_s"] for r in traced)
            elif unit == "s" and name in values:
                values[name] = statistics.median(r["layers"][name] for r in traced)
        values.update(tracing.cache_ratios(first["flow_cache"], first["perm_cache"]))
        values.update(input_shares(args.workload, first, expected))
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s on "
              f"{values['trace.untraced_wall_s']:.4f} s untraced; spans in {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "call_p50_ms": percentile(latencies, 0.5) * 1e3,
            "call_p90_ms": percentile(latencies, 0.9) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
