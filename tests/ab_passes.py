"""Pair single benchmark passes of two checkouts of this repository.

Usage: python3 tests/ab_passes.py PARENT_ROOT CHANGE_ROOT --workload W --passes N
       [--first-seed S]

For each pass seed ``S .. S + N - 1`` runs each root's own
``perfbench/worker.py`` once, untraced, alternating which root goes first
(the parent on even passes), in the environment ``perfbench/run.py`` gives a
pass, after one untimed pass per root.  Every call of a pass is checked as
``run.py`` checks it, and the first that fails stops the tool.  A pass
yields ``setup_s``, ``wall_s``, the p50 and p90 of its call latencies
(nearest rank, as ``run.py`` takes them over a run) and ``peak_rss_mb``.
For each it prints the median of the per-pass ratio change / parent with a
distribution-free 95 % interval for that median (order statistics of the
ratios), and in how many passes the change read lower.  Pairing passes on
one seed cancels the drift between whole runs that ``run.py`` pairs cannot.

The two reports of each pair must also agree: the id, op, inputs, outputs
and error of every call, in order, and the ``flow_cache`` and ``perm_cache``
counters (timings are not compared).  After the ratios it prints in how many
pairs the outputs were identical, then each pass seed whose pair differs,
with each counter that differs as ``name parent -> change`` and the ids of
the calls that differ.  The last line is one JSON object with the same
summary, the differences and every pass's values.  It exits 1 if a pair
differs, a call fails its check or a worker fails (with the worker's
stderr), and at once, naming the known workloads, on a workload with no
pinned answers.  The checker, the pinned answers, the metric names and the
percentile are those of ``perfbench/`` in the checkout holding this tool.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``, without
    putting ``perfbench/`` on the path (its dataclasses need the module
    registered)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_run = _load("run")
percentile = _run.percentile
METRICS = tuple(name for name, _ in _run.END_TO_END)
sys.path.insert(0, str(PERFBENCH.parent / "src"))  # the checker imports kconnkit from this checkout
_check = _load("check")
CALL_FIELDS = ("id", "op", "in", "out", "error")
COUNTERS = ("flow_cache", "perm_cache")


def pass_metrics(report: dict) -> dict[str, float]:
    """The end-to-end metrics of one worker report."""
    latencies = sorted(c["s"] for c in report["calls"])
    return {
        "setup_s": report["setup_s"],
        "wall_s": report["wall_s"],
        "call_p50_ms": percentile(latencies, 0.5) * 1e3,
        "call_p90_ms": percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def median_interval(xs: list[float], level: float = 0.95) -> tuple[float, float]:
    """Order statistics ``(x_(j), x_(n+1-j))`` of the sorted ``xs`` that cover
    their median with probability at least ``level``, whatever the
    distribution: the widest j with ``P(Binomial(n, 1/2) < j) <= (1 - level)
    / 2``, or the whole range when n is too small for any."""
    xs, n = sorted(xs), len(xs)
    j, below = 0, 0.0
    while j < n // 2 and below + math.comb(n, j) / 2**n <= (1 - level) / 2:
        below += math.comb(n, j) / 2**n
        j += 1
    j = max(j, 1)
    return xs[j - 1], xs[n - j]


def summary(pairs: list[tuple[dict, dict]]) -> dict[str, dict]:
    """Per metric: the median ratio change / parent, its interval, and in how
    many passes the change read lower (ties count for neither side)."""
    out = {}
    for name in METRICS:
        ratios = [c[name] / p[name] for p, c in pairs]
        lo, hi = median_interval(ratios)
        out[name] = {
            "median_ratio": statistics.median(ratios),
            "interval": [lo, hi],
            "change_lower_in": sum(c[name] < p[name] for p, c in pairs),
        }
    return out


def differences(parent: dict, change: dict) -> list[str]:
    """Each counter that differs, as ``name parent -> change``, then the id
    of every call position where the two reports differ in a field of
    ``CALL_FIELDS`` (a call that only one report holds differs too)."""
    diff = [
        f"{key} {parent.get(key)} -> {change.get(key)}"
        for key in COUNTERS
        if parent.get(key) != change.get(key)
    ]
    for p, c in itertools.zip_longest(parent["calls"], change["calls"], fillvalue={}):
        if any(p.get(f) != c.get(f) for f in CALL_FIELDS):
            diff.append(str(p.get("id", c.get("id"))))
    return diff


def run_worker(root: Path, workload: str, seed: int) -> dict:
    """The report of one untraced pass of ``root``'s own worker, in the
    environment ``run.py``'s ``run_pass`` gives a pass (built here because
    ``run_pass`` fixes the bytecode cache to its own checkout).  A worker
    that exits nonzero raises ``run.py``'s ``PassFailed`` with its stderr."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(root / ".perfbench" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", workload,
         "--pass-seed", str(seed)],
        capture_output=True, text=True, cwd=root, env=env,
    )
    if proc.returncode != 0:
        raise _run.PassFailed(f"exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_problem(report: dict, expected: dict) -> str | None:
    """The first call of ``report`` that ``run.py``'s checker rejects against
    the pinned answers ``expected``, with its problems, or ``None``."""
    for rec in report["calls"]:
        problems = _check.check(rec, expected)
        if problems:
            return f"{rec['id']}: {'; '.join(problems)}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    pinned = json.loads((PERFBENCH / "expected.json").read_text())
    if args.workload not in pinned:
        print(f"unknown workload {args.workload!r}; choose from {sorted(pinned)}", file=sys.stderr)
        return 1
    expected = pinned[args.workload]
    pairs, differing = [], {}
    seed = args.first_seed
    try:
        for side in ("parent", "change"):  # untimed, so each bytecode cache is written
            run_worker(getattr(args, side), args.workload, seed)
        for i in range(args.passes):
            seed = args.first_seed + i
            got = {}  # by side, so one root given twice runs twice
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                got[side] = run_worker(getattr(args, side), args.workload, seed)
                problem = first_problem(got[side], expected)
                if problem is not None:
                    print(f"{side} pass {seed} failed its check: {problem}", file=sys.stderr)
                    return 1
            diff = differences(got["parent"], got["change"])
            if diff:
                differing[seed] = diff
            pairs.append((pass_metrics(got["parent"]), pass_metrics(got["change"])))
    except _run.PassFailed as exc:
        print(f"{side} pass {seed} {exc}", file=sys.stderr)
        return 1
    result = summary(pairs)
    last = args.first_seed + args.passes - 1
    print(f"{args.workload}: {args.passes} paired passes, seeds {args.first_seed}-{last}")
    for name, row in result.items():
        lo, hi = row["interval"]
        print(f"{name:12} change/parent median {row['median_ratio']:.3f}, 95 % interval {lo:.3f}-{hi:.3f}, "
              f"change lower in {row['change_lower_in']} of {args.passes}")
    print(f"outputs identical in {args.passes - len(differing)} of {args.passes} pairs")
    for seed, diff in differing.items():
        print(f"pass seed {seed} differs: {'; '.join(diff)}")
    print(json.dumps({"workload": args.workload, "first_seed": args.first_seed, "passes": args.passes,
                      "summary": result,
                      "differing": [{"seed": s, "differences": d} for s, d in differing.items()],
                      "pairs": [{"parent": p, "change": c} for p, c in pairs]}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
