"""Compare the benchmark call dumps of two checkouts of this repository.

Usage: python3 tests/compare_dumps.py PARENT_ROOT CHANGE_ROOT

Runs each root's own ``perfbench/worker.py`` once per workload of the change
root's ``BENCHMARK.json`` at each pass seed of ``PASS_SEEDS``, in the pass
environment of ``perfbench/run.py`` (``ab_passes.run_worker``), and compares
the two reports: the id, op, inputs, outputs and error of every call, in
order, plus the ``flow_cache`` and ``perm_cache`` counters.  Timings are
not compared.  Prints one line per workload and seed, with each counter
that differs as ``name parent -> change`` and the ids of the calls that
differ, and exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from ab_passes import run_worker

PASS_SEEDS = (1901001, 7315001)
CALL_FIELDS = ("id", "op", "in", "out", "error")
COUNTERS = ("flow_cache", "perm_cache")


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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    differ = False
    for workload, seed in itertools.product((w["name"] for w in spec["workloads"]), PASS_SEEDS):
        change = run_worker(args.change, workload, seed)
        diff = differences(run_worker(args.parent, workload, seed), change)
        verdict = "differ: " + "; ".join(diff) if diff else "identical"
        print(f"{workload} pass seed {seed}: {len(change['calls'])} calls, {verdict}")
        differ |= bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
