"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py

Checks, on tiny runs of every workload:
  * an untraced and a traced run finish with no failed call and print the
    metrics that BENCHMARK.json lists, with its units;
  * the traced run keeps the layers apart (no flow on canon_corpus, no
    canonical labelling on kconn_queries);
  * a planted wrong answer (a flipped verdict, a corrupted canonical form or
    decomposition) is counted as a failed call;
and that the benchmark refuses to run, with no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", "0",
                           *args], capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if proc.returncode == 0 and result is None:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode, result


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        layers = {}
        for trace in (0, 1):
            code, res = bench("--workload", workload, "--trace", str(trace), "--tiny")
            expect(code == 0 and res is not None and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{workload} trace {trace}: tiny run passes its checks")
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(units == metric_units[trace], f"{workload} trace {trace}: metrics match BENCHMARK.json")
            if trace:
                layers = {name: m["value"] for name, m in res["metrics"].items()}
        if workload == "canon_corpus":
            expect(layers["graph_core.menger_count.calls"] == 0, "canon_corpus runs no flow")
        if workload == "kconn_queries":
            expect(layers["canon.canonical_form.calls"] == 0, "kconn_queries runs no canonical labelling")
        code, res = bench("--workload", workload, "--trace", "0", "--tiny", "--plant")
        expect(code == 0 and res is not None and not res["correct"] and res["failed"] > 0,
               f"{workload}: a planted wrong answer is caught")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res = bench("--workload", spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None, "without src/kconnkit the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
