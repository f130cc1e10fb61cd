"""Synthetic self-test of ``tests/ab_passes.py``'s pairing and summary."""

import json
import random
import subprocess
import sys

import pytest

import ab_passes
from ab_passes import METRICS, PERFBENCH, first_problem, median_interval


def _report(rng: random.Random) -> dict:
    """A worker report whose timings drift with the pass by up to ±30 %."""
    drift = rng.uniform(0.7, 1.3)
    calls = [{"s": drift * rng.uniform(1e-4, 1e-3)} for _ in range(50)]
    wall_s = sum(c["s"] for c in calls)
    return {"setup_s": 0.03 * drift, "wall_s": wall_s, "peak_rss_mb": 17.0, "calls": calls}


def _fake_worker(slowdown: float):
    """Both roots see the same drift on a seed, plus ±2 % of their own
    noise; the change root is ``slowdown`` times slower."""

    def run(root, workload, seed):
        report = _report(random.Random(seed))
        noise = random.Random(f"{root}:{seed}")
        scale = (slowdown if root.name == "change" else 1.0) * noise.uniform(0.98, 1.02)
        report["wall_s"] *= scale
        for call in report["calls"]:
            call["s"] *= scale
        return report

    return run


def _main(monkeypatch, capsys, slowdown: float) -> dict:
    monkeypatch.setattr(ab_passes, "run_worker", _fake_worker(slowdown))
    monkeypatch.setattr(ab_passes, "first_problem", lambda report, expected: None)
    assert ab_passes.main(["parent", "change", "--workload", "kconn_queries", "--passes", "30", "--first-seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kconn_queries: 30 paired passes, seeds 7-36"
    assert [line.split()[0] for line in lines[1:6]] == list(METRICS)
    return json.loads(lines[-1])["summary"]


def test_a_a_reads_one_inside_its_interval(monkeypatch, capsys):
    for name, row in _main(monkeypatch, capsys, 1.0).items():
        lo, hi = row["interval"]
        assert lo <= 1.0 <= hi, (name, row)
        assert 0.98 <= row["median_ratio"] <= 1.02, (name, row)


def test_a_planted_slowdown_is_caught(monkeypatch, capsys):
    summary = _main(monkeypatch, capsys, 1.1)
    for name in ("wall_s", "call_p50_ms", "call_p90_ms"):
        lo, hi = summary[name]["interval"]
        assert 1.0 < lo <= 1.1 <= hi, (name, summary[name])
        assert summary[name]["change_lower_in"] == 0
    assert summary["setup_s"]["interval"] == [1.0, 1.0]  # set-up is not slowed


def test_one_root_given_twice_runs_twice(monkeypatch, capsys):
    """An A/A run on one checkout keeps its two passes apart, in the
    alternating order (the n-th run reads wall_s n)."""
    runs = []

    def run(root, workload, seed):
        runs.append(seed)
        return dict(_report(random.Random(seed)), wall_s=len(runs))

    monkeypatch.setattr(ab_passes, "run_worker", run)
    monkeypatch.setattr(ab_passes, "first_problem", lambda report, expected: None)
    assert ab_passes.main(["same", "same", "--workload", "kconn_queries", "--passes", "3", "--first-seed", "5"]) == 0
    assert runs == [5, 5, 5, 5, 6, 6, 7, 7]
    pairs = json.loads(capsys.readouterr().out.splitlines()[-1])["pairs"]
    assert [(p["parent"]["wall_s"], p["change"]["wall_s"]) for p in pairs] == [(3, 4), (6, 5), (7, 8)]


def test_a_pass_that_fails_its_check_stops_the_run(monkeypatch, capsys):
    monkeypatch.setattr(ab_passes, "run_worker", _fake_worker(1.0))
    monkeypatch.setattr(ab_passes, "first_problem", lambda report, expected: "kq:1: wrong")
    assert ab_passes.main(["parent", "change", "--workload", "kconn_queries", "--passes", "3"]) == 1
    assert capsys.readouterr().err == "parent pass 1 failed its check: kq:1: wrong\n"


@pytest.mark.parametrize("plant", [False, True])
def test_the_check_of_run_py_rejects_a_planted_output(plant):
    """A tiny real pass, with and without ``worker.py --plant``, which
    corrupts one output."""
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", "kconn_queries",
           "--pass-seed", "1", "--tiny"] + ["--plant"] * plant
    report = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    expected = json.loads((PERFBENCH / "expected.json").read_text())["kconn_queries"]
    assert (first_problem(report, expected) is not None) == plant


@pytest.mark.parametrize(
    "n, j",
    [
        pytest.param(5, 1, id="too-few-for-any"),
        pytest.param(10, 2, id="ten"),
        pytest.param(30, 10, id="thirty"),
    ],
)
def test_median_interval_takes_the_binomial_order_statistics(n, j):
    """The interval (x_(j), x_(n+1-j)) covers the median with probability
    at least 95 %: P(Binomial(n, 1/2) < j) <= 2.5 %."""
    assert median_interval(list(range(1, n + 1))) == (j, n + 1 - j)
    assert median_interval(list(range(n, 0, -1))) == (j, n + 1 - j)
