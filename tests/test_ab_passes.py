"""Synthetic self-test of ``tests/ab_passes.py``'s pairing, summary and
output comparison."""

import copy
import json
import random
import subprocess
import sys

import pytest

import ab_passes
from ab_passes import METRICS, PERFBENCH, differences, first_problem, median_interval

REPORT = {
    "setup_s": 0.1,
    "wall_s": 0.2,
    "flow_cache": [1, 2, 3],
    "perm_cache": [0, 4, 4],
    "calls": [
        {"id": "c0", "op": "is_k_connected", "s": 0.01, "in": {"k": 2}, "out": {"ok": True}},
        {"id": "c1", "op": "canonical_form", "s": 0.02, "in": {"k": 1}, "error": "ValueError: bad"},
    ],
}


def _changed(edit) -> dict:
    report = copy.deepcopy(REPORT)
    edit(report)
    return report


@pytest.mark.parametrize(
    "edit, expected",
    [
        pytest.param(lambda r: None, [], id="identical"),
        pytest.param(lambda r: r.update(wall_s=9.0, setup_s=9.0), [], id="timings-ignored"),
        pytest.param(lambda r: r["calls"][0].update(s=9.0), [], id="latency-ignored"),
        pytest.param(lambda r: r["calls"][0]["out"].update(ok=False), ["c0"], id="output"),
        pytest.param(lambda r: r["calls"][1].update(error="ValueError: other"), ["c1"], id="error"),
        pytest.param(lambda r: r["calls"][1].update(out={"form": None}), ["c1"], id="error-to-output"),
        pytest.param(lambda r: r["calls"][0]["in"].update(k=3), ["c0"], id="input"),
        pytest.param(lambda r: r["calls"][0].update(op="max_k_connected_subset"), ["c0"], id="op"),
        pytest.param(lambda r: r["calls"][1].update(id="c9"), ["c1"], id="id"),
        pytest.param(lambda r: r["calls"].pop(), ["c1"], id="missing-call"),
        pytest.param(lambda r: r["calls"].append({"id": "c2"}), ["c2"], id="extra-call"),
        pytest.param(
            lambda r: r.update(flow_cache=[1, 2, 4]), ["flow_cache [1, 2, 3] -> [1, 2, 4]"], id="flow-cache"
        ),
        pytest.param(
            lambda r: (r.update(perm_cache=[1, 4, 4]), r["calls"][0].update(out={})),
            ["perm_cache [0, 4, 4] -> [1, 4, 4]", "c0"],
            id="counter-and-call",
        ),
    ],
)
def test_differences(edit, expected):
    assert differences(REPORT, _changed(edit)) == expected


def _report(rng: random.Random) -> dict:
    """A worker report whose timings drift with the pass by up to ±30 %."""
    drift = rng.uniform(0.7, 1.3)
    calls = [{"id": f"kq:{i}", "out": {"ok": True}, "s": drift * rng.uniform(1e-4, 1e-3)} for i in range(50)]
    wall_s = sum(c["s"] for c in calls)
    return {"setup_s": 0.03 * drift, "wall_s": wall_s, "peak_rss_mb": 17.0, "calls": calls,
            "flow_cache": [1, 2, 3], "perm_cache": [0, 4, 4]}


def _fake_worker(slowdown: float, edits: dict | None = None):
    """Both roots see the same drift on a seed, plus ±2 % of their own
    noise; the change root is ``slowdown`` times slower, and on a seed of
    ``edits`` its report is edited by ``edits[seed]``."""

    def run(root, workload, seed):
        report = _report(random.Random(seed))
        noise = random.Random(f"{root}:{seed}")
        scale = (slowdown if root.name == "change" else 1.0) * noise.uniform(0.98, 1.02)
        report["wall_s"] *= scale
        for call in report["calls"]:
            call["s"] *= scale
        if root.name == "change" and seed in (edits or {}):
            edits[seed](report)
        return report

    return run


def _main(monkeypatch, capsys, slowdown: float, edits: dict | None = None, status: int = 0) -> list[str]:
    monkeypatch.setattr(ab_passes, "run_worker", _fake_worker(slowdown, edits))
    monkeypatch.setattr(ab_passes, "first_problem", lambda report, expected: None)
    argv = ["parent", "change", "--workload", "kconn_queries", "--passes", "30", "--first-seed", "7"]
    assert ab_passes.main(argv) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kconn_queries: 30 paired passes, seeds 7-36"
    assert [line.split()[0] for line in lines[1:6]] == list(METRICS)
    return lines


def test_a_a_reads_one_inside_its_interval(monkeypatch, capsys):
    for name, row in json.loads(_main(monkeypatch, capsys, 1.0)[-1])["summary"].items():
        lo, hi = row["interval"]
        assert lo <= 1.0 <= hi, (name, row)
        assert 0.98 <= row["median_ratio"] <= 1.02, (name, row)


def test_a_planted_slowdown_is_caught(monkeypatch, capsys):
    summary = json.loads(_main(monkeypatch, capsys, 1.1)[-1])["summary"]
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


def test_main_reports_each_pass_and_fails_on_a_difference(monkeypatch, capsys):
    """An A/A run passes; one flipped output on one seed fails the run,
    which still prints every ratio and the JSON line."""
    lines = _main(monkeypatch, capsys, 1.0)
    assert lines[6:] == ["outputs identical in 30 of 30 pairs", lines[-1]]
    assert json.loads(lines[-1])["differing"] == []

    def flip(report):
        report["calls"][3]["out"] = {"ok": False}

    lines = _main(monkeypatch, capsys, 1.0, {12: flip}, status=1)
    assert lines[6:-1] == ["outputs identical in 29 of 30 pairs", "pass seed 12 differs: kq:3"]
    assert json.loads(lines[-1])["differing"] == [{"seed": 12, "differences": ["kq:3"]}]


def test_a_difference_in_counters_only_is_named_by_counter(monkeypatch, capsys):
    edits = {8: lambda r: r.update(flow_cache=[5, 6, 7]), 30: lambda r: r.update(perm_cache=[0, 1, 1])}
    lines = _main(monkeypatch, capsys, 1.0, edits, status=1)
    assert lines[6:-1] == [
        "outputs identical in 28 of 30 pairs",
        "pass seed 8 differs: flow_cache [1, 2, 3] -> [5, 6, 7]",
        "pass seed 30 differs: perm_cache [0, 4, 4] -> [0, 1, 1]",
    ]


def test_a_failing_worker_says_why(tmp_path, capsys):
    """A worker that exits nonzero stops the run with its side, its pass
    seed and its stderr."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "worker.py").write_text(
        "import sys\nprint('no such workload', file=sys.stderr)\nsys.exit(1)\n"
    )
    assert ab_passes.main([str(tmp_path), str(tmp_path), "--workload", "kconn_queries", "--passes", "2",
                           "--first-seed", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parent pass 4 exited with 1:\nno such workload\n\n"


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
