"""Synthetic self-test of ``tests/compare_dumps.py``'s comparison."""

import copy
import json

import pytest

import compare_dumps
from compare_dumps import differences

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


def test_main_reports_each_pass_and_fails_on_a_difference(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w"}]}))
    bad_seed = compare_dumps.PASS_SEEDS[-1]

    def fake_worker(root, workload, seed):
        if root == change and seed == bad_seed:
            return _changed(lambda r: (r.update(perm_cache=[1, 4, 4]), r["calls"][0]["out"].update(ok=False)))
        return REPORT

    monkeypatch.setattr(compare_dumps, "run_worker", fake_worker)
    assert compare_dumps.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"w pass seed {compare_dumps.PASS_SEEDS[0]}: 2 calls, identical"
    assert lines[1] == f"w pass seed {bad_seed}: 2 calls, differ: perm_cache [0, 4, 4] -> [1, 4, 4]; c0"
    monkeypatch.setattr(compare_dumps, "run_worker", lambda root, workload, seed: REPORT)
    assert compare_dumps.main([str(parent), str(change)]) == 0
