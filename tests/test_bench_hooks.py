"""The library names the benchmark in ``perfbench/`` hooks into, and the
answers it pins.

``perfbench/tracing.py`` wraps module attributes by name, and
``perfbench/worker.py`` reads the ``cache_info()`` of two caches.  The
workloads call the library through ``worker.py`` and compare every answer
with ``perfbench/expected.json``.  A library edit that renames or drops a
name the benchmark uses, or changes a pinned answer, would otherwise surface
only when the benchmark runs.
"""

import json

import pytest

from ab_passes import PERFBENCH, _load
from kconnkit import canon, graph_core


def test_benchmark_hooks_resolve():
    tracing = _load("tracing")
    for owner, attr, name in tracing._LAYER_TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)
    assert canon.canonical_perm.cache_info() is not None
    assert graph_core._menger_count_cached.cache_info() is not None


@pytest.mark.parametrize("workload", ["kconn_queries", "canon_corpus", "lean_duality"])
def test_tiny_workload_matches_the_pinned_answers(workload):
    inputs, worker, check = _load("inputs"), _load("worker"), _load("check")
    expected = json.loads((PERFBENCH / "expected.json").read_text())[workload]
    run = worker.make_runner()
    results: dict = {}
    for call in inputs.build(workload, 3, tiny=True):
        results[call.id] = run(call, results)
        rec = {"id": call.id, "op": call.op, "in": worker.encode_args(call.args)}
        rec["out"] = worker.encode_out(call.op, results[call.id])
        assert check.check(rec, expected) == [], call.id
