"""The library names the benchmark in ``perfbench/`` hooks into.

``perfbench/tracing.py`` wraps module attributes by name, and
``perfbench/worker.py`` reads the ``cache_info()`` of two caches.  A library
edit that renames or drops one of them would otherwise surface only when
the benchmark runs.
"""

import importlib.util
from pathlib import Path

from kconnkit import canon, graph_core

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name in tracing._LAYER_TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)
    assert canon.canonical_perm.cache_info() is not None
    assert graph_core._menger_count_cached.cache_info() is not None
