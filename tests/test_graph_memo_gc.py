"""The graph memo's contract with the cyclic garbage collector.

A graph memoised by :func:`repro.analysis.runner.benchmark_graph` lives as
long as the process, so its first build runs with the cyclic GC paused and
then freezes it into the permanent generation; :func:`clear_caches` unfreezes.
These tests pin that contract: when collection and freezing happen, that the
caller's GC state always survives, and that nothing outside the memo is ever
frozen.
"""

import contextlib
import gc

import pytest

import repro.analysis.runner as runner
from repro.analysis.runner import (
    benchmark_graph,
    clear_caches,
    compiled_sim_cache,
    configure_graph_cache,
)
from repro.apps import create_benchmark

SPEC = "layered:depth=6,width=5,seed=3"


@pytest.fixture(autouse=True)
def _unfrozen():
    clear_caches()
    configure_graph_cache(enabled=False)
    assert gc.get_freeze_count() == 0
    yield
    clear_caches()
    configure_graph_cache()


def _tracked(obj):
    """Whether ``obj`` sits in a generation the collector still scans."""
    return any(o is obj for o in gc.get_objects())


class _FakeBench:
    """Stands in for a memoised benchmark and records the GC state it saw."""

    def __init__(self, fail=False):
        self.fail = fail
        self.gc_enabled_during_build = None

    def build_graph(self):
        self.gc_enabled_during_build = gc.isenabled()
        if self.fail:
            raise RuntimeError("build failed")
        return create_benchmark(SPEC, scale=1.0).build_graph()


def test_memo_build_freezes_the_graph():
    graph = benchmark_graph(SPEC, 1.0)
    assert gc.get_freeze_count() > 0
    assert not _tracked(graph)


def test_memo_hit_neither_collects_nor_freezes(monkeypatch):
    graph = benchmark_graph(SPEC, 1.0)
    frozen = gc.get_freeze_count()
    calls = []
    monkeypatch.setattr(gc, "collect", lambda *a: calls.append("collect"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))

    assert benchmark_graph(SPEC, 1.0) is graph
    assert calls == []
    assert gc.get_freeze_count() == frozen

    # A new configuration is a first build: collect, then freeze.
    benchmark_graph(SPEC, 0.5)
    assert calls == ["collect", "freeze"]


def test_build_pauses_gc_and_restores_it(monkeypatch):
    bench = _FakeBench()
    monkeypatch.setattr(runner, "benchmark_instance", lambda *a: bench)
    assert gc.isenabled()
    benchmark_graph("fake", 1.0)
    assert bench.gc_enabled_during_build is False
    assert gc.isenabled()


def test_failed_build_restores_gc_and_freezes_nothing(monkeypatch):
    bench = _FakeBench(fail=True)
    monkeypatch.setattr(runner, "benchmark_instance", lambda *a: bench)
    with pytest.raises(RuntimeError, match="build failed"):
        benchmark_graph("fake", 1.0)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0

    # Nothing was memoised: the next request builds again.
    bench.fail = False
    benchmark_graph("fake", 1.0)
    assert bench.gc_enabled_during_build is False
    assert gc.get_freeze_count() > 0


@pytest.mark.parametrize("fail", [False, True])
def test_caller_with_gc_disabled_keeps_it_disabled(monkeypatch, fail):
    bench = _FakeBench(fail=fail)
    monkeypatch.setattr(runner, "benchmark_instance", lambda *a: bench)
    gc.disable()
    try:
        with contextlib.suppress(RuntimeError):
            benchmark_graph("fake", 1.0)
        assert bench.gc_enabled_during_build is False
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_clear_caches_unfreezes():
    graph = benchmark_graph(SPEC, 1.0)
    assert gc.get_freeze_count() > 0
    clear_caches()
    assert gc.get_freeze_count() == 0
    assert _tracked(graph)


def test_graphs_outside_the_memo_are_never_frozen():
    graph = create_benchmark(SPEC, scale=1.0).build_graph()
    assert gc.get_freeze_count() == 0
    assert _tracked(graph)

    # Direct generation keeps no object graph, so it freezes nothing either.
    assert compiled_sim_cache(SPEC, 1.0).n == 30
    assert gc.get_freeze_count() == 0
