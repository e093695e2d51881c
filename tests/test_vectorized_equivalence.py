"""Equivalence of the vectorized fast path and the scalar reference path.

The fast implementations (batch FIT estimation, the vectorized App_FIT sweep
and the array-based simulator loop) are designed to mirror the scalar
reference arithmetic operation for operation, so everything here asserts
*exact* float equality — any drift means the two implementations diverged.
Figure-level summaries are additionally checked through the public drivers,
which exercises the experiment engine's fast/reference duality end to end.
"""

import time
from dataclasses import replace

import pytest

from repro.analysis.experiments import (
    _appfit_threshold,
    _appfit_threshold_compiled,
    _distributed_benchmark,
    figure3_appfit,
    figure4_overheads,
    figure5_scalability_shared,
)
from repro.apps import create_benchmark
from repro.apps.registry import all_benchmark_names, distributed_benchmark_names
from repro.core.engine import decide_for_graph
from repro.core.estimator import ArgumentSizeEstimator, estimate_total_fits
from repro.core.heuristic import AppFit
from repro.core.vectorized import (
    compiled_total_fits,
    decide_for_compiled,
    decide_for_graph_fast,
)
from repro.faults.model import FailureModel
from repro.faults.rates import FitRateSpec
from repro.runtime.compiled import compile_graph
from repro.simulator.backend import BackendUnavailable, resolve_backend
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import (
    SimGraphCache,
    _simulate_python,
    simulate_compiled,
    simulate_compiled_batch,
    simulate_graph_fast,
)
from repro.simulator.machine import marenostrum_cluster, shared_memory_node
from repro.workloads import WorkloadBenchmark, family_names, parse_workload

#: Small scale so all nine Table I graphs build in a few seconds.
SCALE = 0.05


@pytest.fixture(scope="module")
def graphs():
    """One small graph per registered benchmark."""
    built = {}
    for name in all_benchmark_names():
        built[name] = create_benchmark(name, scale=SCALE).build_graph()
    return built


class TestBatchEstimation:
    def test_fit_arrays_match_scalar_rates(self, graphs):
        model = FailureModel(FitRateSpec().scaled(10.0))
        for name, graph in graphs.items():
            tasks = graph.tasks()
            crash, sdc = model.task_fit_arrays(tasks)
            for i, task in enumerate(tasks):
                rates = model.task_rates(task)
                assert crash[i] == rates.crash_fit, name
                assert sdc[i] == rates.sdc_fit, name

    def test_estimate_batch_matches_estimate(self, graphs):
        estimator = ArgumentSizeEstimator(FitRateSpec().scaled(5.0))
        for name, graph in graphs.items():
            tasks = graph.tasks()
            batch = estimate_total_fits(estimator, tasks)
            for i, task in enumerate(tasks):
                assert batch[i] == estimator.estimate(task).total_fit, name

    def test_threshold_same_on_both_paths(self, graphs):
        spec = FitRateSpec()
        for name, graph in graphs.items():
            assert _appfit_threshold(graph, spec, fast=True) == _appfit_threshold(
                graph, spec, fast=False
            ), name


class TestAppFitSweepEquivalence:
    @pytest.mark.parametrize("multiplier", [5.0, 10.0])
    @pytest.mark.parametrize("residual", [0.0, 0.1])
    def test_decisions_identical_across_all_benchmarks(self, graphs, multiplier, residual):
        spec = FitRateSpec()
        for name, graph in graphs.items():
            threshold = _appfit_threshold(graph, spec)
            estimator = ArgumentSizeEstimator(spec.scaled(multiplier))
            policy = AppFit(threshold, len(graph), estimator, residual_fit_factor=residual)
            ref = decide_for_graph(graph, policy)
            ref_audit = policy.audit()
            fast = decide_for_graph_fast(
                graph, threshold, estimator, residual_fit_factor=residual
            )
            assert fast.replicated_ids == ref.replicated_ids, name
            assert fast.task_fraction == ref.task_fraction, name
            assert fast.time_fraction == ref.time_fraction, name
            assert fast.total_duration_s == ref.total_duration_s, name
            assert fast.audit.current_fit == ref_audit.current_fit, name
            assert fast.audit.max_envelope_excess == ref_audit.max_envelope_excess, name
            assert fast.audit.threshold_respected == ref_audit.threshold_respected, name


class TestSimulatorEquivalence:
    """The auto-selected path and each backend, named explicitly, against the
    reference oracle."""

    def _compare(self, graph, machine, config, cache):
        ref = simulate_graph(graph, machine, config)
        _assert_results_identical(simulate_graph_fast(graph, machine, config, cache=cache), ref)
        for backend in _available_backends():
            fast = simulate_compiled(cache, machine, config, backend=backend)
            _assert_results_identical(fast, ref)

    def test_multi_chunk_python_loop(self, graphs):
        graph = graphs["cholesky"]
        cache = SimGraphCache(graph)
        config = SimulationConfig(
            replicated_ids=set(graph.task_ids()[::2]),
            crash_probability=0.05,
            sdc_probability=0.03,
            seed=3,
            collect_records=True,
        )
        # Seven 3-task chunks: more than the resident LRU budget of four.
        assert len(graph) > 6 * 3
        for machine in (shared_memory_node(4), marenostrum_cluster(n_nodes=3)):
            _assert_results_identical(
                _simulate_python(cache, machine, config, chunk=3),
                simulate_graph(graph, machine, config),
            )

    def test_shared_memory_benchmarks(self, graphs):
        distributed = set(distributed_benchmark_names())
        for name, graph in graphs.items():
            if name in distributed:
                continue
            cache = SimGraphCache(graph)
            for cores in (1, 8):
                for rate in (0.0, 0.05):
                    config = SimulationConfig(
                        replicate_all=True,
                        crash_probability=rate,
                        sdc_probability=0.01,
                        seed=5,
                    )
                    self._compare(graph, shared_memory_node(cores), config, cache)

    def test_distributed_benchmarks(self):
        for name in distributed_benchmark_names():
            graph = _distributed_benchmark(name, 4, SCALE).build_graph()
            cache = SimGraphCache(graph)
            for rate in (0.0, 0.02):
                config = SimulationConfig(
                    replicate_all=True, crash_probability=rate, seed=1
                )
                self._compare(graph, marenostrum_cluster(n_nodes=4), config, cache)

    def test_partial_replication_and_no_contention(self, graphs):
        graph = graphs["cholesky"]
        cache = SimGraphCache(graph)
        ids = set(graph.task_ids()[::3])
        config = SimulationConfig(
            replicated_ids=ids,
            crash_probability=0.03,
            sdc_probability=0.02,
            seed=9,
            model_memory_contention=False,
        )
        self._compare(graph, shared_memory_node(4), config, cache)


class TestCompiledEquivalence:
    """The compiled-graph path is a third spelling of the same arithmetic:
    everything it produces must equal both the scalar reference and the
    descriptor-walking fast path, bit for bit."""

    def test_compiled_threshold_matches_both_paths(self, graphs):
        spec = FitRateSpec()
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            assert _appfit_threshold_compiled(compiled, spec) == _appfit_threshold(
                graph, spec, fast=True
            ), name
            assert _appfit_threshold_compiled(compiled, spec) == _appfit_threshold(
                graph, spec, fast=False
            ), name

    def test_compiled_fits_match_batch_estimation(self, graphs):
        estimator = ArgumentSizeEstimator(FitRateSpec().scaled(10.0))
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            from_bytes = compiled_total_fits(estimator, compiled)
            from_tasks = estimate_total_fits(estimator, graph.tasks())
            assert from_bytes.tolist() == from_tasks.tolist(), name

    @pytest.mark.parametrize("multiplier", [5.0, 10.0])
    @pytest.mark.parametrize("residual", [0.0, 0.1])
    def test_compiled_decisions_match_reference(self, graphs, multiplier, residual):
        spec = FitRateSpec()
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            threshold = _appfit_threshold(graph, spec)
            estimator = ArgumentSizeEstimator(spec.scaled(multiplier))
            policy = AppFit(threshold, len(graph), estimator, residual_fit_factor=residual)
            ref = decide_for_graph(graph, policy)
            ref_audit = policy.audit()
            fast = decide_for_compiled(
                compiled, threshold, estimator, residual_fit_factor=residual
            )
            assert fast.replicated_ids == ref.replicated_ids, name
            assert fast.task_fraction == ref.task_fraction, name
            assert fast.time_fraction == ref.time_fraction, name
            assert fast.total_duration_s == ref.total_duration_s, name
            assert fast.audit.current_fit == ref_audit.current_fit, name
            assert fast.audit.max_envelope_excess == ref_audit.max_envelope_excess, name

    def test_compiled_rejects_descriptor_needing_estimators(self, graphs):
        from repro.core.estimator import TraceBasedEstimator

        compiled = compile_graph(graphs["cholesky"])
        with pytest.raises(TypeError):
            compiled_total_fits(TraceBasedEstimator(), compiled)


class TestDriverEquivalence:
    """Figure summary numbers match between fast and reference paths."""

    def test_figure3_rows_and_averages(self):
        kwargs = dict(scale=SCALE, multipliers=(10.0, 5.0), parallelism=1)
        fast = figure3_appfit(fast=True, **kwargs)
        ref = figure3_appfit(fast=False, **kwargs)
        assert fast.rows == ref.rows
        assert fast.averages == ref.averages

    def test_figure4_rows(self):
        kwargs = dict(scale=SCALE, benchmarks=("cholesky", "stream"), parallelism=1)
        fast = figure4_overheads(fast=True, **kwargs)
        ref = figure4_overheads(fast=False, **kwargs)
        assert fast.rows == ref.rows

    def test_figure5_rows(self):
        kwargs = dict(
            scale=0.2,
            core_counts=(1, 4, 16),
            fault_rates=(0.0, 0.05),
            benchmarks=("cholesky", "stream"),
            parallelism=1,
        )
        fast = figure5_scalability_shared(fast=True, **kwargs)
        ref = figure5_scalability_shared(fast=False, **kwargs)
        assert fast.rows == ref.rows


def _available_backends():
    """``python`` plus ``cext`` when the C kernel builds on this machine."""
    try:
        resolve_backend("cext")
    except BackendUnavailable:
        return ("python",)
    return ("python", "cext")


def _assert_results_identical(got, ref):
    """Every observable field of two SimulationResults must match exactly."""
    assert got.makespan_s == ref.makespan_s
    assert got.total_work_s == ref.total_work_s
    assert got.total_overhead_s == ref.total_overhead_s
    assert got.total_recovery_s == ref.total_recovery_s
    assert got.crashes_injected == ref.crashes_injected
    assert got.sdcs_injected == ref.sdcs_injected
    assert got.replicated_tasks == ref.replicated_tasks
    assert set(got.records) == set(ref.records)
    for tid, rec in ref.records.items():
        grec = got.records[tid]
        assert grec.start_s == rec.start_s
        assert grec.finish_s == rec.finish_s
        assert grec.node == rec.node
        assert grec.replicated == rec.replicated
        assert grec.base_duration_s == rec.base_duration_s
        assert grec.overhead_s == rec.overhead_s
        assert grec.recovery_s == rec.recovery_s


def _backend_or_skip(name):
    """Resolve a named backend, skipping the test when it is unavailable."""
    try:
        resolve_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(f"backend {name!r} unavailable: {exc}")
    return name


#: The synthetic workload families (``trace`` needs an input file, so the
#: parametric six are the batch-identity surface the ISSUE asks for).
SYNTHETIC_FAMILIES = tuple(n for n in family_names() if n != "trace")

_BATCH_SEEDS = [0, 7, 123, 2**31 + 5]


@pytest.fixture(scope="module")
def family_graphs():
    """One small graph per synthetic workload family, default parameters."""
    return {
        fam: WorkloadBenchmark(parse_workload(fam), scale=0.3).build_graph()
        for fam in SYNTHETIC_FAMILIES
    }


class TestBatchedSimulation:
    """Lane ``j`` of ``simulate_compiled_batch`` must be bit-identical to the
    scalar python replay of ``seeds[j]`` — independent of which other seeds
    share the batch, of seed order, and of the backend running the lanes."""

    def _assert_lanes_match_scalar(self, cache, machine, config, seeds, backend=None):
        batch = simulate_compiled_batch(cache, machine, config, seeds=seeds, backend=backend)
        assert len(batch) == len(seeds)
        for seed, got in zip(seeds, batch):
            ref = simulate_compiled(
                cache, machine, replace(config, seed=seed), backend="python"
            )
            _assert_results_identical(got, ref)

    @pytest.mark.parametrize("family", SYNTHETIC_FAMILIES)
    def test_workload_families(self, family_graphs, family):
        graph = family_graphs[family]
        cache = SimGraphCache(graph)
        config = SimulationConfig(
            replicated_ids=set(graph.task_ids()[::2]),
            crash_probability=0.05,
            sdc_probability=0.02,
            seed=0,
        )
        self._assert_lanes_match_scalar(
            cache, shared_memory_node(4), config, _BATCH_SEEDS
        )

    def test_paper_benchmarks_at_scale(self):
        distributed = set(distributed_benchmark_names())
        for name in all_benchmark_names():
            if name in distributed:
                graph = _distributed_benchmark(name, 4, 0.2).build_graph()
                machine = marenostrum_cluster(n_nodes=4)
            else:
                graph = create_benchmark(name, scale=0.2).build_graph()
                machine = shared_memory_node(8)
            cache = SimGraphCache(graph)
            config = SimulationConfig(
                replicate_all=True,
                crash_probability=0.05,
                sdc_probability=0.01,
                seed=0,
            )
            self._assert_lanes_match_scalar(cache, machine, config, [3, 11])

    def test_seed_order_invariance(self, graphs):
        cache = SimGraphCache(graphs["cholesky"])
        machine = shared_memory_node(4)
        config = SimulationConfig(replicate_all=True, crash_probability=0.05, seed=0)
        forward = simulate_compiled_batch(cache, machine, config, seeds=_BATCH_SEEDS)
        perm = [2, 0, 3, 1]
        shuffled = simulate_compiled_batch(
            cache, machine, config, seeds=[_BATCH_SEEDS[i] for i in perm]
        )
        for lane, i in enumerate(perm):
            _assert_results_identical(shuffled[lane], forward[i])

    def test_batch_size_invariance(self, graphs):
        cache = SimGraphCache(graphs["stream"])
        machine = shared_memory_node(4)
        config = SimulationConfig(replicate_all=True, crash_probability=0.08, seed=0)
        seeds = [0, 1, 2, 3, 4]
        whole = simulate_compiled_batch(cache, machine, config, seeds=seeds)
        split = simulate_compiled_batch(
            cache, machine, config, seeds=seeds[:2]
        ) + simulate_compiled_batch(cache, machine, config, seeds=seeds[2:])
        for got, ref in zip(split, whole):
            _assert_results_identical(got, ref)

    def test_singleton_batch_matches_simulate_compiled(self, graphs):
        cache = SimGraphCache(graphs["fft"])
        machine = shared_memory_node(2)
        config = SimulationConfig(replicate_all=True, crash_probability=0.05, seed=17)
        (got,) = simulate_compiled_batch(cache, machine, config, seeds=[17])
        _assert_results_identical(got, simulate_compiled(cache, machine, config))

    def test_empty_batch(self, graphs):
        cache = SimGraphCache(graphs["fft"])
        assert simulate_compiled_batch(
            cache, shared_memory_node(2), SimulationConfig(), seeds=[]
        ) == []

    @pytest.mark.parametrize("backend", ["cext"])
    def test_compiled_backends_match_python(self, graphs, backend):
        _backend_or_skip(backend)
        cache = SimGraphCache(graphs["cholesky"])
        config = SimulationConfig(
            replicated_ids=set(graphs["cholesky"].task_ids()[::3]),
            crash_probability=0.05,
            sdc_probability=0.02,
            seed=0,
        )
        for machine in (shared_memory_node(4), marenostrum_cluster(n_nodes=2)):
            self._assert_lanes_match_scalar(
                cache, machine, config, _BATCH_SEEDS, backend=backend
            )


class TestReplicatedIdsNormalization:
    """Regression: list-valued ``replicated_ids`` used to hit an O(n·m)
    membership scan when building the replication flags; the config now
    normalizes to a frozenset at construction, so flags stay O(n) and results
    are unchanged."""

    def test_list_config_is_normalized_and_identical(self, graphs):
        graph = graphs["cholesky"]
        cache = SimGraphCache(graph)
        ids = graph.task_ids()[::3]
        as_list = SimulationConfig(
            replicated_ids=list(ids), crash_probability=0.03, seed=9
        )
        as_set = SimulationConfig(
            replicated_ids=frozenset(ids), crash_probability=0.03, seed=9
        )
        assert isinstance(as_list.replicated_ids, frozenset)
        assert as_list.replicated_ids == as_set.replicated_ids
        machine = shared_memory_node(4)
        _assert_results_identical(
            simulate_compiled(cache, machine, as_list),
            simulate_compiled(cache, machine, as_set),
        )

    def test_no_quadratic_blowup_on_large_graph(self):
        # 10k tasks x 10k list entries was ~1e8 membership checks before the
        # fix; with frozenset normalization the flag pass is linear.  The
        # bound is generous (the old behaviour took well over a minute).
        graph = WorkloadBenchmark(
            parse_workload("layered:depth=100,width=100,seed=1"), scale=1.0
        ).build_graph()
        cache = SimGraphCache(graph)
        config = SimulationConfig(replicated_ids=list(graph.task_ids()))
        start = time.monotonic()
        flags = cache.replicated_flags_np(config)
        elapsed = time.monotonic() - start
        assert flags.all() and len(flags) == len(graph)
        assert elapsed < 5.0
