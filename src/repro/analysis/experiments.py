"""Experiment drivers: one function per paper table/figure plus ablations.

Every driver returns a result object carrying structured ``rows`` (dictionaries
with plain-Python values, easy to assert on in tests) and a ``render()`` method
producing the text table the benchmark harness prints.  ``scale=1.0``
reproduces the Table I problem sizes; the benchmark harness uses smaller scales
by default so the full suite completes in minutes (replication *percentages*
and speedup *shapes* are insensitive to the scale, which the tests verify).

Since the parallel-engine refactor each driver expresses its figure as a grid
of independent :class:`~repro.analysis.runner.ExperimentSpec` cells executed
by an :class:`~repro.analysis.runner.ExperimentEngine`:

* ``parallelism`` fans the grid out over worker processes (default: one per
  CPU, or ``REPRO_PARALLELISM``);
* ``fast`` selects the vectorized fault-evaluation fast path (default on;
  the scalar implementations remain the reference — pass ``fast=False`` or
  use the CLI's or the benchmark harness's ``--reference`` flag);
* generated task graphs are memoised per process keyed by
  (benchmark, scale, node count), so a graph is built once per run instead of
  once per policy x rate cell.

Only two helpers branch on the ``fast`` flag.  :func:`_sim_inputs` hands a
cell its ``(cache, graph)`` pair: the compiled replay cache on the fast path,
the object graph the oracle walks on the reference path.  :func:`_appfit`
prices App_FIT (threshold, decisions, unprotected FIT) for every policy cell
and picks one of three bit-identical spellings (compiled arrays, vectorized
descriptors, scalar ``AppFit``); :func:`_select` runs the named policies
against it and serves the policies ablation, ``repro sweep`` and the
workload sweep alike.

Cell payloads are plain row dictionaries, so results are identical for any
parallelism and worker scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.runner import (
    ExperimentEngine,
    ExperimentSpec,
    benchmark_graph,
    benchmark_instance,
    cell_kind,
    compiled_sim_cache,
    derive_seed,
    make_spec,
)
from repro.apps.base import Benchmark
from repro.apps.linpack import LinpackBenchmark
from repro.apps.matmul import MatmulBenchmark
from repro.apps.nbody import NbodyBenchmark
from repro.apps.pingpong import PingpongBenchmark
from repro.apps.registry import (
    all_benchmark_names,
    distributed_benchmark_names,
    shared_memory_benchmark_names,
)
from repro.core.engine import ReplicationDecisions, decide_for_graph
from repro.core.estimator import ArgumentSizeEstimator, estimate_total_fits
from repro.core.heuristic import AppFit
from repro.core.knapsack import KnapsackOracle
from repro.core.policies import (
    CompleteReplication,
    RandomReplication,
    TopFitReplication,
)
from repro.core.vectorized import decide_for_compiled, decide_for_graph_fast
from repro.faults.model import FailureModel
from repro.faults.rates import FitRateSpec
from repro.runtime.compiled import CompiledGraph
from repro.runtime.graph import TaskGraph
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import SimGraphCache, simulate_compiled, simulate_compiled_batch
from repro.simulator.machine import MachineSpec, marenostrum_cluster, shared_memory_node
from repro.util.tables import TextTable

#: Alias used throughout: every experiment row is a flat dict.
ExperimentRow = Dict[str, object]


# ---------------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------------


def _engine(
    engine: Optional[ExperimentEngine],
    parallelism: Optional[int],
    fast: Optional[bool],
) -> ExperimentEngine:
    """The engine a driver uses: an explicit one, or one built from the knobs."""
    if engine is not None:
        return engine
    return ExperimentEngine(parallelism=parallelism, fast=fast)


def _machine_for(benchmark: Benchmark, cores_per_node: int = 16) -> MachineSpec:
    """The machine a benchmark is evaluated on (1 node shared / 64-node cluster)."""
    if benchmark.distributed:
        n_nodes = getattr(benchmark, "n_nodes", 64)
        return marenostrum_cluster(n_nodes=n_nodes, cores_per_node=cores_per_node)
    return shared_memory_node(cores=cores_per_node)


def _replica_seeds(base_seed: int, n_seeds: int) -> List[int]:
    """The fault seeds a cell replays: its own seed plus derived replicas.

    Replica seeds come from :func:`~repro.analysis.runner.derive_seed`, so they
    are stable across processes and independent of how cells are scheduled.
    """
    return [base_seed] + [derive_seed(base_seed, "replica", j) for j in range(1, n_seeds)]


def _sim_inputs(
    spec: ExperimentSpec, n_nodes: Optional[int] = None
) -> Tuple[Optional[SimGraphCache], Optional[TaskGraph]]:
    """``(cache, graph)`` of a cell; exactly one of the two is set.

    The fast path gets the compiled replay cache (no task objects are built
    when the compiled-graph store is warm); the reference path gets the
    object graph the oracle walks.
    """
    if spec.fast:
        return compiled_sim_cache(spec.benchmark, spec.scale, n_nodes), None
    return None, benchmark_graph(spec.benchmark, spec.scale, n_nodes)


def _seed_makespans(cache, graph, machine, config, seeds) -> List[float]:
    """Per-seed makespans of one cell simulation, one entry per fault seed.

    A compiled ``cache`` replays every seed as one batch over the shared
    replay arrays (:func:`simulate_compiled_batch`); a ``graph`` loops the
    oracle.  Both run seed ``s`` with ``replace(config, seed=s)``, so lane
    ``j`` is bit-identical to the corresponding single-seed run.
    """
    if cache is not None:
        sims = simulate_compiled_batch(cache, machine, config, seeds=seeds)
    else:
        sims = [simulate_graph(graph, machine, replace(config, seed=s)) for s in seeds]
    return [sim.makespan_s for sim in sims]


def _mean(values: Sequence[float]) -> float:
    """Arithmetic mean; exact pass-through for a single value (0 + x == x)."""
    return sum(values) / len(values)


def _appfit_threshold(graph: TaskGraph, rate_spec: FitRateSpec) -> float:
    """The benchmark's current (1x) FIT — the Figure 3 threshold.

    Per DESIGN.md this is the unprotected application FIT the runtime's own
    bookkeeping reports at today's error rates; dividing the exascale rates by
    the multiplier (the paper's framing) is numerically identical.
    """
    return FailureModel(rate_spec.at_todays_rates()).graph_total_fit(graph)


def _appfit_threshold_vectorized(graph: TaskGraph, rate_spec: FitRateSpec) -> float:
    """:func:`_appfit_threshold` with the per-task estimation batched.

    Sums in the same order as the scalar loop, so both return the same float.
    """
    model = FailureModel(rate_spec.at_todays_rates())
    return sum(model.graph_fit_array(graph).tolist())


def _appfit_threshold_compiled(compiled: CompiledGraph, rate_spec: FitRateSpec) -> float:
    """:func:`_appfit_threshold` over a compiled graph's argument-byte array.

    Same per-byte rates, same array arithmetic and the same left-to-right
    float summation as the fast path over descriptors, so all three spellings
    return the identical float.
    """
    model = FailureModel(rate_spec.at_todays_rates())
    return sum(model.fit_array_for_bytes(compiled.arg_bytes).tolist())


def _distributed_benchmark(name: str, n_nodes: int, scale: float) -> Benchmark:
    """Build a distributed benchmark for a specific node count (Figure 6)."""
    if name == "nbody":
        return NbodyBenchmark(
            n_bodies=65536, n_nodes=n_nodes, timesteps=max(1, int(round(4 * scale)))
        )
    if name == "matmul":
        return MatmulBenchmark(
            iterations=max(1, int(round(35 * scale))), n_nodes=n_nodes
        )
    if name == "pingpong":
        return PingpongBenchmark(
            n_nodes=n_nodes, iterations=max(2, int(round(200 * scale)))
        )
    if name == "linpack":
        import math

        p = int(math.sqrt(n_nodes))
        while p > 1 and n_nodes % p:
            p -= 1
        n_panels = max(8, int(round(512 * scale)))
        return LinpackBenchmark(
            matrix_size=n_panels * 256, block_size=256, grid_rows=p, grid_cols=n_nodes // p
        )
    raise KeyError(f"{name!r} is not a distributed benchmark")


class _AppFitPricing(NamedTuple):
    """App_FIT on one cell: what every policy of the cell is measured against."""

    #: The benchmark's current (1x) FIT, see :func:`_appfit_threshold`.
    threshold: float
    #: The estimator at the cell's scaled (exascale) rates.
    estimator: ArgumentSizeEstimator
    #: App_FIT's decisions, or ``None`` when the cell did not ask for them.
    decisions: Optional[ReplicationDecisions]
    #: ``replicated_ids -> summed FIT of the other tasks`` at the scaled rates.
    unprotected_fit: Callable[[Set[int]], float]


def _unprotected_pricer(
    task_fits: Callable[[], Tuple[Sequence[int], Sequence[float]]]
) -> Callable[[Set[int]], float]:
    """``replicated_ids -> unprotected FIT``, summed left to right in task order.

    ``task_fits()`` yields the task ids and their FITs; it runs on the first
    pricing only, so cells that never price pay nothing.
    """
    memo: List[Tuple[Sequence[int], Sequence[float]]] = []

    def unprotected_fit(replicated_ids: Set[int]) -> float:
        if not memo:
            memo.append(task_fits())
        task_ids, fits = memo[0]
        return sum(fit for tid, fit in zip(task_ids, fits) if tid not in replicated_ids)

    return unprotected_fit


def _appfit(
    spec: ExperimentSpec, graph: Optional[TaskGraph] = None, decide: bool = True
) -> _AppFitPricing:
    """App_FIT on one cell: threshold, decisions (if ``decide``) and pricer.

    The rates come from the spec's ``rate_spec``, ``multiplier`` and
    ``residual_fit_factor`` parameters.  This is the only place a policy cell
    picks a spelling; all three give bit-identical results:

    * the reference path runs the scalar :class:`AppFit` over the object graph;
    * a fast cell that passes the object ``graph`` (it holds it for the
      baselines and does not simulate) uses the vectorized descriptors, so
      it never maps the compiled arrays on top of the graph;
    * any other fast cell uses the compiled arrays.
    """
    rate_spec: FitRateSpec = spec.param("rate_spec") or FitRateSpec()
    scaled_spec = rate_spec.scaled(spec.param("multiplier"))
    estimator = ArgumentSizeEstimator(scaled_spec)
    residual: float = spec.param("residual_fit_factor", 0.0)
    decisions = None
    if not spec.fast:
        graph = benchmark_graph(spec.benchmark, spec.scale)
        threshold = _appfit_threshold(graph, rate_spec)
        if decide:
            policy = AppFit(threshold, len(graph), estimator, residual_fit_factor=residual)
            decisions = decide_for_graph(graph, policy)
            decisions.audit = policy.audit()
        model = FailureModel(scaled_spec)

        def task_fits():
            tasks = graph.tasks()
            return [t.task_id for t in tasks], [model.task_total_fit(t) for t in tasks]

    elif graph is not None:
        threshold = _appfit_threshold_vectorized(graph, rate_spec)
        if decide:
            decisions = decide_for_graph_fast(
                graph, threshold, estimator, residual_fit_factor=residual
            )

        def task_fits():
            tasks = graph.tasks()
            return [t.task_id for t in tasks], estimate_total_fits(estimator, tasks).tolist()

    else:
        compiled = compiled_sim_cache(spec.benchmark, spec.scale).compiled
        threshold = _appfit_threshold_compiled(compiled, rate_spec)
        if decide:
            decisions = decide_for_compiled(
                compiled, threshold, estimator, residual_fit_factor=residual
            )

        def task_fits():
            from repro.core.vectorized import compiled_total_fits

            return compiled.task_ids.tolist(), compiled_total_fits(estimator, compiled).tolist()

    return _AppFitPricing(threshold, estimator, decisions, _unprotected_pricer(task_fits))


# ---------------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------------


@dataclass
class Table1Result:
    """Reproduction of Table I: the benchmark inventory."""

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text Table I."""
        table = TextTable(
            ["benchmark", "description", "problem", "block", "group", "tasks", "input MiB"],
            title="Table I — task-parallel benchmarks",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                row["description"],
                row["problem"],
                row["block"],
                "distributed" if row["distributed"] else "shared-memory",
                row["n_tasks"],
                row["input_mib"],
            )
        return table.render()


@cell_kind("table1_row")
def _table1_row(spec: ExperimentSpec) -> ExperimentRow:
    """One Table I row: the benchmark's inventory facts.

    On the fast path the task count comes from the compiled-graph cache, so a
    warm cache regenerates Table I without building a single task graph; the
    reference path builds the graph and counts it, as before.
    """
    cache, graph = _sim_inputs(spec)
    n_tasks = cache.n if cache is not None else len(graph)
    info = benchmark_instance(spec.benchmark, spec.scale).info(n_tasks=n_tasks)
    return {
        "benchmark": info.name,
        "description": info.description,
        "problem": info.problem,
        "block": info.block,
        "distributed": info.distributed,
        "n_tasks": info.n_tasks,
        "input_mib": info.input_mib,
    }


def table1_benchmark_inventory(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> Table1Result:
    """Regenerate Table I (benchmark descriptions, sizes, blocks, task counts)."""
    names = list(benchmarks) if benchmarks is not None else all_benchmark_names()
    eng = _engine(engine, parallelism, fast)
    specs = [make_spec("table1_row", name, scale, fast=eng.fast) for name in names]
    return Table1Result(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Figure 3 — App_FIT selective replication
# ---------------------------------------------------------------------------------


@dataclass
class Figure3Result:
    """Reproduction of Figure 3: App_FIT replication percentages."""

    multipliers: Tuple[float, ...]
    rows: List[ExperimentRow] = field(default_factory=list)
    averages: Dict[float, Dict[str, float]] = field(default_factory=dict)

    def rows_for(self, multiplier: float) -> List[ExperimentRow]:
        """Rows of one error-rate multiplier."""
        return [r for r in self.rows if r["multiplier"] == multiplier]

    def render(self) -> str:
        """Plain-text Figure 3 (per-benchmark replication percentages)."""
        table = TextTable(
            [
                "benchmark",
                "rate",
                "% tasks replicated",
                "% computation time replicated",
                "threshold (FIT)",
                "achieved (FIT)",
                "threshold respected",
            ],
            title="Figure 3 — App_FIT selective replication",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                f"{row['multiplier']:.0f}x",
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["threshold_fit"],
                row["achieved_fit"],
                row["threshold_respected"],
            )
        lines = [table.render(), ""]
        for mult, avg in self.averages.items():
            lines.append(
                f"average @ {mult:.0f}x rates: "
                f"{100.0 * avg['task_fraction']:.1f}% of tasks replicated, "
                f"{100.0 * avg['time_fraction']:.1f}% of computation time replicated"
            )
        return "\n".join(lines)


@cell_kind("fig3_cell")
def _fig3_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One Figure 3 cell: App_FIT on one benchmark at one rate multiplier.

    The fast path works entirely from the compiled graph (threshold and
    decisions from the stored byte/duration arrays); the reference path walks
    the task descriptors.  Both produce bit-identical rows.
    """
    appfit = _appfit(spec)
    decisions = appfit.decisions
    audit = decisions.audit
    return {
        "benchmark": spec.benchmark,
        "multiplier": spec.param("multiplier"),
        "n_tasks": decisions.total_tasks,
        "task_fraction": decisions.task_fraction,
        "time_fraction": decisions.time_fraction,
        "threshold_fit": appfit.threshold,
        "achieved_fit": audit.current_fit,
        "threshold_respected": audit.threshold_respected,
        "envelope_respected": audit.envelope_respected,
    }


def figure3_appfit(
    scale: float = 1.0,
    multipliers: Sequence[float] = (10.0, 5.0),
    rate_spec: Optional[FitRateSpec] = None,
    residual_fit_factor: float = 0.0,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> Figure3Result:
    """Run App_FIT on every benchmark at the given exascale rate multipliers.

    The threshold of each benchmark is its current (1x) FIT, so the heuristic
    must absorb the rate increase — the paper's Figure 3 scenario.
    """
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    names = list(benchmarks) if benchmarks is not None else all_benchmark_names()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "fig3_cell",
            name,
            scale,
            fast=eng.fast,
            multiplier=mult,
            rate_spec=spec,
            residual_fit_factor=residual_fit_factor,
        )
        for name in names
        for mult in multipliers
    ]
    result = Figure3Result(multipliers=tuple(multipliers), rows=eng.map(specs))
    for mult in multipliers:
        rows = result.rows_for(mult)
        if rows:
            result.averages[mult] = {
                "task_fraction": sum(r["task_fraction"] for r in rows) / len(rows),
                "time_fraction": sum(r["time_fraction"] for r in rows) / len(rows),
            }
        else:
            result.averages[mult] = {"task_fraction": 0.0, "time_fraction": 0.0}
    return result


# ---------------------------------------------------------------------------------
# Figure 4 — task replication overheads
# ---------------------------------------------------------------------------------


@dataclass
class Figure4Result:
    """Reproduction of Figure 4: fault-free overhead of complete replication."""

    rows: List[ExperimentRow] = field(default_factory=list)

    @property
    def average_overhead_percent(self) -> float:
        """Unweighted average overhead across benchmarks."""
        if not self.rows:
            return 0.0
        return sum(r["overhead_percent"] for r in self.rows) / len(self.rows)

    def render(self) -> str:
        """Plain-text Figure 4."""
        table = TextTable(
            ["benchmark", "baseline makespan (s)", "replicated makespan (s)", "overhead %"],
            title="Figure 4 — complete task replication overheads (fault-free)",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                row["baseline_makespan_s"],
                row["replicated_makespan_s"],
                row["overhead_percent"],
            )
        return table.render() + f"\n\naverage overhead: {self.average_overhead_percent:.2f}%"


@cell_kind("fig4_row")
def _fig4_row(spec: ExperimentSpec) -> ExperimentRow:
    """One Figure 4 row: simulate one benchmark bare and fully replicated.

    The fast path replays the compiled graph (no task objects are built when
    the compiled-graph cache is warm); the reference path simulates the real
    graph with the readable event loop.
    """
    cores_per_node: int = spec.param("cores_per_node", 16)
    bench = benchmark_instance(spec.benchmark, spec.scale)
    machine = _machine_for(bench, cores_per_node)
    cache, graph = _sim_inputs(spec)
    if cache is not None:
        baseline = simulate_compiled(
            cache, machine, SimulationConfig(collect_records=False)
        )
        replicated = simulate_compiled(
            cache,
            machine,
            SimulationConfig(replicate_all=True, collect_records=False),
        )
    else:
        baseline = simulate_graph(graph, machine, SimulationConfig())
        replicated = simulate_graph(graph, machine, SimulationConfig(replicate_all=True))
    return {
        "benchmark": spec.benchmark,
        "baseline_makespan_s": baseline.makespan_s,
        "replicated_makespan_s": replicated.makespan_s,
        "overhead_percent": 100.0 * replicated.overhead_vs(baseline),
    }


def figure4_overheads(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    cores_per_node: int = 16,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> Figure4Result:
    """Fault-free makespan overhead of complete replication vs no replication."""
    names = list(benchmarks) if benchmarks is not None else all_benchmark_names()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec("fig4_row", name, scale, fast=eng.fast, cores_per_node=cores_per_node)
        for name in names
    ]
    return Figure4Result(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Figures 5 & 6 — scalability of complete replication
# ---------------------------------------------------------------------------------


@dataclass
class ScalabilityResult:
    """Speedup curves of complete replication under fixed per-task fault rates."""

    title: str
    x_label: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def curve(self, benchmark: str, fault_rate: float) -> List[ExperimentRow]:
        """The rows of one benchmark/fault-rate curve, ordered by x."""
        rows = [
            r for r in self.rows if r["benchmark"] == benchmark and r["fault_rate"] == fault_rate
        ]
        return sorted(rows, key=lambda r: r["x"])

    def render(self) -> str:
        """Plain-text speedup table (one row per benchmark/fault-rate/point)."""
        table = TextTable(
            ["benchmark", "fault rate", self.x_label, "makespan (s)", "speedup"],
            title=self.title,
        )
        for row in sorted(self.rows, key=lambda r: (r["benchmark"], r["fault_rate"], r["x"])):
            table.add_row(
                row["benchmark"],
                row["fault_rate"],
                row["x"],
                row["makespan_s"],
                row["speedup"],
            )
        return table.render()


def _speedup_rows(
    benchmark: str, fault_rate: float, x_points: Sequence[int], makespans: Sequence[float]
) -> List[ExperimentRow]:
    """Rows of one speedup curve, referenced to its first point."""
    ref = makespans[0]
    return [
        {
            "benchmark": benchmark,
            "fault_rate": fault_rate,
            "x": x,
            "makespan_s": makespan,
            "speedup": ref / makespan if makespan > 0 else 0.0,
        }
        for x, makespan in zip(x_points, makespans)
    ]


@cell_kind("fig5_curve")
def _fig5_curve(spec: ExperimentSpec) -> List[ExperimentRow]:
    """One Figure 5 curve: a core-count sweep at one fixed fault rate."""
    fault_rate: float = spec.param("fault_rate")
    core_counts: Sequence[int] = spec.param("core_counts")
    seeds = _replica_seeds(spec.seed, spec.param("n_seeds", 1))
    cache, graph = _sim_inputs(spec)
    makespans: List[float] = []
    for cores in core_counts:
        machine = shared_memory_node(cores=cores)
        config = SimulationConfig(
            replicate_all=True,
            crash_probability=fault_rate,
            seed=spec.seed,
            collect_records=not spec.fast,
        )
        makespans.append(_mean(_seed_makespans(cache, graph, machine, config, seeds)))
    return _speedup_rows(spec.benchmark, fault_rate, list(core_counts), makespans)


def figure5_scalability_shared(
    scale: float = 1.0,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    fault_rates: Sequence[float] = (0.0, 0.01, 0.05),
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_seeds: int = 1,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> ScalabilityResult:
    """Speedup over 1 core of complete replication for the shared-memory group.

    ``n_seeds > 1`` averages each makespan over that many fault seeds (the
    cell's own seed plus derived replicas); the fast path replays them as one
    batch.  The default of 1 reproduces the single-seed tables exactly.
    """
    names = (
        list(benchmarks) if benchmarks is not None else shared_memory_benchmark_names()
    )
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "fig5_curve",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            core_counts=tuple(core_counts),
            fault_rate=rate,
            n_seeds=n_seeds,
        )
        for name in names
        for rate in fault_rates
    ]
    result = ScalabilityResult(
        title="Figure 5 — complete replication scalability (shared memory)",
        x_label="cores",
    )
    for rows in eng.map(specs):
        result.rows.extend(rows)
    return result


@cell_kind("fig6_curve")
def _fig6_curve(spec: ExperimentSpec) -> List[ExperimentRow]:
    """One Figure 6 curve: a node-count sweep at one fixed fault rate."""
    fault_rate: float = spec.param("fault_rate")
    node_counts: Sequence[int] = spec.param("node_counts")
    cores_per_node: int = spec.param("cores_per_node", 16)
    seeds = _replica_seeds(spec.seed, spec.param("n_seeds", 1))
    makespans: List[float] = []
    core_points: List[int] = []
    for n_nodes in node_counts:
        machine = marenostrum_cluster(n_nodes=n_nodes, cores_per_node=cores_per_node)
        config = SimulationConfig(
            replicate_all=True,
            crash_probability=fault_rate,
            seed=spec.seed,
            collect_records=not spec.fast,
        )
        cache, graph = _sim_inputs(spec, n_nodes)
        makespans.append(_mean(_seed_makespans(cache, graph, machine, config, seeds)))
        core_points.append(n_nodes * cores_per_node)
    return _speedup_rows(spec.benchmark, fault_rate, core_points, makespans)


def figure6_scalability_distributed(
    scale: float = 1.0,
    node_counts: Sequence[int] = (4, 16, 64),
    cores_per_node: int = 16,
    fault_rates: Sequence[float] = (0.0, 0.01, 0.05),
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_seeds: int = 1,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> ScalabilityResult:
    """Speedup over the smallest configuration (64 cores in the paper) for the
    distributed group, with complete replication and fixed per-task fault rates.

    ``n_seeds > 1`` averages each makespan over that many fault seeds, batched
    on the fast path; the default of 1 reproduces the single-seed tables."""
    names = (
        list(benchmarks) if benchmarks is not None else distributed_benchmark_names()
    )
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "fig6_curve",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            node_counts=tuple(node_counts),
            cores_per_node=cores_per_node,
            fault_rate=rate,
            n_seeds=n_seeds,
        )
        for name in names
        for rate in fault_rates
    ]
    result = ScalabilityResult(
        title="Figure 6 — complete replication scalability (distributed)",
        x_label="cores",
    )
    for rows in eng.map(specs):
        result.rows.extend(rows)
    return result


# ---------------------------------------------------------------------------------
# Ablations (beyond the paper)
# ---------------------------------------------------------------------------------


@dataclass
class AblationPoliciesResult:
    """App_FIT versus offline/naive selection policies at the same threshold."""

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text policy comparison."""
        table = TextTable(
            [
                "benchmark",
                "policy",
                "% tasks replicated",
                "% time replicated",
                "unprotected FIT",
                "meets threshold",
            ],
            title="Ablation — selection policies at the 10x exascale threshold",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                row["policy"],
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["unprotected_fit"],
                row["meets_threshold"],
            )
        return table.render()


def _policy_decision(graph, policy_name, threshold, estimator, appfit_dec, seed):
    """(replicated_ids, task_fraction, time_fraction) of one named policy.

    The single dispatch shared by the policies ablation and ``repro sweep``:
    the budget-bounded baselines (``top_fit``, ``random``) reuse App_FIT's
    replica budget (``appfit_dec.task_fraction``), so comparisons isolate
    *selection quality* from budget size.  ``appfit_dec`` may be ``None`` for
    the policies that never consult it (``knapsack_oracle``, ``complete``).
    """
    if policy_name == "app_fit":
        return appfit_dec.replicated_ids, appfit_dec.task_fraction, appfit_dec.time_fraction
    if policy_name == "knapsack_oracle":
        solution = KnapsackOracle(threshold, estimator).solve(graph.tasks())
        return (
            solution.replicate_ids,
            solution.replication_task_fraction,
            solution.replication_time_fraction,
        )
    if policy_name == "top_fit":
        decided = decide_for_graph(
            graph, TopFitReplication(appfit_dec.task_fraction, estimator)
        )
    elif policy_name == "random":
        from repro.util.rng import RngStream

        decided = decide_for_graph(
            graph,
            RandomReplication(appfit_dec.task_fraction, rng=RngStream(seed)),
        )
    elif policy_name == "complete":
        decided = decide_for_graph(graph, CompleteReplication())
    else:
        raise KeyError(f"unknown sweep policy {policy_name!r}; known: {SWEEP_POLICIES}")
    return decided.replicated_ids, decided.task_fraction, decided.time_fraction


def _select(
    spec: ExperimentSpec, policies: Sequence[str], simulates: bool = False
) -> List[Tuple[Set[int], ExperimentRow]]:
    """One ``(replicated_ids, selection row)`` per policy, in ``policies`` order.

    The row holds the policy's task and time fractions, the FIT it leaves
    unprotected and whether that meets App_FIT's threshold.  The baselines
    walk the object graph; App_FIT and the pricing come from :func:`_appfit`.
    A fast cell that ``simulates`` holds the compiled arrays anyway, so App_FIT
    prices on them even when the baselines need the object graph.
    """
    graph = None
    if any(p != "app_fit" for p in policies):
        graph = benchmark_graph(spec.benchmark, spec.scale)
    appfit = _appfit(
        spec,
        None if simulates else graph,
        # complete/knapsack_oracle never consult the App_FIT decision.
        decide=any(p in ("app_fit", "top_fit", "random") for p in policies),
    )
    threshold = appfit.threshold
    selections: List[Tuple[Set[int], ExperimentRow]] = []
    for policy_name in policies:
        replicated_ids, task_fraction, time_fraction = _policy_decision(
            graph, policy_name, threshold, appfit.estimator, appfit.decisions, spec.seed
        )
        unprotected = appfit.unprotected_fit(replicated_ids)
        selections.append(
            (
                replicated_ids,
                {
                    "task_fraction": task_fraction,
                    "time_fraction": time_fraction,
                    "unprotected_fit": unprotected,
                    "threshold": threshold,
                    "meets_threshold": unprotected <= threshold * (1 + 1e-9),
                },
            )
        )
    return selections


@cell_kind("ablation_policies_cell")
def _ablation_policies_cell(spec: ExperimentSpec) -> List[ExperimentRow]:
    """All five selection policies on one benchmark (one cached cell).

    The policies share the App_FIT decision (its task fraction is the replica
    budget of the FIT-oblivious baselines) and the per-task FIT estimates, so
    the whole benchmark is one cell rather than five.
    """
    policies = ("app_fit", "knapsack_oracle", "random", "top_fit", "complete")
    return [
        {"benchmark": spec.benchmark, "policy": policy_name, **row}
        for policy_name, (_, row) in zip(policies, _select(spec, policies))
    ]


def ablation_policies(
    scale: float = 1.0,
    multiplier: float = 10.0,
    benchmarks: Sequence[str] = ("cholesky", "stream", "linpack"),
    rate_spec: Optional[FitRateSpec] = None,
    seed: int = 13,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> AblationPoliciesResult:
    """Compare App_FIT with the knapsack oracle and FIT-oblivious baselines."""
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "ablation_policies_cell",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            multiplier=multiplier,
            rate_spec=spec,
        )
        for name in benchmarks
    ]
    result = AblationPoliciesResult()
    for rows in eng.map(specs):
        result.rows.extend(rows)
    return result


@dataclass
class RateSweepResult:
    """Replication demanded by App_FIT as error rates grow."""

    benchmark: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text rate sweep."""
        table = TextTable(
            ["rate multiplier", "residual FIT factor", "% tasks replicated", "% time replicated"],
            title=f"Ablation — error-rate sweep ({self.benchmark})",
        )
        for row in self.rows:
            table.add_row(
                row["multiplier"],
                row["residual_fit_factor"],
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
            )
        return table.render()


@cell_kind("rate_sweep_cell")
def _rate_sweep_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One rate-sweep cell: App_FIT demand at one (multiplier, residual) point."""
    decisions = _appfit(spec).decisions
    return {
        "multiplier": spec.param("multiplier"),
        "residual_fit_factor": spec.param("residual_fit_factor", 0.0),
        "task_fraction": decisions.task_fraction,
        "time_fraction": decisions.time_fraction,
    }


def ablation_rate_sweep(
    benchmark: str = "cholesky",
    scale: float = 1.0,
    multipliers: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 20.0),
    residual_factors: Sequence[float] = (0.0, 0.1),
    rate_spec: Optional[FitRateSpec] = None,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> RateSweepResult:
    """Sweep the error-rate multiplier (and residual model) for one benchmark."""
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "rate_sweep_cell",
            benchmark,
            scale,
            fast=eng.fast,
            multiplier=mult,
            residual_fit_factor=residual,
            rate_spec=spec,
        )
        for residual in residual_factors
        for mult in multipliers
    ]
    return RateSweepResult(benchmark=benchmark, rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Arbitrary benchmark x policy x rate sweeps (the `repro sweep` command)
# ---------------------------------------------------------------------------------

#: Replication-selection policies `repro sweep` can grid over.
SWEEP_POLICIES: Tuple[str, ...] = (
    "app_fit",
    "knapsack_oracle",
    "top_fit",
    "random",
    "complete",
)


@dataclass
class SweepResult:
    """An arbitrary benchmark x policy x rate-multiplier grid."""

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text sweep table (one row per benchmark/policy/multiplier)."""
        table = TextTable(
            [
                "benchmark",
                "policy",
                "rate",
                "% tasks replicated",
                "% time replicated",
                "unprotected FIT",
                "meets threshold",
            ],
            title="Sweep — replication policies across benchmarks and error rates",
        )
        for row in sorted(
            self.rows, key=lambda r: (r["benchmark"], r["policy"], r["multiplier"])
        ):
            table.add_row(
                row["benchmark"],
                row["policy"],
                f"{row['multiplier']:g}x",
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["unprotected_fit"],
                row["meets_threshold"],
            )
        return table.render()


@cell_kind("policy_cell")
def _policy_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One sweep cell: a named policy on one benchmark at one rate multiplier.

    The budget-bounded baselines (``top_fit``, ``random``) reuse App_FIT's
    replica budget, so the comparison isolates *selection quality* from
    budget size — the same framing as the policies ablation.
    """
    policy_name: str = spec.param("policy")
    [(_, row)] = _select(spec, (policy_name,))
    return {
        "benchmark": spec.benchmark,
        "policy": policy_name,
        "multiplier": spec.param("multiplier"),
        **row,
    }


def sweep_policies(
    benchmarks: Sequence[str],
    policies: Sequence[str] = ("app_fit",),
    multipliers: Sequence[float] = (10.0,),
    scale: float = 1.0,
    seed: int = 13,
    rate_spec: Optional[FitRateSpec] = None,
    residual_fit_factor: float = 0.0,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> SweepResult:
    """Run an arbitrary benchmark x policy x rate grid on the engine.

    Each (benchmark, policy, multiplier) combination is one independent
    cached cell, so repeated sweeps over overlapping grids recompute only
    the new combinations.
    """
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    for policy in policies:
        if policy not in SWEEP_POLICIES:
            raise KeyError(f"unknown sweep policy {policy!r}; known: {SWEEP_POLICIES}")
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "policy_cell",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            policy=policy,
            multiplier=mult,
            rate_spec=spec,
            residual_fit_factor=residual_fit_factor,
        )
        for name in benchmarks
        for policy in policies
        for mult in multipliers
    ]
    return SweepResult(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Synthetic-workload sweeps (the `repro sweep --workload` command)
# ---------------------------------------------------------------------------------


@dataclass
class WorkloadSweepResult:
    """A workload x policy x rate-multiplier x fault-rate grid.

    Unlike the Table I sweep, every workload cell also *simulates* the chosen
    replication set, so the rows pair the selection-quality numbers
    (fractions, unprotected FIT) with their runtime cost (makespan overhead
    versus the unreplicated baseline at the same fault rate).
    """

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text workload sweep table."""
        table = TextTable(
            [
                "workload",
                "policy",
                "rate",
                "fault rate",
                "tasks",
                "% tasks repl",
                "% time repl",
                "unprotected FIT",
                "meets threshold",
                "baseline (s)",
                "selective (s)",
                "overhead %",
            ],
            title="Sweep — replication policies on synthetic workloads",
        )
        for row in sorted(
            self.rows,
            key=lambda r: (r["workload"], r["policy"], r["multiplier"], r["fault_rate"]),
        ):
            table.add_row(
                row["workload"],
                row["policy"],
                f"{row['multiplier']:g}x",
                row["fault_rate"],
                row["n_tasks"],
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["unprotected_fit"],
                row["meets_threshold"],
                row["baseline_makespan_s"],
                row["selective_makespan_s"],
                row["overhead_percent"],
            )
        return table.render()


@cell_kind("workload_cell")
def _workload_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One workload sweep cell: selection + simulation on a synthetic graph.

    ``spec.benchmark`` carries the *canonical* workload spec string (see
    :mod:`repro.workloads.spec`), so the results-store hash and the
    compiled-graph content address both cover the full workload identity —
    family, every parameter, seed, and (for traces) the file digest.

    The fast path keeps App_FIT and the simulation entirely on the compiled
    arrays; the baseline policies walk real descriptors for their decisions,
    like :func:`_policy_cell`.  Fast and reference rows are bit-identical.
    """
    policy_name: str = spec.param("policy")
    fault_rate: float = spec.param("fault_rate", 0.0)
    machine = shared_memory_node(cores=spec.param("cores", 16))
    seeds = _replica_seeds(spec.seed, spec.param("n_seeds", 1))

    cache, graph = _sim_inputs(spec)
    [(replicated_ids, row)] = _select(spec, (policy_name,), simulates=True)
    config = SimulationConfig(
        crash_probability=fault_rate, seed=spec.seed, collect_records=not spec.fast
    )
    baseline_s = _mean(_seed_makespans(cache, graph, machine, config, seeds))
    selective_s = _mean(
        _seed_makespans(
            cache, graph, machine, replace(config, replicated_ids=replicated_ids), seeds
        )
    )
    overhead = (selective_s - baseline_s) / baseline_s if baseline_s > 0 else 0.0
    return {
        "workload": spec.benchmark,
        "policy": policy_name,
        "multiplier": spec.param("multiplier"),
        "fault_rate": fault_rate,
        "n_tasks": cache.n if cache is not None else len(graph),
        **row,
        "baseline_makespan_s": baseline_s,
        "selective_makespan_s": selective_s,
        "overhead_percent": 100.0 * overhead,
    }


def workload_sweep(
    workloads: Sequence[str],
    policies: Sequence[str] = ("app_fit",),
    multipliers: Sequence[float] = (10.0, 5.0),
    fault_rates: Sequence[float] = (0.0, 0.01),
    scale: float = 1.0,
    seed: int = 0,
    n_seeds: int = 1,
    rate_spec: Optional[FitRateSpec] = None,
    residual_fit_factor: float = 0.0,
    cores: int = 16,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> WorkloadSweepResult:
    """Sweep replication policies x error rates x fault rates over workloads.

    ``workloads`` are spec strings (``layered:depth=12,width=8,seed=7``; see
    :mod:`repro.workloads.spec` for the grammar) and are canonicalised here,
    so differently spelled but identical specs share cells — each (workload,
    policy, multiplier, fault rate) combination is one independently cached
    cell, exactly like the Table I sweep.
    """
    from repro.workloads.spec import parse_workload

    spec = rate_spec if rate_spec is not None else FitRateSpec()
    for policy in policies:
        if policy not in SWEEP_POLICIES:
            raise KeyError(f"unknown sweep policy {policy!r}; known: {SWEEP_POLICIES}")
    canonical = [parse_workload(w).canonical for w in workloads]
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "workload_cell",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            policy=policy,
            multiplier=mult,
            fault_rate=rate,
            rate_spec=spec,
            residual_fit_factor=residual_fit_factor,
            cores=cores,
            n_seeds=n_seeds,
        )
        for name in canonical
        for policy in policies
        for mult in multipliers
        for rate in fault_rates
    ]
    return WorkloadSweepResult(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Quickstart helper
# ---------------------------------------------------------------------------------


def appfit_single_benchmark(
    benchmark_name: str = "cholesky",
    multiplier: float = 10.0,
    scale: float = 0.25,
) -> str:
    """One-benchmark App_FIT summary used by the README quickstart."""
    fig3 = figure3_appfit(scale=scale, multipliers=(multiplier,), benchmarks=(benchmark_name,))
    row = fig3.rows[0]
    lines = [
        f"benchmark            : {row['benchmark']} (scale {scale})",
        f"error-rate multiplier: {multiplier:.0f}x",
        f"tasks                : {row['n_tasks']}",
        f"tasks replicated     : {100.0 * row['task_fraction']:.1f}%",
        f"time replicated      : {100.0 * row['time_fraction']:.1f}%",
        f"FIT threshold        : {row['threshold_fit']:.4f}",
        f"FIT achieved         : {row['achieved_fit']:.4f}",
        f"threshold respected  : {row['threshold_respected']}",
    ]
    return "\n".join(lines)
