"""The figure/table target registry: one named entry per reproducible artifact.

This is the single source of truth for *what* ``repro run <target>`` (and
``repro report``) regenerates and *how its text artifact is composed*: the
benchmark harness under ``benchmarks/`` renders its ``results/*.txt`` files
through the same ``*_recorded_text`` helpers, so the CLI, the nightly
benchmark run, and the committed goldens can never drift apart.

Each :class:`Target` builds its result through the (cache-aware)
:class:`~repro.analysis.runner.ExperimentEngine` it is handed, and returns a
:class:`TargetOutput` bundling the result object, the recorded text (the
exact ``benchmarks/results/<artifact>.txt`` content), and a flat list of row
dictionaries for the JSON/CSV artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentRow,
    Figure3Result,
    Figure4Result,
    RateSweepResult,
    WorkloadSweepResult,
    ablation_policies,
    ablation_rate_sweep,
    figure3_appfit,
    figure4_overheads,
    figure5_scalability_shared,
    figure6_scalability_distributed,
    sweep_policies,
    table1_benchmark_inventory,
    workload_sweep,
)
from repro.analysis.report import PAPER_REFERENCE
from repro.analysis.runner import ExperimentEngine
from repro.analysis.store import code_version

#: Scale floor for the Figure 5 curves: scalability needs enough parallelism
#: in the graph, so this figure never runs below half the Table I sizes (the
#: same rule the benchmark harness applies).
FIG5_MIN_SCALE: float = 0.5

#: Benchmarks of the two ablations (matching the benchmark harness).
ABLATION_POLICY_BENCHMARKS: Tuple[str, ...] = ("cholesky", "stream", "linpack")
ABLATION_RATE_BENCHMARKS: Tuple[str, ...] = ("cholesky", "stream", "matmul")


@dataclass
class TargetOutput:
    """Everything ``repro run`` emits for one target."""

    result: object
    text: str
    rows: List[ExperimentRow]
    #: Provenance corrections for the JSON artifact: the *effective* values
    #: when a builder deviates from the requested ones (fig5's scale floor,
    #: the ablation's pinned seed).
    meta: Dict[str, Any] = field(default_factory=dict)


#: A target builder: (scale, seed, engine, n_seeds=...) -> output.  Every
#: builder accepts ``n_seeds`` so the CLI can pass it uniformly; targets whose
#: cells never draw faults (table1, fig3, fig4, the ablations) ignore it.
TargetBuilder = Callable[..., TargetOutput]

#: Meta override for targets whose cells use no randomness: their JSON
#: provenance records ``"seed": null`` instead of echoing the (unused) CLI seed.
_SEEDLESS: Dict[str, Any] = {"seed": None}


@dataclass(frozen=True)
class Target:
    """One runnable figure/table: CLI name, artifact stem, and builder."""

    name: str
    artifact: str
    description: str
    build: TargetBuilder


# ---------------------------------------------------------------------------------
# recorded-text composition (shared with the benchmark harness)
# ---------------------------------------------------------------------------------


def fig3_recorded_text(result: Figure3Result) -> str:
    """The Figure 3 artifact text: the table plus the paper-reference footer."""
    avg10 = result.averages.get(10.0, {"task_fraction": 0.0, "time_fraction": 0.0})
    avg5 = result.averages.get(5.0, {"task_fraction": 0.0, "time_fraction": 0.0})
    return result.render() + (
        "\n\npaper reference: "
        f"{PAPER_REFERENCE['fig3_task_percent_10x']:.0f}% tasks / "
        f"{PAPER_REFERENCE['fig3_time_percent_10x']:.0f}% time at 10x, "
        f"{PAPER_REFERENCE['fig3_task_percent_5x']:.0f}% tasks / "
        f"{PAPER_REFERENCE['fig3_time_percent_5x']:.0f}% time at 5x\n"
        f"measured       : {100 * avg10['task_fraction']:.1f}% tasks / "
        f"{100 * avg10['time_fraction']:.1f}% time at 10x, "
        f"{100 * avg5['task_fraction']:.1f}% tasks / "
        f"{100 * avg5['time_fraction']:.1f}% time at 5x"
    )


def fig4_recorded_text(result: Figure4Result) -> str:
    """The Figure 4 artifact text: the table plus the paper-reference footer."""
    return result.render() + (
        "\npaper reference: "
        f"{PAPER_REFERENCE['fig4_average_overhead_percent']:.1f}% average overhead"
    )


def rate_sweep_recorded_text(results: Sequence[RateSweepResult]) -> str:
    """The rate-sweep ablation artifact text: one table per benchmark."""
    return "\n\n".join(result.render() for result in results)


def workload_sweep_recorded_text(result: WorkloadSweepResult) -> str:
    """The ``repro sweep --workload`` artifact text: table + workload legend.

    The legend lists each canonical workload spec once so the (long) spec
    strings are greppable even when a consumer only keeps the footer.  Like
    every composer here, the output is a pure function of the rows — two cold
    runs in different processes emit byte-identical artifacts.
    """
    names = sorted({str(row["workload"]) for row in result.rows})
    legend = "\n".join(f"  {name}" for name in names)
    return result.render() + ("\n\nworkloads swept:\n" + legend if names else "")


def render_artifact_texts(output: TargetOutput, meta: Dict[str, Any]) -> Dict[str, str]:
    """The txt/json/csv artifact contents of one target output.

    Single source of truth for artifact bytes: ``repro run`` writes these
    strings to files and the sweep service serves them over HTTP, so a target
    computed locally and one drained through ``repro serve`` produce
    byte-identical artifacts.  ``meta`` must carry only deterministic
    provenance (scale, seed, code version — never timestamps or job ids).
    """
    import csv
    import io
    import json

    fieldnames: List[str] = []
    for row in output.rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in output.rows:
        writer.writerow(row)
    return {
        "txt": output.text + "\n",
        "json": json.dumps({**meta, "rows": output.rows}, indent=2) + "\n",
        "csv": buf.getvalue(),
    }


# ---------------------------------------------------------------------------------
# target builders
# ---------------------------------------------------------------------------------


def _build_table1(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Table I: the benchmark inventory."""
    result = table1_benchmark_inventory(scale=scale, engine=engine)
    return TargetOutput(
        result=result, text=result.render(), rows=list(result.rows), meta=_SEEDLESS
    )


def _build_fig3(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Figure 3: App_FIT replication percentages at 10x and 5x rates."""
    result = figure3_appfit(scale=scale, multipliers=(10.0, 5.0), engine=engine)
    return TargetOutput(
        result=result, text=fig3_recorded_text(result), rows=list(result.rows), meta=_SEEDLESS
    )


def _build_fig4(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Figure 4: fault-free overhead of complete replication."""
    result = figure4_overheads(scale=scale, engine=engine)
    return TargetOutput(
        result=result, text=fig4_recorded_text(result), rows=list(result.rows), meta=_SEEDLESS
    )


def _build_fig5(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Figure 5: shared-memory scalability (with the 0.5 scale floor)."""
    effective_scale = max(scale, FIG5_MIN_SCALE)
    result = figure5_scalability_shared(
        scale=effective_scale,
        core_counts=(1, 2, 4, 8, 16),
        fault_rates=(0.0, 0.01, 0.05),
        seed=seed,
        n_seeds=n_seeds,
        engine=engine,
    )
    return TargetOutput(
        result=result,
        text=result.render(),
        rows=list(result.rows),
        meta={"scale": effective_scale},
    )


def _build_fig6(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Figure 6: distributed scalability on the simulated cluster."""
    result = figure6_scalability_distributed(
        scale=scale,
        node_counts=(4, 16, 64),
        fault_rates=(0.0, 0.01),
        seed=seed,
        n_seeds=n_seeds,
        engine=engine,
    )
    return TargetOutput(result=result, text=result.render(), rows=list(result.rows))


def _build_ablation_policies(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Policies ablation: App_FIT vs oracle and naive baselines."""
    # The random-baseline seed (13) is part of the ablation's definition — the
    # committed golden depends on it — so the CLI seed is deliberately unused.
    result = ablation_policies(
        scale=scale, benchmarks=ABLATION_POLICY_BENCHMARKS, engine=engine
    )
    return TargetOutput(
        result=result, text=result.render(), rows=list(result.rows), meta={"seed": 13}
    )


def _build_ablation_rates(
    scale: float, seed: int, engine: ExperimentEngine, n_seeds: int = 1
) -> TargetOutput:
    """Rates ablation: App_FIT demand across multipliers, per benchmark."""
    results = [
        ablation_rate_sweep(
            bench,
            scale=scale,
            multipliers=(1.0, 2.0, 5.0, 10.0, 20.0),
            residual_factors=(0.0, 0.1),
            engine=engine,
        )
        for bench in ABLATION_RATE_BENCHMARKS
    ]
    rows = [
        {"benchmark": result.benchmark, **row} for result in results for row in result.rows
    ]
    return TargetOutput(
        result=results, text=rate_sweep_recorded_text(results), rows=rows, meta=_SEEDLESS
    )


#: All runnable targets, keyed by CLI name (``repro run <name>``).
TARGETS: Dict[str, Target] = {
    t.name: t
    for t in (
        Target(
            "table1",
            "table1_inventory",
            "Table I — benchmark inventory (sizes, blocks, task counts)",
            _build_table1,
        ),
        Target(
            "fig3",
            "fig3_appfit",
            "Figure 3 — App_FIT selective replication at 10x/5x exascale rates",
            _build_fig3,
        ),
        Target(
            "fig4",
            "fig4_overheads",
            "Figure 4 — fault-free overhead of complete replication",
            _build_fig4,
        ),
        Target(
            "fig5",
            "fig5_scalability_shared",
            "Figure 5 — shared-memory scalability under complete replication "
            f"(scale floor {FIG5_MIN_SCALE})",
            _build_fig5,
        ),
        Target(
            "fig6",
            "fig6_scalability_distributed",
            "Figure 6 — distributed scalability under complete replication",
            _build_fig6,
        ),
        Target(
            "ablation-policies",
            "ablation_policies",
            "Ablation — App_FIT vs knapsack oracle and naive baselines",
            _build_ablation_policies,
        ),
        Target(
            "ablation-rates",
            "ablation_rate_sweep",
            "Ablation — App_FIT sensitivity to the error-rate multiplier",
            _build_ablation_rates,
        ),
    )
}


def resolve_targets(names: Sequence[str]) -> List[Target]:
    """Expand CLI target names (including ``all``) into :class:`Target` objects."""
    if not names or list(names) == ["all"]:
        return list(TARGETS.values())
    targets: List[Target] = []
    for name in names:
        if name == "all":
            targets.extend(t for t in TARGETS.values() if t not in targets)
            continue
        target = TARGETS.get(name)
        if target is None:
            known = ", ".join(sorted(TARGETS))
            raise KeyError(f"unknown target {name!r}; known targets: {known}, all")
        if target not in targets:
            targets.append(target)
    return targets


# ---------------------------------------------------------------------------------
# request execution (the CLI, the service's drain and compose share this)
# ---------------------------------------------------------------------------------


def execute_request(
    request: Dict[str, Any], engine: ExperimentEngine
) -> Tuple[TargetOutput, Dict[str, Any]]:
    """Run a normalized request on an engine; return (output, artifact meta).

    This is the *only* place requests are turned into cell grids — ``repro
    run`` and ``repro sweep`` build a request and call it, service workers
    drain through it with a lease-aware engine, and the artifact endpoint
    re-runs it with a read-only engine over the warm store (zero computed
    cells by construction) — so there is no separately maintained grid
    enumeration or artifact metadata to drift out of sync.

    ``meta`` carries only deterministic provenance, never timestamps or job
    ids, so artifacts are byte-identical across submissions and workers.
    """
    meta: Dict[str, Any] = {
        "scale": request["scale"],
        "seed": request["seed"],
        "n_seeds": request["n_seeds"],
        "fast": engine.fast,
        "code_version": code_version(),
    }
    if request["type"] == "target":
        target = TARGETS[request["target"]]
        output = target.build(
            request["scale"], request["seed"], engine, n_seeds=request["n_seeds"]
        )
        return output, {**meta, "target": target.name, **output.meta}

    if request["type"] == "workload_sweep":
        result = workload_sweep(
            workloads=request["workloads"],
            policies=request["policies"],
            multipliers=request["multipliers"],
            fault_rates=request["fault_rates"],
            scale=request["scale"],
            seed=request["seed"],
            n_seeds=request["n_seeds"],
            residual_fit_factor=request["residual_fit_factor"],
            engine=engine,
        )
        output = TargetOutput(
            result=result,
            text=workload_sweep_recorded_text(result),
            rows=list(result.rows),
        )
        return output, {
            **meta,
            "target": "workload-sweep",
            "workloads": sorted({str(r["workload"]) for r in result.rows}),
            "policies": list(request["policies"]),
            "multipliers": list(request["multipliers"]),
            "fault_rates": list(request["fault_rates"]),
        }

    result = sweep_policies(
        benchmarks=request["benchmarks"],
        policies=request["policies"],
        multipliers=request["multipliers"],
        scale=request["scale"],
        seed=request["seed"],
        residual_fit_factor=request["residual_fit_factor"],
        engine=engine,
    )
    output = TargetOutput(result=result, text=result.render(), rows=list(result.rows))
    return output, {
        **meta,
        "target": "sweep",
        "benchmarks": list(request["benchmarks"]),
        "policies": list(request["policies"]),
        "multipliers": list(request["multipliers"]),
    }
