"""repro — selective task replication for application-specific reliability targets.

A reproduction of Subasi et al., "A Runtime Heuristic to Selectively Replicate
Tasks for Application-Specific Reliability Targets" (IEEE CLUSTER 2016).

The package provides:

* a task-parallel dataflow runtime substrate (:mod:`repro.runtime`),
* a failure model and fault injector (:mod:`repro.faults`),
* the task replication protocol and the **App_FIT** selection heuristic
  (:mod:`repro.core`),
* a discrete-event machine simulator for overhead/scalability studies
  (:mod:`repro.simulator`) and a simulated cluster (:mod:`repro.distributed`),
* generators for the paper's nine benchmarks (:mod:`repro.apps`) plus a
  workload subsystem of seeded parametric DAG families and a JSON trace
  importer (:mod:`repro.workloads`) for studying replication policies on
  arbitrary task graphs,
* experiment drivers that regenerate every table and figure of the paper's
  evaluation (:mod:`repro.analysis`), executed by a parallel experiment
  engine (:mod:`repro.analysis.runner`) with a vectorized fault-evaluation
  fast path (:mod:`repro.core.vectorized`, :mod:`repro.simulator.fastpath`);
  every driver takes ``parallelism=``/``fast=`` knobs and ``fast=False``
  falls back to the scalar reference implementations,
* a content-addressed results store with cell-level caching and resume
  (:mod:`repro.analysis.store`) behind every driver,
* the unified ``repro`` CLI (:mod:`repro.cli`; also ``python -m repro``)
  with ``run`` / ``sweep`` / ``report`` / ``cache`` / ``workloads``
  subcommands,
* a sweep service (:mod:`repro.serve`; ``repro serve`` / ``submit`` /
  ``status``): an HTTP job queue over the results store whose workers
  shard each grid through atomic, expiring cell leases — N processes or
  machines on one shared cache root drain a sweep exactly once,
* an observability layer (:mod:`repro.obs`; ``repro trace``): structured
  span tracing (``REPRO_TRACE=light|full``), a process-local metrics
  registry behind the service's Prometheus ``GET /metrics``, and
  summarize/Chrome-trace-export tooling — all strictly observation-only.

Configuration environment variables (``REPRO_PARALLELISM``,
``REPRO_BENCH_SCALE``, ``REPRO_CACHE_DIR``, ``REPRO_CODE_VERSION``, ...) are
documented in one place: the Configuration section of the top-level README.

Quickstart::

    from repro import quickstart_appfit
    report = quickstart_appfit()
    print(report)

or, from a shell::

    python -m repro run fig3 --scale 0.1 --out results/
"""

from repro._lazy import lazy_exports

#: Package version.  Note: both on-disk caches hash this into every key — the
#: results store (:func:`repro.analysis.store.spec_key`) and the
#: compiled-graph store (:func:`repro.runtime.compiled.compiled_key`) — so
#: bumping it invalidates all cached cells and compiled graphs; run
#: ``repro cache gc`` to reclaim the old generation.
__version__ = "1.8.0"

#: Public name -> defining package, resolved lazily on first access (see
#: :mod:`repro._lazy`): ``repro run fig5`` never pays for the functional
#: runtime or the fault injector it does not use.
_EXPORTS = {
    "AppFit": "repro.core",
    "CompleteReplication": "repro.core",
    "NoReplication": "repro.core",
    "ReplicationConfig": "repro.core",
    "SelectiveReplicationEngine": "repro.core",
    "decide_for_graph": "repro.core",
    "FailureModel": "repro.faults",
    "FaultInjector": "repro.faults",
    "FitRateSpec": "repro.faults",
    "exascale_scenario": "repro.faults",
    "TaskGraph": "repro.runtime",
    "TaskRuntime": "repro.runtime",
}

__getattr__, __dir__ = lazy_exports(
    __name__,
    _EXPORTS,
    submodules=(
        "analysis",
        "apps",
        "cli",
        "core",
        "distributed",
        "faults",
        "obs",
        "runtime",
        "serve",
        "simulator",
        "util",
        "workloads",
    ),
)

__all__ = [
    "AppFit",
    "CompleteReplication",
    "FailureModel",
    "FaultInjector",
    "FitRateSpec",
    "NoReplication",
    "ReplicationConfig",
    "SelectiveReplicationEngine",
    "TaskGraph",
    "TaskRuntime",
    "decide_for_graph",
    "exascale_scenario",
    "quickstart_appfit",
    "__version__",
]


def quickstart_appfit(multiplier: float = 10.0, benchmark: str = "cholesky"):
    """Run App_FIT on one scaled-down benchmark and return a short text report.

    Convenience entry point used by the README and ``examples/quickstart.py``.
    """
    from repro.analysis.experiments import appfit_single_benchmark

    return appfit_single_benchmark(benchmark_name=benchmark, multiplier=multiplier)
