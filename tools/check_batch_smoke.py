#!/usr/bin/env python3
"""CI smoke: one batched cell must be bit-identical to the scalar replay,
on every available backend.

Simulates one Figure-5-style cell (a small cholesky graph, faults on) as a
seed batch via ``simulate_compiled_batch`` and compares each lane against
``simulate_compiled`` of the same seed on the pure-Python reference path.
The comparison is exact (``==`` on every float): any difference means a
backend's arithmetic diverged from the reference and the figure means built
on it are wrong.

``python`` always runs, so at least one identity check is guaranteed.
``cext`` is skipped only on a machine without a C compiler: when a compiler
is found but the kernel does not build or load, the smoke fails, since
``auto`` would otherwise fall back to the python loop without a word. Exit 1
on any mismatch or on such a broken kernel build.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace


def _lane_fields(sim):
    return (
        sim.makespan_s,
        sim.total_work_s,
        sim.total_overhead_s,
        sim.total_recovery_s,
        sim.crashes_injected,
        sim.sdcs_injected,
        sim.replicated_tasks,
        sorted(
            (tid, rec.start_s, rec.finish_s, rec.node, rec.replicated)
            for tid, rec in sim.records.items()
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 123])
    args = parser.parse_args(argv)

    from repro.apps import create_benchmark
    from repro.simulator.backend import _find_cc, backend_status, resolve_backend
    from repro.simulator.execution import SimulationConfig
    from repro.simulator.fastpath import SimGraphCache, simulate_compiled, simulate_compiled_batch
    from repro.simulator.machine import shared_memory_node

    graph = create_benchmark("cholesky", scale=args.scale).build_graph()
    cache = SimGraphCache(graph)
    machine = shared_memory_node(4)
    config = SimulationConfig(
        replicated_ids=set(graph.task_ids()[::2]),
        crash_probability=0.05,
        sdc_probability=0.02,
        seed=0,
    )

    reference = {
        seed: _lane_fields(
            simulate_compiled(cache, machine, replace(config, seed=seed), backend="python")
        )
        for seed in args.seeds
    }

    failures = 0
    for name, status in sorted(backend_status().items()):
        if status != "available":
            if name == "cext" and _find_cc() is not None:
                failures += 1
                print(f"batch-smoke: {name:8s} FAIL (a C compiler is present but {status})")
            else:
                print(f"batch-smoke: {name:8s} SKIP ({status})")
            continue
        resolve_backend(name)  # fail loudly if status lied
        batch = simulate_compiled_batch(cache, machine, config, seeds=args.seeds, backend=name)
        bad = [
            seed
            for seed, sim in zip(args.seeds, batch)
            if _lane_fields(sim) != reference[seed]
        ]
        if bad:
            failures += 1
            print(f"batch-smoke: {name:8s} FAIL (lanes diverge from scalar for seeds {bad})")
        else:
            print(f"batch-smoke: {name:8s} OK ({len(args.seeds)} lanes == scalar, {len(graph)} tasks)")

    if failures:
        print(f"batch-smoke: FAILED ({failures} backend(s) diverged or failed to build)")
        return 1
    print("batch-smoke: all available backends bit-identical to the scalar reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
