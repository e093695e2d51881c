#!/usr/bin/env python3
"""CI smoke for the out-of-core graph path: direct generation + bounded RSS.

Three checks, all against the real stores and engines:

1. **Determinism** — generating the same workload spec directly to two fresh
   compiled-graph stores produces byte-identical ``.npz`` payloads (the
   content address and the contents both reproduce).
2. **Equivalence** — on a small graph, the direct spec→CompiledGraph emitters
   produce arrays byte-identical to lowering the object graph through
   ``compile_graph`` (the guarantee that makes the direct path safe to
   default on).
3. **Bounded memory** — a ``--tasks``-sized layered workload is generated
   directly to the store and swept through one real ``workload_sweep`` cell
   on the bounded-memory python backend; the process peak RSS must stay
   under ``--budget-mib``.

The default size (~2.5 * 10^5 tasks) keeps the quick CI lane under a minute;
the nightly lane runs the acceptance configuration::

    python tools/check_biggraph_smoke.py --tasks 1000000 --budget-mib 1536
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mib() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def _store_digest(root: str) -> str:
    """SHA-256 over every ``.npz`` payload in a compiled-graph store.

    Sidecar JSON records wall-clock generation time, so only the array
    payloads are expected (and required) to reproduce.
    """
    digest = hashlib.sha256()
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for name in sorted(filenames):
            if not name.endswith(".npz"):
                continue
            digest.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def check_determinism(spec_str: str, scale: float) -> None:
    """Direct generation twice -> byte-identical store payloads."""
    from repro.runtime.compiled import CompiledGraphStore
    from repro.workloads import parse_workload
    from repro.workloads.direct import generate_compiled_to_store

    spec = parse_workload(spec_str)
    digests = []
    for _ in range(2):
        root = tempfile.mkdtemp(prefix="repro-biggraph-det-")
        try:
            generate_compiled_to_store(spec, scale, CompiledGraphStore(root))
            digests.append(_store_digest(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)
    if digests[0] != digests[1]:
        raise SystemExit(f"FAIL determinism: store digests differ: {digests}")
    print(f"ok determinism   {spec.canonical}: {digests[0][:16]}")


def check_equivalence(spec_str: str, scale: float) -> None:
    """Direct emission == lowered object graph, byte for byte."""
    import numpy as np

    from repro.runtime.compiled import ARRAY_FIELDS, compile_graph
    from repro.workloads import WorkloadBenchmark, parse_workload
    from repro.workloads.direct import generate_compiled

    spec = parse_workload(spec_str)
    direct = generate_compiled(spec, scale)
    lowered = compile_graph(WorkloadBenchmark(spec, scale=scale).build_graph())
    for field in ARRAY_FIELDS:
        a = np.asarray(getattr(direct, field))
        b = np.asarray(getattr(lowered, field))
        if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(
            a.view(np.uint8), b.view(np.uint8)
        ):
            raise SystemExit(f"FAIL equivalence: field {field!r} differs")
    print(f"ok equivalence   {spec.canonical}: {len(ARRAY_FIELDS)} fields identical")


def check_bounded_rss(tasks: int, budget_mib: float, fault_rate: float) -> None:
    """One real workload_sweep cell on the python backend, RSS-capped."""
    width = max(int(round(tasks ** 0.5)), 1)
    depth = max((tasks + width - 1) // width, 1)
    spec_str = f"layered:depth={depth},width={width},seed=1"

    from repro.analysis.experiments import workload_sweep
    from repro.analysis.runner import configure_graph_cache

    root = tempfile.mkdtemp(prefix="repro-biggraph-rss-")
    saved_backend = os.environ.get("REPRO_SIM_BACKEND")
    os.environ["REPRO_SIM_BACKEND"] = "python"
    configure_graph_cache(enabled=True, root=root)
    try:
        t0 = time.perf_counter()
        result = workload_sweep(
            [spec_str],
            policies=("app_fit",),
            multipliers=(10.0,),
            fault_rates=(fault_rate,),
            n_seeds=1,
        )
        elapsed = time.perf_counter() - t0
    finally:
        configure_graph_cache()
        if saved_backend is None:
            os.environ.pop("REPRO_SIM_BACKEND", None)
        else:
            os.environ["REPRO_SIM_BACKEND"] = saved_backend
        shutil.rmtree(root, ignore_errors=True)

    (row,) = result.rows
    if row["n_tasks"] < tasks:
        raise SystemExit(
            f"FAIL bounded-rss: cell saw {row['n_tasks']} tasks, wanted >= {tasks}"
        )
    peak = _peak_rss_mib()
    print(
        f"ok bounded-rss   {spec_str}: {row['n_tasks']} tasks, "
        f"cell {elapsed:.1f}s, peak RSS {peak:.0f} MiB (budget {budget_mib:.0f})"
    )
    if peak > budget_mib:
        raise SystemExit(
            f"FAIL bounded-rss: peak RSS {peak:.0f} MiB exceeds {budget_mib:.0f} MiB"
        )


def main(argv=None) -> int:
    """Run the three smoke checks; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=250_000,
                        help="layered-graph size for the bounded-RSS check")
    parser.add_argument("--budget-mib", type=float, default=1536.0,
                        help="peak-RSS ceiling for the whole process")
    parser.add_argument("--fault-rate", type=float, default=0.001)
    parser.add_argument("--small-spec", default="layered:depth=8,width=6,seed=3",
                        help="workload spec for the determinism/equivalence checks")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

    check_determinism(args.small_spec, scale=1.0)
    check_equivalence(args.small_spec, scale=1.0)
    check_bounded_rss(args.tasks, args.budget_mib, args.fault_rate)
    print("biggraph smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
