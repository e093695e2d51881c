"""Benchmark of the ``repro`` CLI, timed end to end and layer by layer from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 0 --seconds 15 --trace 0

``--workload`` is one of ``paper-figures``, ``sweep-appfit-250k`` and
``sweep-baselines-90k`` (see :mod:`perfbench.workloads` for what each runs and
why, and why ``BENCHMARK.json`` names only the first and the last).
``--seed`` is the workload seed: the sweeps generate their graph with
``seed=N`` and every run passes ``--seed N`` to the CLI.

One invocation:

1. **Set-up**, in processes of its own: build the C simulator kernel into an
   empty kernel cache (``perfbench/probe.py``, which also prints the software
   fingerprint), then fill an empty compiled-graph store — ``repro workloads
   gen SPEC --store`` for the sweeps, one cold ``repro run`` for
   ``paper-figures``.  ``setup_s`` is the median over the set-ups: three for
   the sweeps, one for ``paper-figures`` (a cold run takes ~25 s).
2. **Timed runs**: fresh ``python -m repro`` processes, one after each
   set-up, then repeated until ``--seconds`` have passed since the first.
   Each gets a throwaway cache root whose compiled-graph store is a
   hard-linked copy of the latest set-up's and whose result store is empty.
   ``wall_s`` (median) runs from launch to exit, so interpreter start and
   import count; ``peak_rss_mib`` (median) is the highest RSS of the process
   and its pool workers (``wait4``).  Every output is checked, and a run in
   which the compiled-graph store changed — set-up work leaking into timing —
   fails.
3. With ``--trace 1``, one more run of the same argv through
   ``perfbench/traced.py``, whose wrappers record a span per layer call (see
   :mod:`perfbench.spans`); the set-up is traced the same way.  Its wall
   time minus the median untraced wall time is the tracing overhead.

Children get the environment minus every ``REPRO_*`` variable, with
``PYTHONPATH=src`` and ``HOME`` pointing into the work directory (so the
kernel cache lives there too).  All files go under ``.perfbench-tmp/`` in the
checkout and are removed at exit.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (cells), and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics ``BENCHMARK.json`` lists
with ``--trace 1`` (the lines above it also print the per-layer metrics that
are 0 by design on some workload).
``--record FILE`` also writes every sample and the fingerprint to FILE, for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
if __name__ == "__main__":
    # Import perfbench as a package, not this directory's files as top-level modules.
    sys.path[0] = REPO_ROOT

from perfbench import spans as spans_mod  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

SRC = os.path.join(REPO_ROOT, "src")
TMP_PARENT = os.path.join(REPO_ROOT, ".perfbench-tmp")

#: Hard limit on any one child process.
CHILD_TIMEOUT_S = 170.0
#: No timed run starts once this much of an invocation has passed.
BUDGET_S = 140.0

#: End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Per-layer metrics of the traced run that the JSON result carries (the
#: ``per_layer`` list of ``BENCHMARK.json``): those that are above 0 on every
#: benchmarked workload.  (name, unit, better).
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    # Untraced median wall time minus the traced cli.main call: interpreter
    # start, imports and the exit teardown (seconds when a big object graph
    # is freed).
    ("cli.startup_s", "s", "lower"),
    ("apps.build_graph.calls", "count", "lower"),
    ("apps.build_graph.s", "s", "lower"),
    ("runtime.compiled.load.calls", "count", "lower"),
    ("runtime.compiled.load.s", "s", "lower"),
    ("runtime.compiled.load.hit_frac", "ratio", "higher"),
    ("core.appfit.calls", "count", "lower"),
    ("core.appfit.s", "s", "lower"),
    ("core.baseline.calls", "count", "lower"),
    ("core.baseline.s", "s", "lower"),
    ("core.fits.s", "s", "lower"),
    ("simulator.batch.calls", "count", "lower"),
    ("simulator.batch.lanes", "count", "lower"),
    ("simulator.batch.tasks", "count", "lower"),
    ("simulator.batch.s", "s", "lower"),
    ("simulator.batch.tasks_per_s", "1/s", "higher"),
    ("analysis.runner.map.calls", "count", "lower"),
    ("analysis.runner.map.s", "s", "lower"),
    ("analysis.runner.map.self_s", "s", "lower"),
    ("analysis.runner.cells_computed", "count", "lower"),
    # Processes that computed a cell: the pool workers, or the main process
    # when the engine runs serially.
    ("analysis.runner.workers", "count", "lower"),
    ("analysis.store.get.calls", "count", "lower"),
    ("analysis.store.put.calls", "count", "lower"),
    ("analysis.store.put.s", "s", "lower"),
    ("analysis.store.put.bytes", "B", "lower"),
    ("analysis.targets.render.calls", "count", "lower"),
    ("analysis.targets.render.s", "s", "lower"),
    # Self time summed over every process (see perfbench.spans).
    *((f"layer.{layer}.busy_s", "s", "lower") for layer in spans_mod.LAYERS if layer != "workloads"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    # Set-up time spent making the graphs, summed over processes: direct
    # generation on the sweeps, object build plus compile_graph on
    # paper-figures.
    ("setup.graphs.s", "s", "lower"),
    ("setup.runtime.compiled.save.s", "s", "lower"),
    ("setup.runtime.compiled.save.bytes", "B", "lower"),
)

#: Per-layer metrics that are printed but not in the JSON result, because
#: they are 0 by design on at least one benchmarked workload: the leak
#: indicators (which :func:`leaks` enforces), main-process self times of the
#: layers paper-figures runs in its pool workers, and the set-up split by
#: path.
REPORTED_ONLY = (
    ("workloads.generate.calls", "count", "lower"),
    ("workloads.generate.s", "s", "lower"),
    ("workloads.generate.tasks_per_s", "1/s", "higher"),
    ("runtime.compiled.compile.calls", "count", "lower"),
    ("runtime.compiled.compile.s", "s", "lower"),
    ("runtime.compiled.save.calls", "count", "lower"),
    ("runtime.compiled.save.s", "s", "lower"),
    ("runtime.compiled.save.bytes", "B", "lower"),
    ("analysis.store.get.hit_frac", "ratio", "higher"),
    ("layer.workloads.busy_s", "s", "lower"),
    # Self time in the main process only.
    *((f"layer.{layer}.self_s", "s", "lower") for layer in spans_mod.LAYERS),
    ("setup.workloads.generate.s", "s", "lower"),
    ("setup.workloads.generate.tasks_per_s", "1/s", "higher"),
    ("setup.apps.build_graph.s", "s", "lower"),
    ("setup.runtime.compiled.compile.calls", "count", "lower"),
    ("setup.runtime.compiled.compile.s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER + REPORTED_ONLY}


class BenchError(RuntimeError):
    """Nothing left to measure: set-up failed, or the program is missing."""


# ---------------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------------


@dataclass
class Child:
    """One finished child process."""

    pid: int
    code: int
    wall_s: float
    rss_mib: float
    log: str

    def tail(self, lines: int = 5) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def launch(cmd: List[str], cwd: str, env: Dict[str, str], log: str) -> Child:
    """Run ``cmd`` in a session of its own; time it from launch to exit.

    ``wait4`` reports the peak RSS over the child and every descendant it
    reaped (the pool workers).  A child that outlives :data:`CHILD_TIMEOUT_S`
    is killed with its whole process group.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)  # pool workers a crashed child left behind
    return Child(proc.pid, proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def child_env(home: str) -> Dict[str, str]:
    """The caller's environment without ``REPRO_*``, on ``src/`` and a private HOME."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["HOME"] = home
    return env


def snapshot(directory: str) -> Dict[str, Tuple[int, int]]:
    """``{relative path: (inode, size)}`` of every file under ``directory``."""
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.relpath(os.path.join(dirpath, name), directory)] = (st.st_ino, st.st_size)
    return out


def count_records(root: str) -> int:
    """Result-store records under a cache root (``<root>/<xx>/<key>.json``)."""
    return len(glob.glob(os.path.join(root, "??", "*.json")))


# ---------------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------------


def cpu_model() -> str:
    """The CPU model name the kernel reports."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """sha256 over every file under ``src/repro`` (path and bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def fingerprint(probe: Dict[str, Any]) -> Dict[str, Any]:
    """Machine and software identity of a result (see ``compare.py``)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {"nproc": nproc, "cpu": cpu_model(), **probe, "source_sha256": source_digest()}


# ---------------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------------


class Bench:
    """Set-up, timed runs and the traced run of one workload at one seed."""

    def __init__(self, workload: Any, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.expected = workload.expected(seed, REPO_ROOT)
        #: Cells one run computes (paper-figures: counted after the set-up run).
        self.cells = getattr(workload, "n_cells", 0)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.warnings: List[str] = []
        self.setup_s: List[float] = []
        self.wall_s: List[float] = []
        self.rss_mib: List[float] = []
        self.fingerprint: Dict[str, Any] = {}
        self.template = self.home = ""
        self.setup_summary: Dict[str, float] = {}
        self.last_digests: wl.Digests = {}

    def _path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def _cmd(self, argv: List[str], spans_dir: Optional[str]) -> List[str]:
        if spans_dir is None:
            return [sys.executable, "-m", "repro", *argv]
        os.makedirs(spans_dir, exist_ok=True)
        return [sys.executable, os.path.join(HERE, "traced.py"), spans_dir, *argv]

    def _must(self, child: Child, what: str) -> None:
        if child.code != 0:
            raise BenchError(f"{what} exited with {child.code}: {child.tail()}")

    def setup(self, traced: bool = False) -> None:
        """One set-up from scratch; the runs after it use its store and kernel cache."""
        i = len(self.setup_s)
        home, root, out = (self._path(f"{p}{i}") for p in ("home", "setup", "setup-out"))
        os.makedirs(home)
        env = child_env(home)
        spans_dir = self._path(f"setup-spans{i}") if traced else None
        probe_cmd = [sys.executable, os.path.join(HERE, "probe.py")]
        setup_cmd = self._cmd(self.workload.setup_argv(self.seed, root, out), spans_dir)
        start = time.perf_counter()
        probe = launch(probe_cmd, self.work, env, self._path(f"probe{i}.log"))
        self._must(probe, "set-up probe")
        child = launch(setup_cmd, self.work, env, self._path(f"setup{i}.log"))
        self._must(child, "set-up")
        self.setup_s.append(time.perf_counter() - start)
        with open(probe.log, encoding="utf-8") as fh:
            self.fingerprint = fingerprint(json.loads(fh.read().strip().splitlines()[-1]))
        if spans_dir is not None:
            self.setup_summary = spans_mod.summarize(spans_mod.read_spans(spans_dir), child.pid)
        self.template, self.home = root, home
        if isinstance(self.workload, wl.PaperFigures) and i == 0:
            self.cells = count_records(root)
            if self.cells == 0:
                raise BenchError("the set-up run stored no result records")
            if self.expected is None:
                self.expected = wl.artifact_digests(out, self.workload.artifacts())

    def run(self, label: str, traced: bool = False) -> Tuple[Child, Optional[Dict[str, float]]]:
        """One run on a fresh cache root; returns it and, if traced, its span summary."""
        root, out = self._path(label), self._path(f"{label}-out")
        compiled = os.path.join(root, "compiled")
        os.makedirs(root)
        shutil.copytree(os.path.join(self.template, "compiled"), compiled, copy_function=os.link)
        before = snapshot(compiled)
        spans_dir = self._path(f"{label}-spans") if traced else None
        cmd = self._cmd(self.workload.run_argv(self.seed, root, out), spans_dir)
        child = launch(cmd, self.work, child_env(self.home), self._path(f"{label}.log"))
        problems: List[str] = []
        summary = None
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.tail()}")
        else:
            if snapshot(compiled) != before:
                problems.append("the compiled-graph store changed: set-up work leaked into the run")
            if isinstance(self.workload, wl.PaperFigures) and count_records(root) != self.cells:
                problems.append(f"{count_records(root)} cells computed, expected {self.cells}")
            self.last_digests = wl.artifact_digests(out, self.workload.artifacts())
            if self.expected is None and len(self.last_digests) == len(self.workload.artifacts()):
                self.expected = self.last_digests
            problems += self.workload.check(out, self.expected or {})
            if spans_dir is not None:
                spans = spans_mod.read_spans(spans_dir)
                summary = spans_mod.summarize(spans, child.pid)
                summary["workers"] = float(len(spans_mod.cell_pids(spans)))
                problems += leaks(summary)
                cells = summary.get("analysis.runner.cell.calls")
                if cells != summary.get("analysis.store.put.calls"):
                    self.warnings.append(
                        "traced run: some computed cells left no span (a worker was not forked?)"
                    )
        self.attempted += self.cells
        if problems:
            self.failed += self.cells
            self.problems += [f"{label}: {p}" for p in problems]
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return child, summary

    def set_up_and_time(self, repeats: int, seconds: float, started: float, trace: bool) -> None:
        """Set up ``repeats`` times, each followed by a timed run, then run on.

        Runs continue until ``seconds`` have passed since the first one.
        Interleaving the set-ups spreads the samples over the whole
        invocation, which averages more of the box's slow speed drift than
        back-to-back runs would.
        """
        first = 0.0

        def timed_run() -> None:
            child, _ = self.run(f"run{len(self.wall_s)}")
            self.wall_s.append(child.wall_s)
            self.rss_mib.append(child.rss_mib)

        for i in range(repeats):
            self.setup(traced=trace and i == 0)
            first = first or time.perf_counter()
            timed_run()
        while time.perf_counter() - first < seconds and (
            time.perf_counter() - started + statistics.median(self.wall_s) < BUDGET_S
        ):
            timed_run()


def leaks(summary: Dict[str, float]) -> List[str]:
    """Set-up work a traced run did: generation, compilation or a store miss."""
    problems = []
    for name in ("workloads.generate", "runtime.compiled.compile"):
        if summary.get(f"{name}.calls", 0):
            problems.append(
                f"{name} ran {summary[f'{name}.calls']:.0f} times: set-up work leaked into the run"
            )
    loads = summary.get("runtime.compiled.load.calls", 0)
    if loads and summary.get("runtime.compiled.load.hits", 0) < loads:
        problems.append("a compiled-graph load missed: set-up work leaked into the run")
    return problems


def per_layer(
    summary: Dict[str, float], setup: Dict[str, float], traced_wall: float, untraced_wall: float
) -> Dict[str, float]:
    """:data:`PER_LAYER` and :data:`REPORTED_ONLY` from a traced run's and set-up's summaries."""

    def get(name: str, source: Dict[str, float] = summary) -> float:
        return float(source.get(name, 0.0))

    def ratio(num: str, den: str, source: Dict[str, float] = summary) -> float:
        return get(num, source) / get(den, source) if get(den, source) else 0.0

    out = {
        "cli.import_s": get("cli.import.s"),
        "cli.startup_s": untraced_wall - get("cli.main.s"),
        "workloads.generate.tasks_per_s": ratio("workloads.generate.tasks", "workloads.generate.s"),
        "runtime.compiled.load.hit_frac": ratio(
            "runtime.compiled.load.hits", "runtime.compiled.load.calls"
        ),
        "simulator.batch.tasks_per_s": ratio("simulator.batch.tasks", "simulator.batch.s"),
        "analysis.runner.cells_computed": get("analysis.runner.cell.calls"),
        "analysis.runner.workers": get("workers"),
        "analysis.store.get.hit_frac": ratio("analysis.store.get.hits", "analysis.store.get.calls"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "setup.workloads.generate.tasks_per_s": ratio(
            "workloads.generate.tasks", "workloads.generate.s", setup
        ),
        "setup.graphs.s": sum(
            get(f"{name}.s", setup)
            for name in ("workloads.generate", "apps.build_graph", "runtime.compiled.compile")
        ),
    }
    names = [name for name, _, _ in PER_LAYER + REPORTED_ONLY]
    for name in names:
        if name not in out:
            out[name] = get(name[len("setup."):], setup) if name.startswith("setup.") else get(name)
    return {name: out[name] for name in names}


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={values[0]:.4f}" if values else "n=0"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (
        f"n={len(values)} median={statistics.median(values):.4f} q1={q1:.4f} q3={q3:.4f} "
        f"samples={[round(v, 4) for v in values]}"
    )


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    work_root: str = TMP_PARENT,
) -> Dict[str, Any]:
    """Run one invocation; returns the record (metrics, samples, fingerprint, checks)."""
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no repro sources under {SRC}")
    if seed < 0:
        raise BenchError("--seed must be >= 0 (it is a workload spec seed)")
    workload = wl.make(name, size)
    recorded = workload.expected(seed, REPO_ROOT) is not None
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root)
    try:
        bench = Bench(workload, seed, work)
        repeats = 1 if trace else workload.setup_repeats
        bench.set_up_and_time(repeats, seconds, started, trace)
        metrics: Dict[str, float]
        if trace:
            child, summary = bench.run("traced", traced=True)
            untraced = statistics.median(bench.wall_s)
            metrics = per_layer(summary or {}, bench.setup_summary, child.wall_s, untraced)
        else:
            metrics = {
                "wall_s": statistics.median(bench.wall_s),
                "peak_rss_mib": statistics.median(bench.rss_mib),
                "setup_s": statistics.median(bench.setup_s),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    return {
        "workload": name,
        "size": size,
        "seed": seed,
        "trace": trace,
        "fingerprint": bench.fingerprint,
        "samples": {
            "wall_s": bench.wall_s,
            "peak_rss_mib": bench.rss_mib,
            "setup_s": bench.setup_s,
        },
        "digests": bench.last_digests,
        "digests_recorded": recorded,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "warnings": bench.warnings,
        "metrics": metrics,
    }


def report(record: Dict[str, Any]) -> str:
    """Human-readable lines, then the one-line JSON result."""
    reference = (
        "recorded digests (goldens for paper-figures at seed 0)"
        if record["digests_recorded"]
        else "the first output of this invocation (seed not recorded)"
    )
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} size={record['size']} "
        f"trace={int(record['trace'])}",
        f"fingerprint: {json.dumps(record['fingerprint'], sort_keys=True)}",
        f"outputs checked against: {reference}",
    ]
    for name, values in record["samples"].items():
        lines.append(f"{name}: {_quartiles(values)}")
    attempted, failed = record["attempted"], record["failed"]
    failed_frac = failed / attempted if attempted else 0.0
    lines.append(f"failed_frac: {failed_frac:g} ({failed}/{attempted} cells)")
    listed = {name for name, _, _ in END_TO_END + PER_LAYER}
    for name, value in record["metrics"].items():
        note = "" if name in listed else "  (not in BENCHMARK.json: 0 by design on some workload)"
        lines.append(f"  {name} = {value:.6g} {UNITS[name]}{note}")
    lines += [f"FAILED {p}" for p in record["problems"]]
    lines += [f"warning: {w}" for w in record["warnings"]]
    result = {
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in record["metrics"].items()
            if name in listed
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="how long timed runs repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", metavar="FILE", help="also write the full record (samples, fingerprint) here"
    )
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
