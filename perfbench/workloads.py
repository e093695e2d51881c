"""The benchmark's workloads: the CLI argv they run and the checks on their output.

Each workload comes in two sizes.  ``full`` is what the benchmark measures;
``smoke`` is the same pipeline shrunk to a second or two, for the tests.

* ``paper-figures`` — ``repro run all --scale 0.2 --parallelism 2``: the
  paper's own evaluation, 7 targets and 92 cells over many small graphs, so
  per-cell fixed costs dominate (store loads and puts, a pool start per
  engine map, artifact render, import).  Set-up is one cold run, which builds
  the Table I object graphs and compiles them into the store.
* ``sweep-appfit-250k`` — App_FIT on a 2.5·10^5-task layered graph, 4 cells
  of 4 replayed fault seeds: per-task cost dominates (simulator, then App_FIT
  on compiled arrays) and no object graph is built.
* ``sweep-baselines-90k`` — the four baselines on a 9·10^4-task layered
  graph: the same sweep code, but the baselines build the full object graph,
  so ``apps`` and the baseline decisions dominate and set the peak RSS.

The sweeps run serially: one big graph and few cells, and a single process
makes the peak RSS the out-of-core figure.

``BENCHMARK.json`` lists :data:`BENCHMARKED`, not ``sweep-appfit-250k``.  Its
timed runs are ~78% memory-bound C simulator kernel, and on the 2-core shared
box the benchmark was defined on (Intel Xeon, python 3.11.7, numpy 2.4.6)
the median ``wall_s`` of ten invocations spread by 16-22% (IQR over median),
against 5-16% for the other two: too close to 25%, the largest bound the
benchmark may set.  It stays runnable (``--workload sweep-appfit-250k``) for
claims about the simulator, which the benchmarked workloads still trace
(``simulator.*``).

Outputs are checked against recorded digests (``digests.json``) for the seeds
recorded there, and ``paper-figures`` at seed 0 against the committed goldens
in ``benchmarks/results``.  For any other seed every run must reproduce the
first output of the invocation byte for byte.  Sweep rows of the policies
that guarantee the reliability target must meet it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Policies whose selection must meet the App_FIT threshold.  ``random`` and
#: ``top_fit`` only get App_FIT's replica budget, and ``random`` misses the
#: threshold by design.
THRESHOLD_POLICIES = ("app_fit", "knapsack_oracle", "complete")

#: Artifact stems of the ``repro run`` targets.
TARGET_ARTIFACTS = {
    "table1": "table1_inventory",
    "fig3": "fig3_appfit",
    "fig4": "fig4_overheads",
    "fig5": "fig5_scalability_shared",
    "fig6": "fig6_scalability_distributed",
    "ablation-policies": "ablation_policies",
    "ablation-rates": "ablation_rate_sweep",
}

Digests = Dict[str, str]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_recorded(workload: str, size: str, seed: int) -> Optional[Digests]:
    """The recorded artifact digests of a (workload, size, seed), if any."""
    if not os.path.exists(DIGESTS_PATH):
        return None
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get("workloads", {}).get(workload, {}).get(size, {}).get(str(seed))


def artifact_digests(out_dir: str, artifacts: Sequence[str]) -> Digests:
    """``{artifact file: sha256}`` of those ``artifacts`` present in ``out_dir``."""
    paths = {a: os.path.join(out_dir, a) for a in artifacts}
    return {a: sha256_file(p) for a, p in paths.items() if os.path.exists(p)}


def compare_digests(out_dir: str, expected: Digests) -> List[str]:
    """Problems of ``out_dir`` against ``{artifact file: sha256}``."""
    problems = []
    for artifact, digest in sorted(expected.items()):
        path = os.path.join(out_dir, artifact)
        if not os.path.exists(path):
            problems.append(f"{artifact}: missing")
        elif sha256_file(path) != digest:
            problems.append(f"{artifact}: differs from the expected output")
    return problems


@dataclass(frozen=True)
class PaperFigures:
    """``repro run`` over the paper's figure and table targets."""

    name = "paper-figures"
    why = "the paper's own evaluation: many small graphs, so per-cell fixed costs dominate"
    #: One cold run takes ~25 s, so a run sets up once.
    setup_repeats = 1
    size: str = "full"

    @property
    def targets(self) -> Tuple[str, ...]:
        if self.size == "smoke":
            return ("table1", "fig3", "fig4", "fig6", "ablation-policies", "ablation-rates")
        return tuple(TARGET_ARTIFACTS)

    @property
    def scale(self) -> str:
        return "0.02" if self.size == "smoke" else "0.2"

    def run_argv(self, seed: int, root: str, out: str) -> List[str]:
        targets = ["all"] if self.size == "full" else list(self.targets)
        return [
            "run", *targets,
            "--scale", self.scale,
            "--parallelism", "2",
            "--seed", str(seed),
            "--cache-dir", root,
            "--out", out,
        ]

    def setup_argv(self, seed: int, root: str, out: str) -> List[str]:
        """A cold run fills the compiled-graph store; runs get only that store."""
        return self.run_argv(seed, root, out)

    def artifacts(self) -> List[str]:
        return [TARGET_ARTIFACTS[t] + ".txt" for t in self.targets]

    def expected(self, seed: int, repo_root: str) -> Optional[Digests]:
        """Goldens at seed 0, recorded digests at recorded seeds, else ``None``."""
        if self.size == "full" and seed == 0:
            golden_dir = os.path.join(repo_root, "benchmarks", "results")
            return {a: sha256_file(os.path.join(golden_dir, a)) for a in self.artifacts()}
        return load_recorded(self.name, self.size, seed)

    def check(self, out_dir: str, expected: Digests) -> List[str]:
        return compare_digests(out_dir, expected)


@dataclass(frozen=True)
class Sweep:
    """``repro sweep --workload layered:...`` over one big generated graph."""

    name: str
    why: str
    depth: int
    width: int
    policies: Sequence[str]
    multipliers: Sequence[str]
    fault_rates: Sequence[str]
    setup_repeats = 3
    size: str = "full"

    ARTIFACT = "workload_sweep.txt"

    def spec(self, seed: int) -> str:
        depth, width = (20, 20) if self.size == "smoke" else (self.depth, self.width)
        return f"layered:depth={depth},width={width},seed={seed}"

    @property
    def n_tasks(self) -> int:
        return 400 if self.size == "smoke" else self.depth * self.width

    @property
    def n_cells(self) -> int:
        return len(self.policies) * len(self.multipliers) * len(self.fault_rates)

    def run_argv(self, seed: int, root: str, out: str) -> List[str]:
        return [
            "sweep",
            "--workload", self.spec(seed),
            "--policies", *self.policies,
            "--multipliers", *self.multipliers,
            "--fault-rates", *self.fault_rates,
            "--n-seeds", "4",
            "--parallelism", "1",
            "--seed", str(seed),
            "--cache-dir", root,
            "--out", out,
        ]

    def setup_argv(self, seed: int, root: str, out: str) -> List[str]:
        """Direct generation writes the exact store entry the sweep loads."""
        return ["workloads", "gen", self.spec(seed), "--store", "--cache-dir", root]

    def artifacts(self) -> List[str]:
        return [self.ARTIFACT]

    def expected(self, seed: int, repo_root: str) -> Optional[Digests]:
        return load_recorded(self.name, self.size, seed)

    def check(self, out_dir: str, expected: Digests) -> List[str]:
        problems = compare_digests(out_dir, expected)
        path = os.path.join(out_dir, "workload_sweep.json")
        try:
            with open(path, encoding="utf-8") as fh:
                rows = json.load(fh)["rows"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return problems + [f"workload_sweep.json: unreadable ({exc!r})"]
        if not isinstance(rows, list):
            return problems + ["workload_sweep.json: rows is not a list"]
        if len(rows) != self.n_cells:
            problems.append(f"workload_sweep.json: {len(rows)} rows, expected {self.n_cells}")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"workload_sweep.json: row {i} is not an object")
                continue
            label = f"{row.get('policy')} x{row.get('multiplier')} p={row.get('fault_rate')}"
            if row.get("n_tasks") != self.n_tasks:
                problems.append(f"{label}: {row.get('n_tasks')} tasks, expected {self.n_tasks}")
            if row.get("policy") in THRESHOLD_POLICIES:
                fit, threshold = row.get("unprotected_fit"), row.get("threshold")
                if not all(isinstance(v, (int, float)) for v in (fit, threshold)):
                    problems.append(f"{label}: missing unprotected_fit/threshold")
                elif not (fit <= threshold * (1 + 1e-9) and row.get("meets_threshold") is True):
                    problems.append(f"{label}: unprotected FIT {fit} misses threshold {threshold}")
        return problems


def make(name: str, size: str = "full"):
    """The workload called ``name`` at ``size`` (``full`` or ``smoke``)."""
    if name == PaperFigures.name:
        return PaperFigures(size=size)
    if name == "sweep-appfit-250k":
        return Sweep(
            name=name,
            why="per-task cost dominates (simulator, then App_FIT on compiled arrays); "
            "no object graph is built",
            depth=500,
            width=500,
            policies=("app_fit",),
            multipliers=("10", "5"),
            fault_rates=("0", "0.01"),
            size=size,
        )
    if name == "sweep-baselines-90k":
        return Sweep(
            name=name,
            why="the baselines build the full object graph: apps and baseline "
            "decisions dominate and set the peak RSS",
            depth=300,
            width=300,
            policies=("top_fit", "random", "knapsack_oracle", "complete"),
            multipliers=("10",),
            fault_rates=("0.01",),
            size=size,
        )
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


NAMES = ("paper-figures", "sweep-appfit-250k", "sweep-baselines-90k")

#: The workloads ``BENCHMARK.json`` names (see the module docstring).
BENCHMARKED = ("paper-figures", "sweep-baselines-90k")
