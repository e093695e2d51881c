"""Tests of the benchmark itself: smoke runs, output checks and span arithmetic.

Every run here uses the ``smoke`` size and writes only under pytest's
``tmp_path``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import pytest

from perfbench import run as bench_run
from perfbench import spans
from perfbench import workloads as wl

BENCHMARK_JSON = os.path.join(bench_run.REPO_ROOT, "BENCHMARK.json")


@pytest.mark.parametrize("name", wl.NAMES)
def test_smoke_run_of_each_workload_passes_its_checks(name, tmp_path):
    record = bench_run.measure(name, 0, 0.0, trace=False, size="smoke", work_root=str(tmp_path))
    assert record["problems"] == []
    assert record["digests_recorded"]
    assert len(record["samples"]["wall_s"]) == len(record["samples"]["setup_s"])
    assert record["attempted"] > 0 and record["failed"] == 0
    assert list(record["metrics"]) == [m for m, _, _ in bench_run.END_TO_END]
    assert all(value > 0 for value in record["metrics"].values())
    assert record["fingerprint"]["sim_backend"]
    result = json.loads(bench_run.report(record).splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


@pytest.mark.parametrize("name", wl.BENCHMARKED)
def test_traced_smoke_run_shows_the_predicted_call_pattern(name, tmp_path):
    record = bench_run.measure(name, 0, 0.0, trace=True, size="smoke", work_root=str(tmp_path))
    m = record["metrics"]
    assert record["problems"] == [] and record["warnings"] == []
    assert list(m) == [n for n, _, _ in bench_run.PER_LAYER + bench_run.REPORTED_ONLY]
    result = json.loads(bench_run.report(record).splitlines()[-1])
    assert list(result["metrics"]) == [n for n, _, _ in bench_run.PER_LAYER]
    # The JSON result carries only metrics that are never 0 on a benchmarked workload.
    assert all(value["value"] != 0 for value in result["metrics"].values())
    assert m["workloads.generate.calls"] == 0 and m["runtime.compiled.compile.calls"] == 0
    assert m["runtime.compiled.load.hit_frac"] == 1.0
    assert m["analysis.store.get.hit_frac"] == 0.0
    assert m["apps.build_graph.calls"] > 0 and m["core.baseline.calls"] > 0
    assert m["analysis.runner.cells_computed"] == m["analysis.store.put.calls"]
    assert m["setup.graphs.s"] > 0 and m["setup.runtime.compiled.save.bytes"] > 0
    if name == "sweep-baselines-90k":
        assert m["analysis.runner.cells_computed"] == 4
        assert m["analysis.runner.workers"] == 1  # serial: the main process
        assert m["setup.workloads.generate.s"] > 0 and m["setup.apps.build_graph.s"] == 0


class _CorruptingSweep(wl.Sweep):
    """A sweep whose artifact is damaged after chosen runs, before the check."""

    corrupt_from = 0

    def check(self, out_dir, expected):
        self.runs_checked.append(out_dir)
        if len(self.runs_checked) > self.corrupt_from:
            with open(os.path.join(out_dir, self.ARTIFACT), "a", encoding="utf-8") as fh:
                fh.write("corrupted\n")
        return super().check(out_dir, expected)


def _corrupting(corrupt_from: int) -> _CorruptingSweep:
    base = wl.make("sweep-appfit-250k", "smoke")
    sweep = _CorruptingSweep(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
    object.__setattr__(sweep, "runs_checked", [])
    object.__setattr__(sweep, "corrupt_from", corrupt_from)
    return sweep


@pytest.mark.parametrize(
    "seed, corrupt_from",
    [(0, 0), (7, 1)],
    ids=["recorded-seed-every-run", "unrecorded-seed-second-run"],
)
def test_corrupted_artifact_counts_its_cells_as_failed(seed, corrupt_from, tmp_path):
    sweep = _corrupting(corrupt_from)
    bench = bench_run.Bench(sweep, seed, str(tmp_path))
    bench.setup()
    bench.run("run0")
    bench.run("run1")
    assert bench.attempted == 2 * sweep.n_cells
    assert bench.failed == (2 - corrupt_from) * sweep.n_cells
    assert all("differs from the expected output" in p for p in bench.problems)


def test_sweep_check_rejects_a_row_that_misses_the_threshold(tmp_path):
    sweep = wl.make("sweep-baselines-90k", "smoke")
    rows = [
        {"policy": p, "multiplier": 10.0, "fault_rate": 0.01, "n_tasks": sweep.n_tasks,
         "unprotected_fit": 2.0, "threshold": 1.0, "meets_threshold": False}
        for p in sweep.policies
    ]
    (tmp_path / "workload_sweep.json").write_text(json.dumps({"rows": rows}))
    problems = sweep.check(str(tmp_path), {})
    missed = sorted(p.split()[0] for p in problems if "misses threshold" in p)
    assert missed == ["complete", "knapsack_oracle"]  # random/top_fit are not checked

    # A malformed row is a problem (failed cells), not an exception.
    del rows[2]["threshold"]
    rows[3] = "not a row"
    (tmp_path / "workload_sweep.json").write_text(json.dumps({"rows": rows}))
    problems = sweep.check(str(tmp_path), {})
    assert any(p.startswith("knapsack_oracle") and "missing unprotected_fit/threshold" in p
               for p in problems)
    assert "workload_sweep.json: row 3 is not an object" in problems


def test_self_time_subtracts_the_union_of_children_across_processes():
    def span(id_, parent, name, pid, start, end):
        return {"id": id_, "parent": parent, "name": name, "pid": pid, "start": start, "end": end}

    trace = [
        span("1:1", None, "cli.main", 1, 0.0, 10.0),
        span("1:2", "1:1", "analysis.runner.map", 1, 1.0, 9.0),
        span("1:3", "1:2", "analysis.store.put", 1, 8.0, 8.5),
        # Two forked workers, overlapping in time, both caused by the map.
        span("2:1", "1:2", "analysis.runner.cell", 2, 2.0, 6.0),
        span("2:2", "2:1", "simulator.batch", 2, 3.0, 5.0),
        span("3:1", "1:2", "analysis.runner.cell", 3, 4.0, 7.0),
        span("3:2", "3:1", "core.appfit", 3, 4.0, 5.0),
    ]
    selfs = spans.self_times(trace)
    assert selfs["1:2"] == pytest.approx(8.0 - 5.5)  # union [2,7] + [8,8.5]
    assert selfs["1:1"] == pytest.approx(2.0)
    assert selfs["2:1"] == pytest.approx(2.0) and selfs["3:1"] == pytest.approx(2.0)
    summary = spans.summarize(trace, main_pid=1)
    assert summary["layer.analysis.runner.self_s"] == pytest.approx(2.5)
    assert summary["layer.analysis.runner.busy_s"] == pytest.approx(6.5)
    assert summary["layer.simulator.busy_s"] == pytest.approx(2.0)
    assert "layer.simulator.self_s" not in summary
    assert summary["analysis.runner.cell.calls"] == 2
    assert spans.cell_pids(trace) == [2, 3]


def _worker_target(fn):
    fn()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_worker_spans_are_flushed_and_parented(tmp_path):
    recorder = spans.Recorder(str(tmp_path))
    work = recorder.wrap(lambda: sum(range(1000)), "simulator.batch")

    def dispatch():
        proc = multiprocessing.get_context("fork").Process(target=_worker_target, args=(work,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0

    recorder.wrap(dispatch, "analysis.runner.map")()
    recorder.flush()
    trace = spans.read_spans(str(tmp_path))
    (outer,) = [s for s in trace if s["name"] == "analysis.runner.map"]
    (inner,) = [s for s in trace if s["name"] == "simulator.batch"]
    assert inner["pid"] != outer["pid"] == os.getpid()
    assert inner["parent"] == outer["id"]
    summary = spans.summarize(trace, main_pid=os.getpid())
    assert summary["layer.analysis.runner.self_s"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, wl.make(name).why) for name in wl.BENCHMARKED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER
    )
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]


def test_compare_flags_records_from_different_machines(tmp_path, capsys):
    from perfbench import compare

    def record(name, nproc, wall, generate_calls=0):
        fingerprint = {"nproc": nproc, "cpu": "x", "python": "3", "numpy": "2", "sim_backend": "cext"}
        metrics = {"wall_s": wall, "workloads.generate.calls": generate_calls}
        path = tmp_path / name
        path.write_text(
            json.dumps({"workload": "paper-figures", "fingerprint": fingerprint, "metrics": metrics})
        )
        return str(path)

    base, same, other = record("a", 2, 1.0), record("b", 2, 2.0), record("c", 4, 1.0)
    assert compare.main(["--base", base, "--new", other]) == 2
    out = capsys.readouterr().out
    assert "FINGERPRINT MISMATCH nproc: 2 vs 4" in out
    assert "wall_s" in out  # the comparison is still printed, flagged
    assert compare.main(["--base", base, "--new", same]) == 1  # wall_s doubled: beyond its bound
    leaked = record("d", 2, 1.0, generate_calls=3)
    assert compare.main(["--base", base, "--new", leaked]) == 0
    assert "CHANGED FROM 0" in capsys.readouterr().out
