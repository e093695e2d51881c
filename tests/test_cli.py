"""The unified ``repro`` CLI: artifacts, caching/resume, and the cache commands.

Covers the acceptance criteria of the CLI/store subsystem:

* ``repro run`` writes .txt/.json/.csv artifacts and is cache-aware —
  a second invocation computes zero cells and produces bit-identical output
  (``fig5`` is the criterion's named target; run at benchmark scale it is
  marked slow, a quick-scale equivalent runs on every push);
* ``repro report`` renders stored records back into the
  ``benchmarks/results/*.txt`` formats (``--strict`` never computes);
* ``repro sweep`` grids benchmarks x policies x multipliers;
* ``repro cache ls|stats|gc|clear`` maintain the store;
* ``python -m repro --help`` works from a bare checkout (subprocess).
"""

import csv
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.runner import clear_caches
from repro.cli import main

SCALE = "0.05"


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Per-process graph memos must not leak across CLI tests."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def dirs(tmp_path):
    """(out, cache) directories for one CLI invocation."""
    return str(tmp_path / "out"), str(tmp_path / "cache")


def run_cli(*argv):
    """Invoke the CLI in-process; returns its exit status."""
    return main(list(argv))


# ---------------------------------------------------------------------------------
# run: artifacts + caching
# ---------------------------------------------------------------------------------


def test_run_writes_txt_json_csv_artifacts(dirs, capsys):
    out, cache = dirs
    status = run_cli(
        "run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache
    )
    assert status == 0
    txt = os.path.join(out, "table1_inventory.txt")
    assert os.path.exists(txt)
    with open(txt, encoding="utf-8") as fh:
        assert "Table I" in fh.read()
    with open(os.path.join(out, "table1_inventory.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["target"] == "table1"
    assert doc["scale"] == float(SCALE)
    assert len(doc["rows"]) == 9
    with open(os.path.join(out, "table1_inventory.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert {r["benchmark"] for r in rows} == {d["benchmark"] for d in doc["rows"]}


def test_second_run_computes_zero_cells_and_is_bit_identical(dirs, capsys):
    out, cache = dirs
    assert run_cli("run", "fig3", "--scale", SCALE, "--out", out, "--cache-dir", cache) == 0
    cold_stdout = capsys.readouterr().out
    assert "(18 computed, 0 cached)" in cold_stdout
    with open(os.path.join(out, "fig3_appfit.txt"), encoding="utf-8") as fh:
        cold_text = fh.read()

    out2 = out + "2"
    assert run_cli("run", "fig3", "--scale", SCALE, "--out", out2, "--cache-dir", cache) == 0
    warm_stdout = capsys.readouterr().out
    assert "(0 computed, 18 cached)" in warm_stdout
    with open(os.path.join(out2, "fig3_appfit.txt"), encoding="utf-8") as fh:
        assert fh.read() == cold_text


def test_force_flag_recomputes(dirs, capsys):
    out, cache = dirs
    run_cli("run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache)
    capsys.readouterr()
    run_cli("run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache, "--force")
    assert "(9 computed, 0 cached)" in capsys.readouterr().out


def test_no_cache_flag_never_reads_or_writes_records(dirs, capsys):
    out, cache = dirs
    # --no-cache bypasses the results store; --no-graph-cache additionally
    # keeps compiled graphs out of the cache root, so nothing is created.
    run_cli(
        "run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache,
        "--no-cache", "--no-graph-cache",
    )
    assert not os.path.exists(cache)
    capsys.readouterr()
    run_cli(
        "run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache,
        "--no-cache", "--no-graph-cache",
    )
    assert "(9 computed, 0 cached)" in capsys.readouterr().out


def test_no_cache_still_shares_compiled_graphs(dirs, capsys):
    out, cache = dirs
    run_cli("run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache, "--no-cache")
    # No cell records were written, but the compiled-graph store was populated.
    assert os.path.isdir(os.path.join(cache, "compiled"))
    entries = os.listdir(os.path.join(cache, "compiled"))
    assert entries, "compiled-graph store should hold the Table I graphs"
    capsys.readouterr()
    run_cli("cache", "ls", "--cache-dir", cache)
    assert "compiled graph(s)" in capsys.readouterr().out


def test_unknown_target_is_a_usage_error(dirs, capsys):
    out, cache = dirs
    assert run_cli("run", "fig99", "--out", out, "--cache-dir", cache) == 2
    assert "unknown target" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------------


def test_report_strict_renders_from_cache_only(dirs, capsys):
    out, cache = dirs
    run_cli("run", "fig3", "--scale", SCALE, "--out", out, "--cache-dir", cache)
    with open(os.path.join(out, "fig3_appfit.txt"), encoding="utf-8") as fh:
        run_text = fh.read()
    capsys.readouterr()

    rep = out + "-report"
    status = run_cli(
        "report", "fig3", "--scale", SCALE, "--out", rep, "--cache-dir", cache, "--strict"
    )
    assert status == 0
    assert "(0 computed, 18 cached)" in capsys.readouterr().out
    with open(os.path.join(rep, "fig3_appfit.txt"), encoding="utf-8") as fh:
        assert fh.read() == run_text


def test_report_strict_fails_on_cold_cache(dirs, capsys):
    out, cache = dirs
    status = run_cli(
        "report", "fig3", "--scale", SCALE, "--out", out, "--cache-dir", cache, "--strict"
    )
    assert status == 1
    assert "not in cache" in capsys.readouterr().err


def test_report_strict_rejects_cache_bypass_flags(dirs, capsys):
    """--no-cache/--force would silently defeat --strict; refuse the combo."""
    out, cache = dirs
    for bypass in ("--no-cache", "--force"):
        status = run_cli(
            "report", "fig3", "--scale", SCALE, "--out", out,
            "--cache-dir", cache, "--strict", bypass,
        )
        assert status == 2
        assert "--strict cannot be combined" in capsys.readouterr().err


def test_multi_grid_target_reports_all_cells(dirs, capsys):
    """ablation-rates issues one grid per benchmark; counts must cover all of them."""
    out, cache = dirs
    run_cli("run", "ablation-rates", "--scale", SCALE, "--out", out, "--cache-dir", cache)
    assert "(30 computed, 0 cached)" in capsys.readouterr().out
    run_cli("run", "ablation-rates", "--scale", SCALE, "--out", out, "--cache-dir", cache)
    assert "(0 computed, 30 cached)" in capsys.readouterr().out


# ---------------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------------


def test_sweep_grid_artifacts_and_caching(dirs, capsys):
    out, cache = dirs
    status = run_cli(
        "sweep",
        "--benchmarks", "cholesky", "fft",
        "--policies", "app_fit", "top_fit",
        "--multipliers", "10", "5",
        "--scale", SCALE,
        "--out", out,
        "--cache-dir", cache,
    )
    assert status == 0
    assert "(8 computed, 0 cached)" in capsys.readouterr().out
    with open(os.path.join(out, "sweep.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert len(doc["rows"]) == 8
    assert doc["policies"] == ["app_fit", "top_fit"]

    # An overlapping, larger grid recomputes only the new combinations.
    status = run_cli(
        "sweep",
        "--benchmarks", "cholesky", "fft",
        "--policies", "app_fit", "top_fit", "complete",
        "--multipliers", "10", "5",
        "--scale", SCALE,
        "--out", out,
        "--cache-dir", cache,
    )
    assert status == 0
    assert "(4 computed, 8 cached)" in capsys.readouterr().out


def test_sweep_unknown_policy_is_a_usage_error(dirs, capsys):
    out, cache = dirs
    status = run_cli(
        "sweep", "--benchmarks", "cholesky", "--policies", "psychic",
        "--scale", SCALE, "--out", out, "--cache-dir", cache,
    )
    assert status == 2
    assert "unknown sweep policy" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# workload sweeps + the workloads subcommand
# ---------------------------------------------------------------------------------

#: The ISSUE-4 acceptance spec plus one small spec per remaining family.
WORKLOAD_SPECS = (
    "layered:depth=12,width=8,seed=7",
    "erdos:tasks=20,p=0.2,seed=1",
    "forkjoin:stages=2,width=3,seed=1",
    "pipeline:stages=3,items=3,seed=1",
    "wavefront:rows=3,cols=3,seed=1",
    "mapreduce:maps=4,reduces=2,rounds=1,seed=1",
)


def test_workload_sweep_cold_warm_and_bit_identical(dirs, capsys):
    """The acceptance criterion: cold then warm with zero computed cells."""
    out, cache = dirs
    argv = (
        "sweep", "--workload", "layered:depth=12,width=8,seed=7",
        "--scale", "0.2", "--cache-dir", cache,
    )
    assert run_cli(*argv, "--out", out) == 0
    cold_stdout = capsys.readouterr().out
    assert "(4 computed, 0 cached)" in cold_stdout
    with open(os.path.join(out, "workload_sweep.txt"), encoding="utf-8") as fh:
        cold_text = fh.read()
    assert "layered:" in cold_text

    out2 = out + "2"
    assert run_cli(*argv, "--out", out2) == 0
    assert "(0 computed, 4 cached)" in capsys.readouterr().out
    with open(os.path.join(out2, "workload_sweep.txt"), encoding="utf-8") as fh:
        assert fh.read() == cold_text
    with open(os.path.join(out, "workload_sweep.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(os.path.join(out2, "workload_sweep.json"), encoding="utf-8") as fh:
        assert json.load(fh) == doc
    assert doc["target"] == "workload-sweep"
    assert len(doc["rows"]) == 4


def test_workload_sweep_separate_process_artifacts_identical(dirs, capsys):
    """Two cold runs in separate processes: byte-identical txt/JSON artifacts
    covering every generator family (the issue's determinism criterion)."""
    out, cache = dirs
    argv = [
        "sweep", "--workload", *WORKLOAD_SPECS,
        "--multipliers", "10",
        "--fault-rates", "0.01",
        "--scale", "0.2",
        "--parallelism", "1",
    ]
    assert run_cli(*argv, "--out", out, "--cache-dir", cache) == 0
    capsys.readouterr()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out2, cache2 = out + "-p2", out + "-cache2"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--out", out2, "--cache-dir", cache2],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for artifact in ("workload_sweep.txt", "workload_sweep.json"):
        with open(os.path.join(out, artifact), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, artifact), "rb") as fh:
            assert fh.read() == first, artifact


def test_workload_sweep_conflicts_with_benchmarks(dirs, capsys):
    out, cache = dirs
    status = run_cli(
        "sweep", "--workload", "layered", "--benchmarks", "cholesky",
        "--out", out, "--cache-dir", cache,
    )
    assert status == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_workload_sweep_bad_spec_is_a_usage_error(dirs, capsys):
    out, cache = dirs
    status = run_cli(
        "sweep", "--workload", "moebius:tasks=3", "--out", out, "--cache-dir", cache
    )
    assert status == 2
    assert "unknown workload family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, doc, stem",
    [
        (["run", "fig3"], {"target": "fig3"}, "fig3_appfit"),
        (
            ["sweep", "--benchmarks", "cholesky", "--policies", "app_fit", "top_fit"],
            {"benchmarks": ["cholesky"], "policies": ["app_fit", "top_fit"]},
            "sweep",
        ),
        (
            ["sweep", "--workload", "layered:depth=4,width=3,seed=3",
             "--policies", "app_fit", "complete"],
            {"workloads": ["layered:depth=4,width=3,seed=3"], "policies": ["app_fit", "complete"]},
            "workload_sweep",
        ),
    ],
    ids=["target", "benchmarks-sweep", "workload-sweep"],
)
def test_cli_artifacts_are_byte_identical_to_served_ones(dirs, capsys, argv, doc, stem):
    """The CLI and ``repro serve`` compose the same request into the same bytes."""
    from repro.serve.jobs import compose_artifacts, normalize_request

    out, cache = dirs
    assert run_cli(*argv, "--scale", SCALE, "--out", out, "--cache-dir", cache) == 0
    served = compose_artifacts(normalize_request({**doc, "scale": float(SCALE)}), cache)
    for fmt, content in served.items():
        with open(os.path.join(out, f"{stem}.{fmt}"), encoding="utf-8", newline="") as fh:
            assert fh.read() == content, f"{stem}.{fmt}"


def test_workloads_ls_describe(capsys):
    assert run_cli("workloads", "ls") == 0
    ls_out = capsys.readouterr().out
    for family in ("layered", "erdos", "forkjoin", "pipeline", "wavefront",
                   "mapreduce", "trace"):
        assert family in ls_out

    assert run_cli("workloads", "describe", "wavefront:rows=3,cols=4", "--scale", "1.0") == 0
    desc = capsys.readouterr().out
    assert "canonical : wavefront:" in desc
    assert "tasks     : 12" in desc

    assert run_cli("workloads", "describe") == 2
    assert "needs a SPEC" in capsys.readouterr().err
    assert run_cli("workloads", "describe", "layered:depth=zz") == 2
    assert "not a valid int" in capsys.readouterr().err


def test_workloads_gen_exports_reimportable_trace(dirs, capsys):
    out, _ = dirs
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, "layered.json")
    assert run_cli(
        "workloads", "gen", "layered:depth=3,width=2,seed=5", "--out", trace_path
    ) == 0
    assert os.path.exists(trace_path)
    capsys.readouterr()

    assert run_cli("workloads", "describe", f"trace:file={trace_path}") == 0
    desc = capsys.readouterr().out
    assert "tasks     : 6" in desc


# ---------------------------------------------------------------------------------
# cache maintenance
# ---------------------------------------------------------------------------------


def test_cache_ls_stats_gc_clear(dirs, capsys):
    out, cache = dirs
    run_cli("run", "table1", "--scale", SCALE, "--out", out, "--cache-dir", cache)
    capsys.readouterr()

    assert run_cli("cache", "ls", "--cache-dir", cache) == 0
    assert "9 record(s)" in capsys.readouterr().out

    assert run_cli("cache", "stats", "--cache-dir", cache) == 0
    stats_out = capsys.readouterr().out
    assert "records        : 9" in stats_out
    assert "compiled graphs: 9" in stats_out

    assert run_cli("cache", "gc", "--cache-dir", cache) == 0
    assert "removed 0 stale" in capsys.readouterr().out

    assert run_cli("cache", "clear", "--cache-dir", cache) == 0
    clear_out = capsys.readouterr().out
    assert "removed 9 record(s)" in clear_out
    assert "removed 9 compiled graph(s)" in clear_out

    assert run_cli("cache", "ls", "--cache-dir", cache) == 0
    assert "empty" in capsys.readouterr().out


def test_targets_listing(capsys):
    assert run_cli("targets") == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig3", "fig4", "fig5", "fig6", "ablation-policies"):
        assert name in out


# ---------------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------------


def test_python_dash_m_repro_help_smoke():
    """`python -m repro --help` must work from a bare checkout (docs job)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro", "--help"], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    for command in ("run", "sweep", "report", "cache"):
        assert command in out.stdout


def test_version_flag(capsys):
    from repro import __version__

    assert run_cli("--version") == 0
    assert capsys.readouterr().out.strip() == __version__


def test_no_command_prints_help_and_fails(capsys):
    assert run_cli() == 2
    assert "usage: repro" in capsys.readouterr().out


# ---------------------------------------------------------------------------------
# acceptance: warm-cache fig5 does zero cell computations
# ---------------------------------------------------------------------------------


@pytest.mark.slow
def test_warm_cache_fig5_does_zero_cell_computations(dirs, capsys):
    """The issue's acceptance criterion, verbatim, at benchmark scale.

    ``repro run fig5`` enforces its 0.5 scale floor, so this runs the real
    Figure 5 grid — hence the slow marker; the quick suite covers the same
    property on fig3 above.
    """
    out, cache = dirs
    assert run_cli("run", "fig5", "--scale", SCALE, "--out", out, "--cache-dir", cache) == 0
    cold = capsys.readouterr().out
    assert "(15 computed, 0 cached)" in cold
    with open(os.path.join(out, "fig5_scalability_shared.txt"), encoding="utf-8") as fh:
        cold_text = fh.read()

    out2 = out + "2"
    assert run_cli("run", "fig5", "--scale", SCALE, "--out", out2, "--cache-dir", cache) == 0
    warm = capsys.readouterr().out
    assert "(0 computed, 15 cached)" in warm
    with open(os.path.join(out2, "fig5_scalability_shared.txt"), encoding="utf-8") as fh:
        warm_text = fh.read()
    assert warm_text == cold_text  # cached vs fresh: bit-identical
