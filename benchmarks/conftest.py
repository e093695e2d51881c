"""Shared configuration for the benchmark harness.

Every paper table/figure has one module here.  The problem scale is
controlled with the ``REPRO_BENCH_SCALE`` environment variable (default 0.2,
i.e. a few thousand to a few tens of thousands of tasks per benchmark);
``REPRO_BENCH_SCALE=1.0`` reproduces the full Table I configurations and takes
on the order of an hour.

Each module prints the regenerated table (visible with ``pytest -s``) and,
at the golden scale, checks it against the committed
``benchmarks/results/<name>.txt``.  The harness never writes a tracked file:
``repro run all --scale 0.2 --out benchmarks/results`` is the one way to
regenerate the goldens.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The scale the committed goldens were rendered at.
GOLDEN_SCALE = 0.2


def bench_scale() -> float:
    """The benchmark problem scale (1.0 = Table I sizes)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", str(GOLDEN_SCALE)))


@pytest.fixture(scope="session")
def scale() -> float:
    """Session-wide problem scale."""
    return bench_scale()


@pytest.fixture(scope="session")
def results_dir() -> str:
    """Directory holding the committed golden tables."""
    return RESULTS_DIR


def record(results_dir: str, name: str, text: str, scaled: bool = True) -> None:
    """Print a rendered table and check it against its committed golden.

    A ``scaled`` table depends on the problem scale, so it is checked only at
    :data:`GOLDEN_SCALE`; a scale-independent one is checked at any scale.
    """
    print()
    print(text)
    if scaled and bench_scale() != GOLDEN_SCALE:
        return
    with open(os.path.join(results_dir, f"{name}.txt"), encoding="utf-8") as fh:
        golden = fh.read()
    assert text + "\n" == golden, f"{name} drifted from benchmarks/results/{name}.txt"
