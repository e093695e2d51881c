"""Spans around the ``repro`` layers, recorded from outside, and their arithmetic.

A :class:`Recorder` wraps the public functions of each layer *where the caller
looks them up* (a module attribute or a class attribute), so nothing under
``src/`` changes.  Each call becomes one span: name, start, end, the id of the
span that was open when it started (its parent), the process id and the cell
being computed.  Spans stay in memory and are written to
``<out_dir>/spans-<pid>.json`` when the process ends.

Pool workers are forked, so they inherit the wrappers and the stack of open
spans: a worker's first span names the parent process's open
``analysis.runner.map`` span as its parent.  The after-fork hook drops the
copied parent spans and registers a ``multiprocessing`` finalizer that writes
the worker's spans when the worker exits.

A span's *self time* is its duration minus the part of its interval covered
by its children's intervals (their union, so two workers running children at
once are not subtracted twice).  A layer's busy time is the sum of the self
times of its spans over every process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Dict[str, Any]
AttrsFn = Callable[[tuple, dict, Any], Dict[str, Any]]

#: The layers, in report order.  A span's layer is its name minus the last part.
LAYERS = (
    "cli",
    "workloads",
    "apps",
    "runtime.compiled",
    "core",
    "simulator",
    "analysis.runner",
    "analysis.store",
    "analysis.targets",
)


def layer_of(name: str) -> str:
    """``"runtime.compiled.load"`` -> ``"runtime.compiled"``."""
    return name.rsplit(".", 1)[0]


class Recorder:
    """Collects the spans of one process (and, after a fork, of the child)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        #: Ids of the open spans, innermost last.
        self.stack: List[str] = []
        #: Id of the cell being computed, stamped on every span opened inside it.
        self.cell: Optional[str] = None
        self._count = 0
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # Runs in the forked child after multiprocessing has reset its
        # finalizer registry, so the flush below survives until worker exit.
        self.pid = os.getpid()
        self.spans = []
        self._count = 0
        mp_util.Finalize(None, self.flush, exitpriority=0)

    def _new_id(self) -> str:
        self._count += 1
        return f"{self.pid}:{self._count}"

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a span measured by the caller (parent: the open span, if any)."""
        self.spans.append(
            {
                "id": self._new_id(),
                "parent": self.stack[-1] if self.stack else None,
                "name": name,
                "pid": self.pid,
                "start": start,
                "end": end,
                "cell": self.cell,
                **attrs,
            }
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[AttrsFn] = None,
        cell_of: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``attrs(args, kwargs, result)`` adds fields to the span of a call that
        returned; ``cell_of(args)`` makes the call a cell, whose id is stamped
        on it and on every span opened inside it.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self._new_id()
            parent = self.stack[-1] if self.stack else None
            outer_cell = self.cell
            if cell_of is not None:
                self.cell = cell_of(args)
            record: Span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "pid": self.pid,
                "cell": self.cell,
            }
            self.stack.append(span_id)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record["error"] = True
                raise
            else:
                if attrs is not None:
                    record.update(attrs(args, kwargs, result))
                return result
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
                self.cell = outer_cell
                self.spans.append(record)

        return wrapper

    def flush(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        os.replace(tmp, path)


def read_spans(out_dir: str) -> List[Span]:
    """Every span written under ``out_dir`` by any process."""
    spans: List[Span] = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.load(fh))
    return spans


# ---------------------------------------------------------------------------------
# the layer boundaries of repro
# ---------------------------------------------------------------------------------


def _tasks_generated(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"tasks": int(result.n)}


def _lanes(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    lanes = len(result)
    return {"lanes": lanes, "tasks": lanes * int(args[0].n)}


def _hit(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _saved_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(args[0].path_for(result))}


def _put_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(args[0].path_for(result.key))}


def _cell_id(args: tuple) -> str:
    spec = args[0]
    from repro.analysis.store import spec_key

    return f"{spec.kind}/{spec.benchmark}/{spec_key(spec)[:12]}"


_EXP, _RUN = "repro.analysis.experiments", "repro.analysis.runner"
_COMPILED = "repro.runtime.compiled"

Boundary = Tuple[str, Optional[str], str, str, Optional[AttrsFn], Optional[Callable]]

#: (module, class or None, attribute, span name, attrs, cell_of).  Functions
#: imported by name are wrapped in the module that imported them, because that
#: is where the caller looks them up.
BOUNDARIES: Tuple[Boundary, ...] = (
    ("repro.workloads.direct", None, "generate_compiled", "workloads.generate", _tasks_generated,
     None),
    ("repro.workloads", None, "generate_compiled", "workloads.generate", _tasks_generated, None),
    (_RUN, None, "benchmark_graph", "apps.build_graph", None, None),
    (_EXP, None, "benchmark_graph", "apps.build_graph", None, None),
    (_RUN, None, "compile_graph", "runtime.compiled.compile", None, None),
    (_COMPILED, "CompiledGraphStore", "save", "runtime.compiled.save", _saved_bytes, None),
    (_COMPILED, "CompiledGraphStore", "load", "runtime.compiled.load", _hit, None),
    (_EXP, None, "decide_for_compiled", "core.appfit", None, None),
    (_EXP, None, "decide_for_graph_fast", "core.appfit", None, None),
    (_EXP, None, "decide_for_graph", "core.baseline", None, None),
    ("repro.core.knapsack", "KnapsackOracle", "solve", "core.baseline", None, None),
    (_EXP, None, "estimate_total_fits", "core.fits", None, None),
    ("repro.core.vectorized", None, "compiled_total_fits", "core.fits", None, None),
    (_EXP, None, "simulate_compiled_batch", "simulator.batch", _lanes, None),
    (_EXP, None, "simulate_compiled", "simulator.single", None, None),
    (_RUN, "ExperimentEngine", "map", "analysis.runner.map", None, None),
    (_RUN, None, "run_cell", "analysis.runner.cell", None, _cell_id),
    ("repro.analysis.store", "ResultStore", "get", "analysis.store.get", _hit, None),
    ("repro.analysis.store", "ResultStore", "put", "analysis.store.put", _put_bytes, None),
    ("repro.cli", None, "render_artifact_texts", "analysis.targets.render", None, None),
)


def install(recorder: Recorder) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` (imports the modules it names)."""
    for module_name, class_name, attr, name, attrs, cell_of in BOUNDARIES:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, attrs, cell_of))


# ---------------------------------------------------------------------------------
# self time and the per-layer report
# ---------------------------------------------------------------------------------


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered((span["start"], span["end"]), children.get(span["id"], ()))
        for span in spans
    }


def _nested_in_same_name(span: Span, by_id: Dict[str, Span]) -> bool:
    parent = by_id.get(span["parent"]) if span["parent"] is not None else None
    while parent is not None:
        if parent["name"] == span["name"]:
            return True
        parent = by_id.get(parent["parent"]) if parent["parent"] is not None else None
    return False


def summarize(spans: List[Span], main_pid: int) -> Dict[str, float]:
    """Per-name and per-layer figures of one traced process tree.

    For each span name ``N``: ``N.calls``, ``N.s`` (summed duration of the
    outermost ``N`` spans, so recursion is not counted twice), ``N.self_s``
    and sums of the numeric fields the wrappers attach (``N.bytes``,
    ``N.tasks``, ``N.lanes``, ``N.hits``).  For each layer ``L``:
    ``layer.L.self_s`` (self time in the main process) and ``layer.L.busy_s``
    (self time summed over every process).
    """
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[span["id"]]
        if not _nested_in_same_name(span, by_id):
            out[f"{name}.s"] += span["end"] - span["start"]
        for field in ("bytes", "tasks", "lanes"):
            if field in span:
                out[f"{name}.{field}"] += span[field]
        if span.get("hit"):
            out[f"{name}.hits"] += 1
        layer = layer_of(name)
        out[f"layer.{layer}.busy_s"] += selfs[span["id"]]
        if span["pid"] == main_pid:
            out[f"layer.{layer}.self_s"] += selfs[span["id"]]
    return dict(out)


def cell_pids(spans: List[Span]) -> List[int]:
    """Pids that computed at least one cell: pool workers, or the main process."""
    return sorted({s["pid"] for s in spans if s["name"] == "analysis.runner.cell"})
