"""Structured span tracing: JSONL records of where each run spends its time.

A *span* is one timed region at a named **site** — ``cell.compute``,
``cell.claim``, ``graph.load``, ``http.request`` — optionally tied to a
result-store ``key`` and carrying free-form attributes (worker identity,
attempt ordinal, backend name).  Span records are appended, one atomic JSON
line each, to ``<cache root>/obs/trace.jsonl``; a *mark* is the zero-duration
variant (retry markers, chaos annotations).

Activation is purely environmental, exactly like the chaos engine
(:mod:`repro.serve.chaos`): ``REPRO_TRACE=off|light|full`` selects the mode,
so pool workers and ``repro serve --worker`` processes inherit the parent's
configuration with no extra plumbing.  ``light`` records only the coarse
cell-lifecycle sites (one or two lines per computed cell — the <2% overhead
budget on the fig5 smoke); ``full`` records every site.  A misspelled mode
fails loudly (``ValueError``), never silently traces nothing.

Tracing is **observation-only** by construction: the tracer writes to the
``obs/`` namespace of the cache root and nothing else — it never touches
payloads, spec hashing, or artifact composition, which is why ``full`` runs
produce byte-identical goldens, store records, and serve artifacts (pinned by
``tests/test_obs.py`` and ``tools/check_obs_smoke.py``).

Span records look like::

    {"kind": "span", "site": "cell.compute", "key": "ab12...", "id": "4f2.1.7",
     "parent": "4f2.1.6", "t": 1723000000.123, "dur_s": 0.0141,
     "pid": 1266, "tid": 5, "worker": "host-1266-ab12", "attempt": 0}

``t`` is a wall-clock start timestamp (cross-process alignable); ``dur_s`` is
measured on the monotonic clock.  ``parent`` is the id of the innermost open
span on the same thread when the span began, so claim → compute → put chains
reconstruct without any global state.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.compiled import cache_root

#: Environment variable selecting the trace mode (unset/empty = off).
TRACE_ENV = "REPRO_TRACE"

#: The accepted ``REPRO_TRACE`` values.
TRACE_MODES = ("off", "light", "full")

#: Where trace records live, under the cache root.
OBS_SUBDIR = "obs"
TRACE_LOG_NAME = "trace.jsonl"

#: Size cap of the live trace journal (bytes).  When an append would push
#: ``trace.jsonl`` past the cap, the journal is atomically renamed to a
#: ``trace-<ns>-<pid>.jsonl`` segment and a fresh journal starts; ``repro
#: cache gc`` sweeps rotated segments.  Large enough that a full nightly sweep
#: fits in one segment, small enough that a forgotten ``REPRO_TRACE=full``
#: service loop cannot fill a disk before gc runs.
TRACE_MAX_BYTES = 64 * 1024 * 1024

#: Rotated segments are ``trace-<ns>-<pid>.jsonl`` (the prefix the obs
#: maintenance sweep matches; the live journal never matches it).
ROTATED_TRACE_PREFIX = "trace-"

#: Sites recorded in ``light`` mode — the coarse cell lifecycle only.  Every
#: other site (claim/put bookkeeping, graph loads, simulator dispatch, HTTP)
#: requires ``full``.  Unknown sites default to ``full`` so a new span site is
#: never accidentally promoted into the light overhead budget.
LIGHT_SITES = frozenset({"engine.map", "cell", "cell.compute", "cell.retry"})


def parse_trace_mode(text: str) -> str:
    """Validate one ``REPRO_TRACE`` value; a typo must fail loudly."""
    mode = text.strip().lower()
    if mode == "":
        return "off"
    if mode not in TRACE_MODES:
        raise ValueError(
            f"unknown {TRACE_ENV} mode {text!r}; known: {', '.join(TRACE_MODES)}"
        )
    return mode


def trace_mode() -> str:
    """The process's trace mode, resolved from ``REPRO_TRACE``."""
    return parse_trace_mode(os.environ.get(TRACE_ENV, ""))


def trace_path(root: str) -> str:
    """The trace log of a cache root (``<root>/obs/trace.jsonl``)."""
    return os.path.join(os.path.abspath(root), OBS_SUBDIR, TRACE_LOG_NAME)


# ---------------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------------

#: Process-wide span ordinal source (combined with pid + a per-thread ordinal
#: into ids that are unique across workers without any coordination).
_SPAN_COUNTER = itertools.count(1)


class Span:
    """One open timed region; records itself (one JSONL line) on exit.

    Returned by :meth:`Tracer.span` as a context manager.  Attributes added
    via :meth:`set` land in the record; :meth:`cancel` discards the span
    entirely (used for non-events such as a lost lease-claim race, which
    would otherwise flood the log once per poll).
    """

    __slots__ = ("tracer", "site", "key", "attrs", "id", "parent", "t", "_t0", "_cancelled")

    def __init__(self, tracer: "Tracer", site: str, key: Optional[str], attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.site = site
        self.key = key
        self.attrs = attrs
        self.id = f"{os.getpid():x}.{next(_SPAN_COUNTER):x}"
        self.parent: Optional[str] = None
        self.t = 0.0
        self._t0 = 0.0
        self._cancelled = False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the record (e.g. the resolved backend name)."""
        self.attrs.update(attrs)

    def cancel(self) -> None:
        """Discard this span: nothing is written when the block exits."""
        self._cancelled = True

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self.t = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur_s = time.perf_counter() - self._t0
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self._cancelled:
            return
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.tracer._write_span(self, dur_s)


class _NullSpan:
    """The do-nothing span used when tracing is off or the site is filtered.

    Call sites hold a single code path (``with trace_span(...) as span:``)
    whether or not anything records; the null span accepts the same calls and
    ignores them.
    """

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        """Ignore attributes (nothing will be recorded)."""

    def cancel(self) -> None:
        """Nothing to discard."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The shared null span (stateless, so one instance serves every call site).
NULL_SPAN = _NullSpan()


class Tracer:
    """Appends span/mark records for one (mode, cache root) pair.

    One tracer per process per root, shared by every thread (see
    :func:`active_tracer`); the span parent stack is thread-local, so spans
    on different worker threads nest independently.  Writes are single
    ``write()`` calls of one line each in append mode — the same atomic
    discipline as the chaos journal and the job event journals — so
    concurrent workers never interleave bytes.
    """

    def __init__(self, mode: str, root: str) -> None:
        self.mode = mode
        self.root = os.path.abspath(root)
        self.path = trace_path(self.root)
        self._local = threading.local()
        self._dir_ready = False

    def _stack(self) -> List[Span]:
        """This thread's open-span stack (parent resolution)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def enabled_for(self, site: str) -> bool:
        """Whether this mode records a site (light filters to the cell core)."""
        return self.mode == "full" or site in LIGHT_SITES

    def span(self, site: str, key: Optional[str] = None, **attrs: Any):
        """Open one span; returns a context manager (null when filtered)."""
        if not self.enabled_for(site):
            return NULL_SPAN
        return Span(self, site, key, {k: v for k, v in attrs.items() if v is not None})

    def mark(self, site: str, key: Optional[str] = None, **attrs: Any) -> None:
        """Record one instant event (retry/chaos markers in the export)."""
        if not self.enabled_for(site):
            return
        # Attributes first, reserved fields second: an attr named like a
        # record field ("kind", "t", ...) can never corrupt the envelope.
        doc: Dict[str, Any] = {k: v for k, v in attrs.items() if v is not None}
        doc.update(
            {
                "kind": "mark",
                "site": site,
                "t": time.time(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
        )
        if key is not None:
            doc["key"] = key
        self._append(doc)

    def _write_span(self, span: Span, dur_s: float) -> None:
        """Serialise one finished span (called from ``Span.__exit__``)."""
        # Attributes first, reserved fields second (see :meth:`mark`).
        doc: Dict[str, Any] = dict(span.attrs)
        doc.update(
            {
                "kind": "span",
                "site": span.site,
                "id": span.id,
                "t": span.t,
                "dur_s": round(dur_s, 9),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
        )
        if span.key is not None:
            doc["key"] = span.key
        if span.parent is not None:
            doc["parent"] = span.parent
        self._append(doc)
        # Feed the per-site latency histogram so /metrics sees span timings
        # without a second timing call at every site.
        try:
            from repro.obs.metrics import observe_span

            observe_span(span.site, dur_s)
        except ImportError:  # pragma: no cover - metrics layer absent
            pass

    def _append(self, doc: Dict[str, Any]) -> None:
        """One atomic single-line append; I/O failures never break the run."""
        line = json.dumps(doc, sort_keys=True) + "\n"
        try:
            if not self._dir_ready:
                os.makedirs(os.path.dirname(self.path), exist_ok=True)
                self._dir_ready = True
            self._maybe_rotate(len(line))
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
        except OSError:  # pragma: no cover - tracing is observability only
            pass

    def _maybe_rotate(self, incoming: int) -> None:
        """Rotate the journal when one more line would exceed the size cap.

        The live file is renamed (atomic on POSIX) to a uniquely named
        segment; a concurrent appender either lands its line just before the
        rename — the segment keeps it — or re-opens the fresh journal on its
        next append.  A lost rotation race surfaces as ``FileNotFoundError``
        from ``os.replace`` and is swallowed by :meth:`_append`'s handler:
        the other process already moved the file.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return  # no journal yet — nothing to rotate
        if size <= 0 or size + incoming <= TRACE_MAX_BYTES:
            return
        rotated = os.path.join(
            os.path.dirname(self.path),
            f"{ROTATED_TRACE_PREFIX}{time.time_ns():d}-{os.getpid()}.jsonl",
        )
        os.replace(self.path, rotated)


def trace_span(
    tracer: Optional[Tracer], site: str, key: Optional[str] = None, **attrs: Any
):
    """``tracer.span(...)`` tolerant of ``tracer is None`` (tracing off).

    The standard call shape at instrumentation sites::

        with trace_span(self._tracer, "cell.compute", key, attempt=n) as span:
            ...
            span.set(outcome="computed")
    """
    if tracer is None:
        return NULL_SPAN
    return tracer.span(site, key, **attrs)


# ---------------------------------------------------------------------------------
# process-wide activation (one tracer per (mode, cache root))
# ---------------------------------------------------------------------------------

_DEFAULT_ROOT: Dict[str, Optional[str]] = {"root": None}

_tracers: Dict[Tuple[str, str], Tracer] = {}
_tracers_lock = threading.Lock()


def configure_trace_root(root: Optional[str]) -> None:
    """Pin the default cache root tracer lookups resolve against.

    The CLI calls this with ``--cache-dir`` (and the pool-worker initialiser
    with the parent's resolved root) so span sites with no store in hand —
    simulator backend dispatch, compiled-graph loads — log to the same
    ``obs/trace.jsonl`` the cell lifecycle does.  ``None`` falls back to
    ``REPRO_CACHE_DIR`` / the default cache dir.
    """
    _DEFAULT_ROOT["root"] = root


def active_tracer(root: Optional[str] = None) -> Optional[Tracer]:
    """The process's tracer for a cache root, or ``None`` (tracing off).

    Mirrors :func:`repro.serve.chaos.active_chaos`: activation is purely
    environmental (``REPRO_TRACE``), tracers are cached per (mode, root),
    and every thread in the process shares one instance.
    """
    mode = trace_mode()
    if mode == "off":
        return None
    root = cache_root(root or _DEFAULT_ROOT["root"])
    cache_key = (mode, os.path.abspath(root))
    with _tracers_lock:
        tracer = _tracers.get(cache_key)
        if tracer is None:
            tracer = Tracer(mode, root)
            _tracers[cache_key] = tracer
        return tracer
