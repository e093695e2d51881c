"""Observability: structured tracing, a metrics registry, and trace tooling.

The first layer that sees the whole system at once.  Three pieces, all
zero-dependency (stdlib only), all strictly *observation-only* — with every
knob enabled, goldens, store keys, and serve artifacts stay byte-identical:

* :mod:`repro.obs.trace` — an explicit span API (``span(site, key, ...)``)
  producing JSONL span records under ``<cache>/obs/trace.jsonl``, enabled by
  ``REPRO_TRACE=off|light|full`` and threaded through the experiment engines'
  cell lifecycles (claim → compute → put → retry), compiled-graph store
  loads, simulator backend dispatch, and serve HTTP request handling.
* :mod:`repro.obs.metrics` — a process-local registry of counters, gauges,
  and fixed-bucket histograms, exported as Prometheus text by the serve
  frontend's ``GET /metrics`` and merged cross-worker from per-worker
  snapshot files.
* :mod:`repro.obs.report` — the ``repro trace summarize|export`` machinery:
  per-site latency percentiles, a slowest-cells table, and a Chrome
  trace-event (Perfetto-loadable) export with worker rows and retry/chaos
  markers.

The span taxonomy, site names, and merge semantics are documented in the
Observability section of ``docs/architecture.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Tracer": "repro.obs.trace",
    "active_tracer": "repro.obs.trace",
    "trace_span": "repro.obs.trace",
    "trace_mode": "repro.obs.trace",
    "read_trace": "repro.obs.report",
    "summarize_trace": "repro.obs.report",
    "export_chrome_trace": "repro.obs.report",
    "MetricsRegistry": "repro.obs.metrics",
    "registry": "repro.obs.metrics",
    "render_prometheus": "repro.obs.metrics",
    "obs_stats": "repro.obs.maintenance",
    "obs_gc": "repro.obs.maintenance",
    "obs_clear": "repro.obs.maintenance",
}

__getattr__, __dir__ = lazy_exports(
    __name__, _EXPORTS, submodules=("maintenance", "metrics", "report", "trace")
)

__all__ = sorted(_EXPORTS)
