"""Out-of-tree benchmark of the ``repro`` CLI: end-to-end timings plus per-layer spans.

``perfbench/run.py`` is the entry point; see its docstring for the workloads,
the metrics and how a run is measured.  Nothing here is imported by ``src/``.
"""
