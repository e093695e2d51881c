"""Traced entry point: ``python perfbench/traced.py SPANS_DIR ARGV...``.

Runs ``repro.cli.main(ARGV)`` — the same argv a timed run passes to
``python -m repro`` — with every layer boundary of :mod:`perfbench.spans`
wrapped, then writes the spans of this process (and, through the fork hook,
of every pool worker) under ``SPANS_DIR``.  The exit code is the CLI's.
"""

import os
import sys
import time


def main() -> int:
    # Import perfbench as a package from the checkout root, and keep this
    # script's own directory off the path the CLI imports from.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench.spans import Recorder, install

    spans_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(spans_dir)
    start = time.perf_counter()
    import repro.cli

    recorder.add("cli.import", start, time.perf_counter())
    install(recorder)
    cli_main = recorder.wrap(repro.cli.main, "cli.main")
    try:
        return cli_main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
