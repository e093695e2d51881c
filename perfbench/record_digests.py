"""Record the artifact digests the benchmark checks outputs against.

    python3 perfbench/record_digests.py --seeds 0-19 --held-out 1000 31337

For every workload and seed: set up, make one run, and store the sha256 of
each ``.txt`` artifact in ``perfbench/digests.json`` (existing entries are
replaced, others kept).  Seeds under ``--held-out`` are listed as such: they
are for re-checking a claim on a seed its author did not tune on.  Run it only
at a commit whose outputs are known to be right — ``paper-figures`` at seed 0
is checked against the committed goldens, not against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List

if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import workloads as wl  # noqa: E402
from perfbench.run import TMP_PARENT, Bench, BenchError  # noqa: E402


def seed_list(items: List[str]) -> List[int]:
    seeds: List[int] = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(name: str, size: str, seeds: List[int], work: str) -> Dict[str, wl.Digests]:
    """``{seed: digests}`` of one workload; the paper figures share one set-up."""
    out: Dict[str, wl.Digests] = {}
    shared = None
    for seed in seeds:
        bench = Bench(wl.make(name, size), seed, tempfile.mkdtemp(dir=work))
        bench.expected = None  # re-record: trust this commit, not the table
        if shared is None or isinstance(bench.workload, wl.Sweep):
            bench.setup()
            shared = bench
        else:
            bench.template, bench.home, bench.cells = shared.template, shared.home, shared.cells
        bench.run("run0")
        if bench.problems:
            raise BenchError(f"{name} seed {seed}: {bench.problems}")
        out[str(seed)] = bench.last_digests
        print(f"{name} {size} seed={seed}: {bench.last_digests}", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["0-19"], help="seeds or ranges like 0-19")
    parser.add_argument("--held-out", nargs="*", type=int, default=[])
    parser.add_argument("--workloads", nargs="+", default=list(wl.NAMES), choices=wl.NAMES)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    table = {"workloads": {}, "held_out": []}
    if os.path.exists(wl.DIGESTS_PATH):
        with open(wl.DIGESTS_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    seeds = seed_list(args.seeds) + args.held_out
    os.makedirs(TMP_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=TMP_PARENT)
    try:
        for name in args.workloads:
            entry = table["workloads"].setdefault(name, {}).setdefault(args.size, {})
            entry.update(record(name, args.size, seeds, work))
            ordered = sorted(entry.items(), key=lambda kv: int(kv[0]))
            table["workloads"][name][args.size] = dict(ordered)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    table["held_out"] = sorted(set(table["held_out"]) | set(args.held_out))
    with open(wl.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
