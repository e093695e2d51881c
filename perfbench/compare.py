"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/run.py --workload W --seed N --record base-N.json   # per seed, per side
    python3 perfbench/compare.py --base base-*.json --new new-*.json

For each metric, prints the median over the records of each side and the
change as a share of the base median.  A metric whose base median is 0 and
whose new median is not is marked ``CHANGED FROM 0`` (the leak indicators,
such as ``workloads.generate.calls``, are 0 by design).  An end-to-end metric
that got worse by more than its ``bound`` in ``BENCHMARK.json`` is marked and
makes the exit code 1.  Records whose machine fingerprints differ (core
count, CPU model, python, numpy, resolved simulator backend) measure
different things: each difference is printed as ``FINGERPRINT MISMATCH``
before the comparison, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fingerprint fields that must agree for two records to be comparable.
MACHINE_FIELDS = ("nproc", "cpu", "python", "numpy", "sim_backend")


def load(paths: List[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def fingerprint_mismatches(records: List[Dict[str, Any]]) -> List[str]:
    """One line per machine field, or workload, on which the records disagree."""
    lines = []
    for field in MACHINE_FIELDS:
        values = sorted({str(r["fingerprint"].get(field)) for r in records})
        if len(values) > 1:
            lines.append(f"{field}: {' vs '.join(values)}")
    workloads = sorted({r["workload"] for r in records})
    if len(workloads) > 1:
        lines.append(f"workload: {' vs '.join(workloads)}")
    return lines


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="RECORD")
    parser.add_argument("--new", nargs="+", required=True, metavar="RECORD")
    args = parser.parse_args(argv)

    base, new = load(args.base), load(args.new)
    mismatches = fingerprint_mismatches(base + new)
    for line in mismatches:
        print(f"FINGERPRINT MISMATCH {line}")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = False
    for name in base[0]["metrics"]:
        old = statistics.median(r["metrics"][name] for r in base)
        cur = statistics.median(r["metrics"][name] for r in new)
        if old:
            change = (cur - old) / old
            text = f"change {change:+.2%}"
        else:
            change = 0.0 if cur == 0 else math.copysign(math.inf, cur)
            text = "unchanged at 0" if cur == 0 else "CHANGED FROM 0"
        metric = end_to_end.get(name)
        if metric is not None:
            loss = change if metric["better"] == "lower" else -change
            if loss > metric["bound"]:
                text += f"  WORSE than bound {metric['bound']:g}"
                worse = True
        print(f"{name:45s} base {old:.6g}  new {cur:.6g}  {text}")
    if mismatches:
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
