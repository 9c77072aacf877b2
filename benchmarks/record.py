#!/usr/bin/env python3
"""Run every workload, print all metrics by name with their units, and
optionally save them as one point of the BENCH trajectory.

Usage (from the repository root)::

    python3 benchmarks/record.py --seed 1 --seconds 60 [--out benchmarks/BENCH_1.json]

Each workload is run twice through ``run.py``: untraced for the end-to-end
metrics (plus the report-only figures ``failed_ratio``, ``ln_ll_gain_nats``
and ``hk_ll_per_article``), then traced for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]
_METRIC_LINE = re.compile(r"^  ([A-Za-z][\w.]*)\s+(-?[\d.]+(?:e[-+]?\d+)?) (\S+)")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        m = _METRIC_LINE.match(line)
        if m and m.group(1) not in result["metrics"]:
            report[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    result["report"] = report
    result["log"] = lines[:-1]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", help="write the results here as JSON")
    args = parser.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        untraced = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        record["workloads"][workload] = {"end_to_end": untraced, "per_layer": traced}
        print(f"{workload}: correct={untraced['correct'] and traced['correct']} "
              f"failed={untraced['failed']}/{untraced['attempted']}")
        for kind, result in (("end_to_end", untraced), ("report", untraced),
                             ("per_layer", traced)):
            metrics = result["report"] if kind == "report" else result["metrics"]
            for name, m in metrics.items():
                print(f"  {kind:10s} {name:52s} {m['value']:.6g} {m['unit']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
