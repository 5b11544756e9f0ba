#!/usr/bin/env python3
"""Compare two sets of perfvar_bench results, one row per workload and metric.

    python3 bench/suite/compare.py BASE CHANGE [--per-layer]

BASE and CHANGE are directories of result files written by
`perfvar_bench --out PREFIX` (PREFIX.json; *.spans.json files are
skipped). Within each workload, the i-th BASE run is paired with the i-th
CHANGE run in file-name order, so name the files in the order they ran and
alternate which side runs first.

Each row shows both sides' median and quartiles, the share of pairs the
change wins (ties count for neither side) and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the distance between BASE's quartiles
  unresolved  either side's quartile distance exceeds the metric's bound
              (as a share of its median), unless every CHANGE run beats
              every BASE run
  regressed   the CHANGE median is worse than the BASE median by more than
              the bound
  within      none of the above

Bounds come from BENCHMARK.json. A workload's own latencies (its p50s and
p90s) take the bound of latency_p50_ms, its rates that of
throughput_per_s. error_ratio regresses when any CHANGE run exceeds the
largest BASE value. Metrics without a bound get no verdict. The exit code
is 1 when any row regressed.

By default the workloads' own metrics are compared; alternate the runs so
both sides see the same host load. --section gated compares the
BENCHMARK.json set, and --section per_layer the probes of traced runs.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HIGHER_IS_BETTER = ("_per_s", "hit_ratio", "speedup", "span_coverage")


def load(directory, section):
    """{workload: {metric: [values in file-name order]}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        metrics = runs.setdefault(result["workload"], {})
        for name, metric in result.get(section, {}).items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def bound_of(name, gates):
    if name in gates:
        return gates[name]
    if "_p50_" in name or "_p90_" in name:
        return gates.get("latency_p50_ms")
    if name.endswith("_per_s"):
        return gates.get("throughput_per_s")
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(name, base, change, gates):
    higher = name.endswith(HIGHER_IS_BETTER)
    better = (lambda c, b: c > b) if higher else (lambda c, b: c < b)
    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs) / len(pairs)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if name == "error_ratio":
        return wins, "regressed" if max(change) > max(base) else "within"
    bound = bound_of(name, gates)
    if bound is None:
        return wins, ""
    if wins >= 0.9 and abs(cmed - bmed) > bq3 - bq1:
        return wins, "improved"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    every = all(better(c, b) for c in change for b in base)
    if spread > bound and not every:
        return wins, "unresolved"
    worse = (bmed - cmed if higher else cmed - bmed) / abs(bmed) if bmed else 0.0
    return wins, "regressed" if worse > bound else "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--section", default="metrics",
                        choices=("metrics", "gated", "per_layer"),
                        help="which metrics of the result files to compare")
    args = parser.parse_args()
    base = load(args.base, args.section)
    change = load(args.change, args.section)
    gates = bounds()
    print(f"{'workload':22} {'metric':36} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    regressed = False
    for workload in sorted(set(base) & set(change)):
        for name in base[workload]:
            b, c = base[workload][name], change[workload].get(name)
            if not c:
                continue
            n = min(len(b), len(c))
            wins, result = verdict(name, b[:n], c[:n], gates)
            regressed = regressed or result == "regressed"
            bq1, bmed, bq3 = quartiles(b[:n])
            cq1, cmed, cq3 = quartiles(c[:n])
            print(f"{workload:22} {name:36} "
                  f"{bmed:12.5g} [{bq1:9.4g}, {bq3:9.4g}] "
                  f"{cmed:12.5g} [{cq1:9.4g}, {cq3:9.4g}] {wins:5.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
