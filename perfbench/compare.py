#!/usr/bin/env python3
"""Compares two sets of benchmark results, refusing across bench contexts.

  python3 perfbench/compare.py <base_results_dir> <change_results_dir>

Each directory is a results/ tree that run.py fills (one JSON file per run,
under results/<workload>/). Untraced results are compared per workload and
end-to-end metric: median and quartiles of each side, and whether the change
is worse than the base by more than the metric's bound. A metric whose base
spread (quartile distance over median) exceeds its bound is reported as
unresolved, not as unchanged. Exits 2 without comparing anything when the
two sides were measured in different contexts (CPU count, SIMD tier,
kernel threads, build type, NDEBUG, compiler): numbers from different
machines or builds are never compared.
"""

import glob
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        with open(path) as handle:
            record = json.load(handle)
        if record.get("trace") == 0:
            results.append(record)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, change = load(argv[1]), load(argv[2])
    if not base or not change:
        sys.stderr.write("compare: no untraced results in one of the sides\n")
        return 2
    contexts = {}
    for side, records in (("base", base), ("change", change)):
        for record in records:
            key = record["context"]["workload"]
            first = contexts.setdefault(key, (side, record["context"]))
            differs = bl.context_mismatch(first[1], record["context"])
            if differs:
                sys.stderr.write(
                    "compare: refusing: %s results from %s and %s differ in "
                    "context fields %s\n" % (key, first[0], side,
                                             ", ".join(differs)))
                return 2

    regressions = 0
    print("%-18s %-14s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "base_p50", "change_p50", "worse", "bound",
        "verdict"))
    for workload in bl.WORKLOADS:
        for name, (unit, better, bound) in bl.END_TO_END.items():
            a = [r["metrics"][name]["value"] for r in base
                 if r["context"]["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in change
                 if r["context"]["workload"] == workload]
            if not a or not b:
                continue
            a_lo, a_med, a_hi = quartiles(a)
            _, b_med, _ = quartiles(b)
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (b_med - a_med) / a_med
            spread = (a_hi - a_lo) / a_med
            if spread > bound:
                verdict = "unresolved (base spread %.3f)" % spread
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print("%-18s %-14s %12.5g %12.5g %8.3f %8.3f  %s %s" % (
                workload, name, a_med, b_med, worse, bound, verdict, unit))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
