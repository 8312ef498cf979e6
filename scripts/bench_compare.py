#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on perf regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.15]
                             [--filter REGEX]

Exits non-zero when any benchmark present in both files regressed by more
than --threshold (default 15%) in real time — or, for benchmarks that
report items_per_second (the serving load generator's throughput metric),
when throughput dropped by more than the threshold.

A candidate benchmark with NO baseline entry is a hard failure: it means
the committed BENCH_*.json predates the bench arm, so the gate would
silently skip it forever. The error names each missing key and the exact
re-record command; pass --allow-new when intentionally landing new arms in
the same change that re-records the baseline. Benchmarks only present in
the baseline (removed arms) stay informational.

Files recorded with --benchmark_repetitions are compared by the BEST
repetition (min real time / max throughput). For microbenchmarks on shared
hardware the minimum is the noise-robust regression statistic: transient
host steal only ever inflates a repetition, so "can the code still run
this fast" compares the least-disturbed run on each side, while medians
still fail stochastically when one side's whole recording window was busy.
Single-run files use the lone measurement.

User counters attached to benchmarks (arena pool_hits/pool_misses, the
tracing overhead_ratio from bench_obs_overhead, span counts) are compared
too, as an informational table: counter semantics vary (ratios, totals,
rates), so their deltas are printed for review but never fail the gate on
their own.

Both files must have been recorded from an optimized build: recordings made
by this repo's bench mains carry an "edsr_build" context key, and anything
other than "release" is rejected. Files without the key (e.g. recorded
before the key existed) are accepted with a warning.

Both files must also come from one bench context: when they differ in any
of CONTEXT_KEYS (the CPU count, the SIMD tier, the kernel thread count, the
build), nothing is compared and the script exits 2, naming the keys and the
command that re-records the baseline on this machine. Numbers from
different machines or builds are never compared (perfbench/compare.py
refuses the same way).
"""

import argparse
import json
import re
import sys


# Fields google-benchmark itself writes on every benchmark entry; any other
# numeric field is a user counter (state.counters[...]).
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "items_per_second",
    "bytes_per_second", "label", "aggregate_name", "aggregate_unit",
    "error_occurred", "error_message",
}


# Context fields that must be equal on both sides of a comparison.
CONTEXT_KEYS = ("num_cpus", "edsr_simd", "edsr_num_threads", "edsr_build")


def context_mismatch(base, cand):
    """(key, base value, candidate value) for each differing context key."""
    return [(key, base.get(key), cand.get(key)) for key in CONTEXT_KEYS
            if base.get(key) != cand.get(key)]


def load_benchmarks(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    build = doc.get("context", {}).get("edsr_build")
    if build is None:
        print(f"warning: {path} has no edsr_build context tag", file=sys.stderr)
    elif build != "release":
        print(
            f"error: {path} was recorded from an '{build}' build; "
            "re-record with the bench preset",
            file=sys.stderr,
        )
        sys.exit(2)
    results = {}
    counters = {}
    throughputs = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate rows (median/mean/stddev/cv) are skipped: the gate
        # statistic is the best individual repetition — min real time, max
        # throughput — since host steal only ever inflates a repetition.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("run_name", bench["name"])
        rt = float(bench["real_time"])
        results[name] = min(results.get(name, rt), rt)
        if "items_per_second" in bench:
            tput = float(bench["items_per_second"])
            throughputs[name] = max(throughputs.get(name, tput), tput)
        for key, value in bench.items():
            if key not in _STANDARD_KEYS and isinstance(value, (int, float)):
                ckey = f"{name}::{key}"
                # Counters ride along with the best-latency repetition so
                # the informational table stays self-consistent.
                if ckey not in counters or rt == results[name]:
                    counters[ckey] = float(value)
    return results, counters, throughputs, doc.get("context", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="maximum allowed slowdown as a fraction (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--filter", default=None, help="only compare benchmark names matching this regex"
    )
    parser.add_argument(
        "--allow-new",
        action="store_true",
        help="permit candidate benchmarks that have no baseline entry "
        "(use when landing new bench arms together with a re-recorded "
        "baseline)",
    )
    args = parser.parse_args()

    base, base_counters, base_tput, base_ctx = load_benchmarks(args.baseline)
    cand, cand_counters, cand_tput, cand_ctx = load_benchmarks(args.candidate)
    differs = context_mismatch(base_ctx, cand_ctx)
    if differs:
        print(f"error: refusing to compare {args.baseline} with "
              f"{args.candidate}: their bench contexts differ in",
              file=sys.stderr)
        for key, b, c in differs:
            print(f"  {key}: baseline {b!r}, candidate {c!r}",
                  file=sys.stderr)
        binary = cand_ctx.get("executable", "./build/bench/<bench_binary>")
        print("re-record the baseline on this machine from a bench-preset "
              f"build: {binary} --benchmark_repetitions=3 "
              f"--benchmark_out_format=json --benchmark_out={args.baseline}",
              file=sys.stderr)
        return 2
    if args.filter is not None:
        pattern = re.compile(args.filter)
        base = {k: v for k, v in base.items() if pattern.search(k)}
        cand = {k: v for k, v in cand.items() if pattern.search(k)}
        base_counters = {
            k: v for k, v in base_counters.items() if pattern.search(k)}
        cand_counters = {
            k: v for k, v in cand_counters.items() if pattern.search(k)}
        base_tput = {k: v for k, v in base_tput.items() if pattern.search(k)}
        cand_tput = {k: v for k, v in cand_tput.items() if pattern.search(k)}

    shared = sorted(base.keys() & cand.keys())
    if not shared:
        print("error: no common benchmarks between the two files", file=sys.stderr)
        return 2

    regressions = []
    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  delta")
    for name in shared:
        b, c = base[name], cand[name]
        delta = (c - b) / b if b > 0 else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {b:>10.0f}ns  {c:>10.0f}ns  {delta:+7.1%}{marker}")

    # Throughput gate: for benchmarks that report items_per_second (the
    # serving benches), a drop past the threshold is a regression in its own
    # right even if real_time noise masks it.
    shared_tput = sorted(base_tput.keys() & cand_tput.keys())
    if shared_tput:
        twidth = max(len(name) for name in shared_tput)
        print(f"\n{'throughput (items/s)':<{twidth}}  {'baseline':>12}  "
              f"{'candidate':>12}  delta")
        for name in shared_tput:
            b, c = base_tput[name], cand_tput[name]
            drop = (b - c) / b if b > 0 else 0.0
            marker = ""
            if drop > args.threshold:
                marker = "  REGRESSION"
                regressions.append((f"{name} [throughput]", drop))
            print(f"{name:<{twidth}}  {b:>12.4g}  {c:>12.4g}  "
                  f"{-drop:+7.1%}{marker}")

    shared_counters = sorted(base_counters.keys() & cand_counters.keys())
    if shared_counters:
        cwidth = max(len(name) for name in shared_counters)
        print(f"\n{'counter':<{cwidth}}  {'baseline':>12}  "
              f"{'candidate':>12}  delta (informational)")
        for name in shared_counters:
            b, c = base_counters[name], cand_counters[name]
            delta = (c - b) / b if b != 0 else 0.0
            print(f"{name:<{cwidth}}  {b:>12.4g}  {c:>12.4g}  {delta:+7.1%}")

    for name in sorted(base.keys() - cand.keys()):
        print(f"note: {name} only in baseline (not compared)")

    missing_baseline = sorted(cand.keys() - base.keys())
    if missing_baseline and not args.allow_new:
        print(
            f"\nFAIL: {len(missing_baseline)} candidate benchmark(s) have "
            f"no baseline entry in {args.baseline}:",
            file=sys.stderr,
        )
        for name in missing_baseline:
            print(f"  no baseline entry: {name}", file=sys.stderr)
        print(
            "re-record the committed baseline from a bench-preset build "
            "(e.g. ./bench_binary --benchmark_out_format=json "
            f"--benchmark_out={args.baseline}), or pass --allow-new if "
            "landing these arms with a baseline refresh",
            file=sys.stderr,
        )
        return 1
    for name in missing_baseline:
        print(f"note: {name} only in candidate (--allow-new)")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
