#!/usr/bin/env python3
"""Pins the numbers a run produces: checks (or re-records) the sha256 of
its perf-stripped JSONL telemetry.

  python3 scripts/telemetry_digest.py RUN.jsonl            # check
  python3 scripts/telemetry_digest.py RUN.jsonl --record   # re-record

Every JSONL record keeps its machine-dependent "perf" object as the last
key, so cutting each line at ',"perf"' leaves the deterministic part:
losses, selection statistics, noise scales, accuracy rows. Its digest is
compared with scripts/digests/telemetry_smoke.<tier>.sha256, where <tier>
is the SIMD tier the run reports in its kernels.dispatch gauge ("scalar" or
"avx2"): the two tiers round differently, so each has its own digest.

verify.sh checks its telemetry smoke run this way. Re-record both tiers
after a change that is meant to move the numbers:

  dir=$(mktemp -d)  # fresh: --metrics_out appends to an existing file
  for tier in avx2 scalar; do
    EDSR_SIMD=$tier ./build/examples/image_continual 0 --method=edsr \\
        --epochs 2 --metrics_out=$dir/run.$tier.jsonl >/dev/null
    python3 scripts/telemetry_digest.py $dir/run.$tier.jsonl --record
  done

The digests are tied to the toolchain that recorded them (GCC 12.2,
x86-64, glibc libm, the repository's -O2): another compiler or libm may
round a transcendental or schedule an operation differently and change the
last bits of a loss.
"""

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_DIR = os.path.join(HERE, "digests")
TIER_NAMES = {0: "scalar", 1: "avx2"}


def stripped_lines(path):
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                yield line.split(',"perf"', 1)[0]


def reported_tier(path):
    tiers = set()
    with open(path) as f:
        for line in f:
            gauges = (json.loads(line).get("perf", {}).get("metrics", {})
                      .get("gauges", {}))
            if "kernels.dispatch" in gauges:
                tiers.add(int(gauges["kernels.dispatch"]))
    if len(tiers) != 1 or next(iter(tiers)) not in TIER_NAMES:
        sys.exit("%s: expected one kernels.dispatch tier, found %s"
                 % (path, sorted(tiers)))
    return TIER_NAMES[tiers.pop()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("jsonl")
    parser.add_argument("--record", action="store_true",
                        help="write the digest instead of checking it")
    args = parser.parse_args()

    digest = hashlib.sha256()
    for line in stripped_lines(args.jsonl):
        digest.update((line + "\n").encode())
    actual = digest.hexdigest()
    tier = reported_tier(args.jsonl)
    path = os.path.join(DIGEST_DIR, "telemetry_smoke.%s.sha256" % tier)

    if args.record:
        os.makedirs(DIGEST_DIR, exist_ok=True)
        with open(path, "w") as f:
            f.write(actual + "\n")
        print("recorded %s %s" % (os.path.relpath(path), actual))
        return 0
    if not os.path.exists(path):
        sys.exit("no digest for tier %s: %s is missing (see --record)"
                 % (tier, os.path.relpath(path)))
    with open(path) as f:
        expected = f.read().strip()
    if actual != expected:
        sys.exit("telemetry digest mismatch on tier %s: %s, expected %s "
                 "(%s)\nthe run's numbers changed; re-record only if that "
                 "was intended" % (tier, actual, expected,
                                   os.path.relpath(path)))
    print("telemetry digest ok (%s): %s" % (tier, actual))
    return 0


if __name__ == "__main__":
    sys.exit(main())
