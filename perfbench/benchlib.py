"""Shared definitions of the end-to-end benchmark.

The metric table, the statistics every printed number goes through, the
learn_serve request schedule, and the bench context. run.py, compare.py and
test_perfbench.py import this module; BENCHMARK.json must agree with the
tables here (test_perfbench.py checks it).
"""

import bisect
import hashlib
import itertools
import math
import os
import random
import re

WORKLOADS = ("paper_increments", "dirty_stream", "learn_serve")

# Seeds: DEFAULT_SEED is the one changes are developed against; a claimed gain
# must also hold on HELD_OUT_SEED, which is never used while tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# ---- learn_serve traffic (calibrated once on a 4-core x86-64 AVX2 box, then
# fixed; changing any of these is a benchmark change, not an optimisation).
POOL_SIZE = 256           # distinct Embed/KnnLabel inputs
ZIPF_S = 1.3              # skew of pool draws, so the cache can hit
KNN_SHARE = 0.3           # share of serve requests that are KnnLabel
# Fixed serve rates, one step each. The three serve connections saturate at
# 77-87k replies/s on the calibration box, so the ladder brackets that
# capacity: 50k meets the limit (p99 a few ms), 100k does not (its
# backlog grows to seconds). README.md has the calibration figures.
LADDER_RPS = (12500, 25000, 50000, 100000)
# serve_p50_us / serve_p99_us are read at this step: the highest one below
# capacity. The top step is past capacity, so its latency is its backlog.
SERVE_REF_STEP = 2
INGEST_RPS = 128          # kIngest frames per second (2 cycles of 64 per s)
CYCLE_SAMPLES = 64        # the daemon's count:n=64 trigger
WARMUP_S = 1.0            # ingest only: the first cycle builds the kNN bank
# Serve p99 limit of serve_max_rps. Loopback p99 on a shared 4-vCPU box is
# several ms of scheduling noise alone, hence the generous limit.
LATENCY_LIMIT_US = 20000.0
# A generator whose own p99 lateness reaches the latency limit cannot tell
# whether the server meets it: such a run is void.
GEN_LAG_BOUND_US = LATENCY_LIMIT_US

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# END_TO_END: name -> (unit, better, bound), printed by an untraced run of
# every workload, so each has a meaning on every workload (README.md).
# PER_LAYER: name -> (unit, better), printed by a traced run (0 where the
# workload does not exercise the layer).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "op_ms_p50": ("ms", "lower", 0.24),
}
PER_LAYER = {
    # Throughput and the workload-specific end-to-end numbers, under their
    # own names.
    "samples_per_s": ("1/s", "higher"),
    "op_count": ("count", "higher"),
    "op_ms_tail": ("ms", "lower"),
    "op_tail_pct": ("%", "higher"),
    "increment_ms_p50": ("ms", "lower"),
    "final_acc": ("%", "higher"),
    "stream_samples_per_s": ("1/s", "higher"),
    "cycle_ms_p50": ("ms", "lower"),
    "cycle_ms_p90": ("ms", "lower"),
    "final_id_acc": ("%", "higher"),
    "serve_knn_acc": ("%", "higher"),
    "serve_p50_us": ("us", "lower"),
    "serve_p99_us": ("us", "lower"),
    "serve_max_rps": ("1/s", "higher"),
    "freshness_ms_p50": ("ms", "lower"),
    "ingest_ack_p99_us": ("us", "lower"),
    "error_rate": ("fraction", "lower"),
    # cl / core / eval / stream / io / tensor: timers and spans.
    "cl.learn_increment_ms": ("ms", "lower"),
    "cl.batch_us": ("us", "lower"),
    "core.replay_us": ("us", "lower"),
    "cl.retrieval_reps_us": ("us", "lower"),
    "core.selection_ms": ("ms", "lower"),
    "eval.task_ms": ("ms", "lower"),
    "eval.knn_ms": ("ms", "lower"),
    "stream.cycle_train_ms": ("ms", "lower"),
    "stream.cycle_eval_ms": ("ms", "lower"),
    "io.checkpoint_ms": ("ms", "lower"),
    "io.checkpoint_bytes": ("bytes", "lower"),
    "tensor.gemm_flops": ("flop", "lower"),
    "tensor.pairwise_flops": ("flop", "lower"),
    "tensor.gemm_gflops": ("GFLOP/s", "higher"),
    "tensor.arena_pool_misses": ("count", "lower"),
    # serve / daemon: in-band kMetrics of the daemon process.
    "serve.stage.accept_p50_us": ("us", "lower"),
    "serve.stage.accept_p99_us": ("us", "lower"),
    "serve.stage.queue_p50_us": ("us", "lower"),
    "serve.stage.queue_p99_us": ("us", "lower"),
    "serve.stage.forward_p50_us": ("us", "lower"),
    "serve.stage.forward_p99_us": ("us", "lower"),
    "serve.stage.reply_p50_us": ("us", "lower"),
    "serve.stage.reply_p99_us": ("us", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.cache_hit_rate": ("fraction", "higher"),
    "serve.cache_lookups": ("count", "higher"),
    "serve.overloaded": ("count", "lower"),
    "serve.queue_depth_max": ("count", "lower"),
    "serve.protocol_overhead_us": ("us", "lower"),
    "daemon.cycle_ms_p50": ("ms", "lower"),
    "serve.swaps": ("count", "higher"),
    "daemon.ingest_us_p99": ("us", "lower"),
    "daemon.pending_max": ("count", "lower"),
    "gen.lag_us_p99": ("us", "lower"),
    # The trace itself.
    "obs.trace_overhead": ("fraction", "lower"),
    "unattributed_share": ("fraction", "lower"),
}


# ---- statistics -------------------------------------------------------------

def percentile(values, pct):
    """Linear-interpolated percentile (pct in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50.0)


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values):
    """The highest percentile of TAIL_LADDER with at least ten samples beyond
    it: returns (pct, value, count). With fewer than 20 samples no tail is
    supported and the median is returned as pct 50."""
    n = len(values)
    for pct in TAIL_LADDER:
        if supports(values, pct):
            return pct, percentile(values, pct), n
    return 50.0, percentile(values, 50.0), n


def supports(values, pct):
    """True when `values` has at least ten samples beyond percentile pct
    (with slack for the rounding of e.g. 100 - 99.9)."""
    return len(values) * (100.0 - pct) / 100.0 >= 10.0 - 1e-9


# ---- learn_serve schedule ---------------------------------------------------

def zipf_weights(n, s):
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def serve_steps(seconds):
    """(start_s, end_s, rate) of each ladder step for a run of `seconds`."""
    step = max(seconds - WARMUP_S, 1.0) / len(LADDER_RPS)
    return [(WARMUP_S + k * step, WARMUP_S + (k + 1) * step, rate)
            for k, rate in enumerate(LADDER_RPS)]


def make_schedule(seed, seconds):
    """The learn_serve schedule as text lines, a pure function of the seed
    and the run length:

      pool <n>
      I <t_s>                         one kIngest frame
      S <t_s> <E|K> <pool_idx> <step> one Embed / KnnLabel request

    Ingest: the first cycle's frames are due at 0 (they build the kNN bank
    before serving starts), then Poisson at INGEST_RPS until the last step
    ends, cut to whole cycles. Serve: Poisson at each ladder rate in turn,
    inputs drawn Zipf(ZIPF_S) from the pool through a seeded permutation."""
    rng = random.Random(seed)
    steps = serve_steps(seconds)
    end = steps[-1][1]
    lines = ["pool %d" % POOL_SIZE]

    ingest = [0.0] * CYCLE_SAMPLES
    t = 0.0
    while True:
        t += rng.expovariate(INGEST_RPS)
        if t >= end:
            break
        ingest.append(t)
    del ingest[len(ingest) - len(ingest) % CYCLE_SAMPLES:]
    lines.extend("I %.6f" % t for t in ingest)

    ranks = list(range(POOL_SIZE))
    rng.shuffle(ranks)
    cumulative = list(itertools.accumulate(zipf_weights(POOL_SIZE, ZIPF_S)))
    last_rank = POOL_SIZE - 1
    for index, (start, stop, rate) in enumerate(steps):
        t = start
        while True:
            t += rng.expovariate(rate)
            if t >= stop:
                break
            kind = "K" if rng.random() < KNN_SHARE else "E"
            rank = min(bisect.bisect(cumulative, rng.random()), last_rank)
            lines.append("S %.6f %s %d %d" % (t, kind, ranks[rank], index))
    return lines


# ---- output schema ----------------------------------------------------------

def check_result_line(result, trace):
    """Problems with a final result object (empty list = valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(result))
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(
                result.get(key), bool):
            problems.append("%s is not an integer" % key)
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = PER_LAYER if trace else END_TO_END
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metric names differ: %s" %
                        sorted(set(metrics) ^ set(expected)))
    for name, metric in metrics.items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if set(metric) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(metric)))
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number" %
                            (name, value))
        if name in expected and metric["unit"] != expected[name][0]:
            problems.append("%s: unit %r" % (name, metric["unit"]))
    return problems


# ---- bench context ----------------------------------------------------------

# The fields that must be equal for two results to be compared. The source
# digest identifies the side of a comparison and is deliberately not here.
CONTEXT_KEYS = ("nproc", "simd", "kernels_threads", "ndebug", "build_type",
                "compiler", "workload")


def source_digest(root):
    """A sha256 over the benchmark's inputs: the program sources and this
    benchmark. It stands in for a commit id, since the benchmark also runs
    in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "examples", "bench"):
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def context_mismatch(a, b):
    """Context fields on which two results differ (empty = comparable)."""
    return [key for key in CONTEXT_KEYS if a.get(key) != b.get(key)]
