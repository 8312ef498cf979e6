#!/usr/bin/env python3
"""The end-to-end benchmark: one command for every workload.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (the edsr library from
src/, the learn_serve_daemon server and the harness) under
$CARGO_TARGET_DIR/perfbench-<checkout> (default .bench_build/), runs the
workload, checks its outputs, and prints each metric by name and unit. The
last line of standard output is the result object:

  {"correct": true, "attempted": n, "failed": n, "metrics": {...}}

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run and prints the per-layer table instead. A run that fails a correctness
check prints "correct": false with no metrics and exits 1. Each result is
also saved under the build directory's results/ for compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def build_dir():
    """One build directory per checkout, so two checkouts sharing
    $CARGO_TARGET_DIR never build, measure or compare each other's code."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    checkout = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.abspath(os.path.join(base, "perfbench-" + checkout))


def build(out_dir):
    """Configures (once) and builds the benchmark package; returns the
    harness and daemon paths."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no program sources: %s/src is missing" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            raise BenchError("build step failed: %s" % " ".join(step))
    return (os.path.join(out_dir, "perfbench_harness"),
            os.path.join(out_dir, "learn_serve_daemon"))


def run_harness(harness, daemon, args, out_dir):
    workdir = os.path.join(out_dir, "run", "%s-%d" % (args.workload,
                                                      os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    report_path = os.path.join(workdir, "report.json")
    # Reproducibility digests are kept per version of the sources: runs of
    # the same code must agree bit for bit, other code starts afresh.
    refs = os.path.join(out_dir, "refs", args.source.replace(":", "-"))
    command = [harness, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out", report_path, "--workdir", workdir,
               "--refs", refs]
    if args.workload == "learn_serve":
        schedule = os.path.join(workdir, "schedule.txt")
        with open(schedule, "w") as handle:
            handle.write("\n".join(bl.make_schedule(args.seed,
                                                    args.seconds)) + "\n")
        command += ["--schedule", schedule, "--daemon", daemon]
    # The harness and the daemon it spawns share a new process group, so
    # nothing outlives the run even if the harness dies first.
    harness_process = subprocess.Popen(command, stdout=sys.stderr,
                                       start_new_session=True)
    try:
        code = harness_process.wait(timeout=RUN_TIMEOUT_S)
        if code != 0:
            raise BenchError("harness exited with %d" % code)
        with open(report_path) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        raise BenchError("harness timed out")
    finally:
        stop_group(harness_process)
        shutil.rmtree(workdir, ignore_errors=True)


def stop_group(process):
    """Kills what is left of the harness's process group and waits until
    every member has ended."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    process.wait()
    deadline = time.time() + 10.0
    while time.time() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ---- metrics ----------------------------------------------------------------

def ratio(num, den):
    return num / den if den else 0.0


STEP_FIELDS = ("count", "ok", "p50_us", "p99_us", "last_tenth_p50_us",
               "replies_per_s")


def serve_steps(values, prefix=""):
    """The harness's per-step serve summaries of one pass, in ladder order."""
    return [{field: values["%sserve.step%d.%s" % (prefix, k, field)]
             for field in STEP_FIELDS} for k in range(len(bl.LADDER_RPS))]


def step_meets_limit(step):
    # A growing backlog shows as late requests piling up at the step's end.
    return (step["ok"] == step["count"] > 0
            and step["p99_us"] <= bl.LATENCY_LIMIT_US
            and step["last_tenth_p50_us"] <= bl.LATENCY_LIMIT_US)


def end_to_end(workload, report):
    s, v = report["samples"], report["values"]
    return {"setup_s": bl.median(s["setup_s"]),
            "peak_rss_mb": v["peak_rss_mb"],
            "op_ms_p50": bl.median(s["freshness_ms"] if workload == "learn_serve"
                                   else s["op_ms"])}


def samples_per_s(workload, report):
    """Training samples per wall second of a pass (median over passes);
    learn_serve: replies per wall second at the top ladder step, which is past
    capacity, so this is the serving capacity."""
    s, v = report["samples"], report["values"]
    if workload != "learn_serve":
        return bl.median([v["train_samples"] / p for p in s["pass_s"]])
    return serve_steps(v)[-1]["replies_per_s"]


def span_mean(v, name, scale=1.0):
    return ratio(v.get("span.%s_ms" % name, 0.0) * scale,
                 v.get("span.%s_count" % name, 0.0))


def per_layer(workload, report):
    s, v = report["samples"], report["values"]
    out = {name: 0.0 for name in bl.PER_LAYER}
    out["samples_per_s"] = samples_per_s(workload, report)
    out["error_rate"] = ratio(report["failed"], report["attempted"])
    for name in ("obs.trace_overhead", "unattributed_share",
                 "io.checkpoint_bytes", "tensor.gemm_flops",
                 "tensor.pairwise_flops", "tensor.gemm_gflops",
                 "tensor.arena_pool_misses"):
        out[name] = v.get(name, 0.0)

    if workload == "learn_serve":
        steps = serve_steps(v)
        ops = s["freshness_ms"]
        out["serve_knn_acc"] = s["quality_pct"][0]
        out["serve_p50_us"] = steps[bl.SERVE_REF_STEP]["p50_us"]
        out["serve_p99_us"] = steps[bl.SERVE_REF_STEP]["p99_us"]
        out["serve_max_rps"] = max(
            [rate for rate, step in zip(bl.LADDER_RPS, steps)
             if step_meets_limit(step)], default=0.0)
        out["freshness_ms_p50"] = bl.median(ops)
        out["ingest_ack_p99_us"] = bl.percentile(s["ingest_ack_us"], 99.0)
        out["gen.lag_us_p99"] = v["serve.lag_p99_us"]
        for stage in ("accept", "queue", "forward", "reply"):
            for q in ("p50", "p99"):
                out["serve.stage.%s_%s_us" % (stage, q)] = v[
                    "serve.stage.%s.%s" % (stage, q)]
        out["serve.batch_size_mean"] = v["serve.batch_size_mean"]
        lookups = v["serve.cache.hits"] + v["serve.cache.misses"]
        out["serve.cache_lookups"] = lookups
        out["serve.cache_hit_rate"] = ratio(v["serve.cache.hits"], lookups)
        out["serve.overloaded"] = v["serve.overloaded"]
        out["serve.queue_depth_max"] = max(s["serve_queue_depth"], default=0)
        # Client round trip minus the server's accept-to-reply time, as
        # means over the polled pass's requests (the server keeps sums).
        rtt_us = v["traced.serve.rtt_mean_us"]
        server_us = ratio(v["serve.lat.embed.sum"] + v["serve.lat.knn.sum"],
                          v["serve.lat.embed.count"] + v["serve.lat.knn.count"])
        out["serve.protocol_overhead_us"] = rtt_us - server_us
        out["daemon.cycle_ms_p50"] = v["daemon.cycle_ms"]
        out["serve.swaps"] = v["serve.swaps"]
        out["daemon.ingest_us_p99"] = v["daemon.ingest_us"]
        out["daemon.pending_max"] = max(s["daemon_pending"], default=0)
        # The daemon is never traced: obs.trace_overhead stays 0.
        out["unattributed_share"] = 1.0 - ratio(server_us, rtt_us)
    else:
        ops = s["op_ms"]
        out["cl.batch_us"] = ratio(v["span.batch_self_ms"] * 1e3,
                                   v["span.batch_count"])
        out["core.replay_us"] = span_mean(v, "replay", 1e3)
        out["cl.retrieval_reps_us"] = span_mean(
            v, "retrieval_representations", 1e3)
        out["core.selection_ms"] = span_mean(v, "selection")
        out["eval.knn_ms"] = span_mean(v, "knn_eval")
        if workload == "paper_increments":
            out["increment_ms_p50"] = bl.median(ops)
            out["final_acc"] = s["quality_pct"][0]
            out["cl.learn_increment_ms"] = v["cl.learn_increment_ms"]
            out["eval.task_ms"] = v["eval.task_ms"]
            out["io.checkpoint_ms"] = v["io.checkpoint_ms"]
        else:
            out["cycle_ms_p50"] = bl.median(ops)
            out["cycle_ms_p90"] = bl.percentile(ops, 90.0)
            out["stream_samples_per_s"] = out["samples_per_s"]
            out["final_id_acc"] = s["quality_pct"][0]
            out["eval.task_ms"] = span_mean(v, "eval_task")
            out["stream.cycle_train_ms"] = bl.median(s["cycle_train_ms"])
            out["stream.cycle_eval_ms"] = bl.median(s["cycle_eval_ms"])
            out["io.checkpoint_ms"] = span_mean(v, "stream_checkpoint_save")
    out["op_tail_pct"], out["op_ms_tail"], out["op_count"] = bl.tail(ops)
    return out


def validity_problems(workload, report):
    """Failed checks, plus the generator-integrity rule of learn_serve."""
    problems = ["%s: %s" % (c["name"], c["detail"])
                for c in report["checks"] if not c["ok"]]
    if workload == "learn_serve" and not problems:
        for prefix in ("", "traced.") if report["trace"] else ("",):
            lag = report["values"][prefix + "serve.lag_p99_us"]
            if lag > bl.GEN_LAG_BOUND_US:
                problems.append(
                    "%sgenerator fell behind: lag p99 %.0f us > %.0f us" %
                    (prefix, lag, bl.GEN_LAG_BOUND_US))
    return problems


def print_serve_steps(report):
    """The ladder of the measured pass, one line per step: the record behind
    serve_max_rps and of where capacity lies."""
    for rate, step in zip(bl.LADDER_RPS, serve_steps(report["values"])):
        print("  step %6d rps: %7d sent  p50 %10.0f us  p99 %10.0f us  "
              "last-tenth p50 %10.0f us  %8.0f replies/s  %s" % (
                  rate, step["count"], step["p50_us"], step["p99_us"],
                  step["last_tenth_p50_us"], step["replies_per_s"],
                  "meets limit" if step_meets_limit(step) else "misses limit"))


def save_result(out_dir, args, report, metrics):
    results = os.path.join(out_dir, "results", args.workload)
    os.makedirs(results, exist_ok=True)
    context = dict(report["context"], workload=args.workload)
    record = {"context": context, "source": args.source,
              "seed": args.seed, "trace": args.trace, "metrics": metrics}
    name = "seed%d-trace%d-%d.json" % (args.seed, args.trace,
                                       int(time.time() * 1e3))
    with open(os.path.join(results, name), "w") as handle:
        json.dump(record, handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=bl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=bl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    args.source = bl.source_digest(ROOT)
    try:
        harness, daemon = build(out_dir)
        report = run_harness(harness, daemon, args, out_dir)
    except BenchError as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 2

    problems = validity_problems(args.workload, report)
    if problems:
        for problem in problems:
            sys.stderr.write("perfbench: check failed: %s\n" % problem)
        print(json.dumps({"correct": False, "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": {}}))
        return 1

    table = bl.PER_LAYER if args.trace else bl.END_TO_END
    values = (per_layer(args.workload, report) if args.trace else
              end_to_end(args.workload, report))
    metrics = {name: {"value": values[name], "unit": table[name][0]}
               for name in table}
    print("# %s seed=%d trace=%d context=%s" % (
        args.workload, args.seed, args.trace,
        json.dumps(report["context"], sort_keys=True)))
    for name in table:
        print("  %-28s %16.6g %s" % (name, values[name], table[name][0]))
    if args.workload == "learn_serve":
        print_serve_steps(report)
    save_result(out_dir, args, report, metrics)
    result = {"correct": True, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    problems = bl.check_result_line(result, bool(args.trace))
    if problems:
        sys.stderr.write("perfbench: bad result: %s\n" % "; ".join(problems))
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
