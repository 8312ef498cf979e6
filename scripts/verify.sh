#!/usr/bin/env bash
# Full verification in one command: tier-1 configure/build/ctest, then the
# same suite under the ASan/UBSan `sanitize` preset, then the concurrent
# suites under the ThreadSanitizer `tsan` preset. Exits non-zero on the
# first failure.
#
# Opt-in perf gate: `scripts/verify.sh --bench` additionally re-runs the
# micro-benchmarks from the Release build and fails if any benchmark
# regressed more than 15% against the committed BENCH_micro_kernels.json /
# BENCH_train_step.json / BENCH_serve.json / BENCH_selection.json /
# BENCH_daemon.json baselines (see scripts/bench_compare.py).
set -euo pipefail

RUN_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    *) echo "usage: $0 [--bench]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier 1: default build =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure

echo "== telemetry: smoke run + schema validation =="
TELEM_DIR="$(mktemp -d)"
trap 'rm -rf "${TELEM_DIR}"' EXIT
./build/examples/image_continual 0 --method=edsr --epochs 2 \
    --metrics_out="${TELEM_DIR}/run.jsonl" \
    --trace_out="${TELEM_DIR}/trace.json" >/dev/null
python3 scripts/validate_telemetry.py "${TELEM_DIR}/run.jsonl" \
    --trace "${TELEM_DIR}/trace.json"
# The same run pins the numbers: its perf-stripped records must hash to the
# committed digest of the SIMD tier it ran on (scripts/digests/; re-record
# command in scripts/telemetry_digest.py). A second run forced onto the
# scalar tier checks the other digest, so an AVX2 host checks both.
python3 scripts/telemetry_digest.py "${TELEM_DIR}/run.jsonl"
EDSR_SIMD=scalar ./build/examples/image_continual 0 --method=edsr --epochs 2 \
    --metrics_out="${TELEM_DIR}/run_scalar.jsonl" >/dev/null
python3 scripts/telemetry_digest.py "${TELEM_DIR}/run_scalar.jsonl"
# The other examples: quickstart (headless encoder, printed summary only),
# tabular_continual (the paper's tabular experiment, the only example on the
# per-increment input-head path) and selection_demo (one record per selector).
./build/examples/quickstart >/dev/null
./build/examples/tabular_continual 0 --epochs 2 \
    --metrics_out="${TELEM_DIR}/tabular.jsonl" >/dev/null
python3 scripts/validate_telemetry.py "${TELEM_DIR}/tabular.jsonl"
./build/examples/selection_demo \
    --metrics_out="${TELEM_DIR}/selection_demo.jsonl" >/dev/null
python3 scripts/validate_telemetry.py "${TELEM_DIR}/selection_demo.jsonl"

echo "== selection lab: 2x2 matrix smoke + report =="
./build/examples/selection_matrix --epochs 1 \
    --selectors random,high-entropy --retrievals uniform,max-loss \
    --presets hard --budgets 4 \
    --metrics_out="${TELEM_DIR}/matrix.jsonl" >/dev/null
python3 scripts/validate_telemetry.py "${TELEM_DIR}/matrix.jsonl"
python3 scripts/report_matrix.py "${TELEM_DIR}/matrix.jsonl" --by selector

echo "== serve: test label + loopback smoke =="
ctest --test-dir build -L serve --output-on-failure
# End-to-end: train two increments with checkpointing, serve increment 1
# over loopback TCP, hot-swap to increment 2 mid-traffic. The binary exits
# non-zero on any dropped or mixed response; the validator re-checks the
# emitted serve record (mixed_responses == 0, perf last).
./build/examples/serve_embeddings \
    --metrics_out="${TELEM_DIR}/serve.jsonl" >/dev/null
python3 scripts/validate_telemetry.py "${TELEM_DIR}/serve.jsonl"

echo "== ops plane: live kMetrics/kStatus + crash flight recorder =="
# A serve_ops server with the full ops stack (SLO tracker, time-series
# exporter, flight recorder), queried in-band over the TCP protocol while
# load runs, then killed two ways: SIGKILL (only the mmap'd ring survives;
# flight_decode.py reconstructs the dump) and SIGTERM (the in-process
# signal handler writes flight_<pid>.json directly).
OPS_DIR="${TELEM_DIR}/ops"
mkdir -p "${OPS_DIR}"
./build/examples/serve_ops --slo "embed:p99<50ms,err<1%" \
    --timeseries_out="${OPS_DIR}/ts.jsonl" --metrics_interval_ms 50 \
    --flight_dir "${OPS_DIR}" > "${OPS_DIR}/server.out" &
OPS_WRAPPER=$!
for _ in $(seq 1 100); do
  grep -q "^PID " "${OPS_DIR}/server.out" 2>/dev/null && break
  sleep 0.1
done
OPS_PORT="$(awk '/^PORT /{print $2}' "${OPS_DIR}/server.out")"
OPS_PID="$(awk '/^PID /{print $2}' "${OPS_DIR}/server.out")"
./build/examples/serve_ops --connect "${OPS_PORT}" --load 40 \
    | grep -q "^LOAD_OK 40 0$"
# Both kMetrics modes and kStatus answer live, with sane payloads.
./build/examples/serve_ops --connect "${OPS_PORT}" --query metrics \
    --mode json > "${OPS_DIR}/metrics.json"
python3 - "${OPS_DIR}/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["metrics"]["latency"]["serve.lat.embed"]["count"] >= 40, doc
assert isinstance(doc["slo"], list) and doc["slo"], "SLO state missing"
assert not any(o["breach"] for o in doc["slo"]), "healthy load breached SLO"
EOF
./build/examples/serve_ops --connect "${OPS_PORT}" --query metrics \
    --mode text | grep -q 'serve_lat_embed_us{quantile="0.99"}'
./build/examples/serve_ops --connect "${OPS_PORT}" --query status \
    > "${OPS_DIR}/status.json"
python3 - "${OPS_DIR}/status.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["snapshot"]["source"] == "serve-ops", doc
assert doc["last_rid"] >= 43 and doc["slo_breached"] == 0, doc
EOF
# kill -9: no handler can run, but the mmap'd ring survives the kernel's
# teardown. Decode it and validate the reconstructed dump.
kill -9 "${OPS_PID}"
wait "${OPS_WRAPPER}" 2>/dev/null || true
test -s "${OPS_DIR}/flight_${OPS_PID}.bin"
test ! -e "${OPS_DIR}/flight_${OPS_PID}.json"  # SIGKILL: no JSON dump
python3 scripts/flight_decode.py "${OPS_DIR}/flight_${OPS_PID}.bin" \
    -o "${OPS_DIR}/flight_decoded.json"
python3 scripts/validate_telemetry.py "${OPS_DIR}/ts.jsonl" \
    --flight "${OPS_DIR}/flight_decoded.json"
# SIGTERM: the async-signal-safe handler writes flight_<pid>.json itself.
./build/examples/serve_ops --flight_dir "${OPS_DIR}" \
    > "${OPS_DIR}/server2.out" &
OPS_WRAPPER=$!
for _ in $(seq 1 100); do
  grep -q "^PID " "${OPS_DIR}/server2.out" 2>/dev/null && break
  sleep 0.1
done
OPS_PID="$(awk '/^PID /{print $2}' "${OPS_DIR}/server2.out")"
kill -TERM "${OPS_PID}"
wait "${OPS_WRAPPER}" 2>/dev/null || true
for _ in $(seq 1 50); do
  test -s "${OPS_DIR}/flight_${OPS_PID}.json" && break
  sleep 0.1
done
python3 scripts/validate_telemetry.py "${OPS_DIR}/ts.jsonl" \
    --flight "${OPS_DIR}/flight_${OPS_PID}.json"

echo "== stream: test label + boundary-free smoke =="
ctest --test-dir build -L stream --output-on-failure
# End-to-end: a dirty (imbalance + label-noise) stream through both trigger
# kinds with an OOD probe, then a mid-stream kill (stop_after_cycle) resumed
# bit-identically — the stripped record streams and the final checkpoints
# must match exactly.
./build/examples/stream_continual --methods edsr --samples 128 \
    --micro_batch 16 \
    --streams "SynthCifar10|imbalance:alpha=1.2|label_noise:p=0.2" \
    --triggers "count:n=48;drift:threshold=0.001,min=32,max=64,check=1" \
    --metrics_out="${TELEM_DIR}/stream.jsonl" >/dev/null
python3 scripts/validate_telemetry.py "${TELEM_DIR}/stream.jsonl"
./build/examples/stream_continual --methods edsr --samples 128 \
    --micro_batch 16 --triggers "count:n=48" \
    --metrics_out="${TELEM_DIR}/stream_straight.jsonl" \
    --checkpoint_dir="${TELEM_DIR}/stream_ckpt_a" >/dev/null
./build/examples/stream_continual --methods edsr --samples 128 \
    --micro_batch 16 --triggers "count:n=48" \
    --metrics_out="${TELEM_DIR}/stream_resumed.jsonl" \
    --checkpoint_dir="${TELEM_DIR}/stream_ckpt_b" --stop_after_cycle 0 \
    >/dev/null
./build/examples/stream_continual --methods edsr --samples 128 \
    --micro_batch 16 --triggers "count:n=48" \
    --metrics_out="${TELEM_DIR}/stream_resumed.jsonl" \
    --checkpoint_dir="${TELEM_DIR}/stream_ckpt_b" --resume >/dev/null
sed 's/,"perf".*//' "${TELEM_DIR}/stream_straight.jsonl" \
    > "${TELEM_DIR}/stream_straight.stripped"
sed 's/,"perf".*//' "${TELEM_DIR}/stream_resumed.jsonl" \
    > "${TELEM_DIR}/stream_resumed.stripped"
diff "${TELEM_DIR}/stream_straight.stripped" \
    "${TELEM_DIR}/stream_resumed.stripped"
cmp "${TELEM_DIR}/stream_ckpt_a/edsr-s0-t0/stream.ckpt" \
    "${TELEM_DIR}/stream_ckpt_b/edsr-s0-t0/stream.ckpt"
python3 scripts/validate_telemetry.py "${TELEM_DIR}/stream_resumed.jsonl"

echo "== daemon: test label + kill -9 torture =="
ctest --test-dir build -L daemon --output-on-failure
# Three SIGKILLs (mid-ingest, mid-training-cycle, at the checkpoint/swap
# boundary), each followed by a restart; the final checkpoint, journal, and
# perf-stripped telemetry must be byte-identical to an uninterrupted run.
scripts/daemon_torture.sh build/examples/learn_serve_daemon
# Telemetry: a short online session over TCP, then schema-validate the
# per-cycle records (monotonic cycles, accumulating totals, perf last).
DAEMON_DIR="${TELEM_DIR}/daemon"
./build/examples/learn_serve_daemon --dir "${DAEMON_DIR}" \
    --trigger "count:n=32" --micro_batch 8 --no_fsync \
    > "${TELEM_DIR}/daemon.out" &
DAEMON_WRAPPER=$!
for _ in $(seq 1 100); do
  grep -q "^PID " "${TELEM_DIR}/daemon.out" 2>/dev/null && break
  sleep 0.1
done
DAEMON_PORT="$(awk '/^PORT /{print $2}' "${TELEM_DIR}/daemon.out")"
DAEMON_PID="$(awk '/^PID /{print $2}' "${TELEM_DIR}/daemon.out")"
./build/examples/learn_serve_daemon --connect "${DAEMON_PORT}" \
    --stream "SynthCifar10|label_noise:p=0.1" --seed 7 --ingest 64 \
    | grep -q "^INGEST_OK 64 0 64$"
./build/examples/learn_serve_daemon --connect "${DAEMON_PORT}" \
    --wait_cycles 2 --timeout_ms 60000 >/dev/null
kill -9 "${DAEMON_PID}"
wait "${DAEMON_WRAPPER}" 2>/dev/null || true
python3 scripts/validate_telemetry.py "${DAEMON_DIR}/daemon.jsonl"

echo "== tier 2: sanitize preset (ASan/UBSan) =="
cmake --preset sanitize
cmake --build --preset sanitize -j "${JOBS}"
ctest --test-dir build-sanitize --output-on-failure

echo "== tier 2b: sanitize with EDSR_NUM_THREADS=4 (threadpool races) =="
# Re-run the suites that exercise the parallel kernels (perf = kernels/
# arena/threadpool), the serving path, and streaming under a 4-worker
# pool: ASan/UBSan catch cross-thread arena misuse and the determinism
# tests catch decomposition bugs the 1-thread default hides.
EDSR_NUM_THREADS=4 ctest --test-dir build-sanitize \
    -L 'perf|serve|stream' --output-on-failure

echo "== tier 2c: tsan preset (ThreadSanitizer, EDSR_NUM_THREADS=4) =="
# Data races in the concurrent components: GEMM workers reading their
# operands in place, the threadpool, obs, the server, stream and daemon.
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}"
EDSR_NUM_THREADS=4 ctest --test-dir build-tsan \
    -L 'perf|obs|serve|stream|daemon' --output-on-failure

if [[ "${RUN_BENCH}" -eq 1 ]]; then
  echo "== perf gate: micro-benchmarks vs committed baselines =="
  TMP_DIR="$(mktemp -d)"
  trap 'rm -rf "${TMP_DIR}" "${TELEM_DIR}"' EXIT  # replaces the TELEM trap
  # 3 repetitions on every gate; bench_compare scores the BEST repetition
  # (min time / max throughput) on each side. Single runs on a busy 1-core
  # box breach the 15% threshold stochastically — different arms each run.
  ./build/bench/bench_micro_kernels \
      --benchmark_repetitions=3 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/micro_kernels.json" >/dev/null
  ./build/bench/bench_micro_train_step \
      --benchmark_repetitions=3 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/train_step.json" >/dev/null
  python3 scripts/bench_compare.py BENCH_micro_kernels.json \
      "${TMP_DIR}/micro_kernels.json"
  # Dispatch-tier speedup table: scalar vs AVX2 (and AVX2 thread scaling)
  # from the BM_GemmDispatch arms just recorded. Informational — the
  # regression gate above already covers these rows.
  python3 - "${TMP_DIR}/micro_kernels.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = {}
for b in doc.get("benchmarks", []):
    name = b.get("run_name", b["name"])
    if not name.startswith("BM_GemmDispatch"):
        continue
    # Best repetition, matching the bench_compare gate statistic.
    if b.get("run_type") != "aggregate":
        rows[name] = min(rows.get(name, b["real_time"]), b["real_time"])
print("\nGEMM dispatch speedups (BM_GemmDispatch/size/tier/threads):")
for size in (128, 256, 512):
    scalar = rows.get(f"BM_GemmDispatch/{size}/0/1")
    simd = rows.get(f"BM_GemmDispatch/{size}/1/1")
    if scalar and simd:
        print(f"  {size}^3: scalar/avx2 1-thread speedup {scalar/simd:.2f}x")
for threads in (2, 4):
    simd = rows.get("BM_GemmDispatch/512/1/1")
    multi = rows.get(f"BM_GemmDispatch/512/1/{threads}")
    if simd and multi:
        print(f"  512^3: avx2 {threads}-thread scaling {simd/multi:.2f}x")
EOF
  python3 scripts/bench_compare.py BENCH_train_step.json \
      "${TMP_DIR}/train_step.json"
  # Tracing-overhead gate: the obs rows live in the kernels baseline; span
  # sites are nanosecond-scale, so allow more timing noise than the 15%
  # kernel threshold.
  ./build/bench/bench_obs_overhead \
      --benchmark_repetitions=3 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/obs_overhead.json" >/dev/null
  python3 scripts/bench_compare.py BENCH_micro_kernels.json \
      "${TMP_DIR}/obs_overhead.json" --threshold 0.3 \
      --filter '^BM_(SpanSite|TrainStepSpan)'
  # Latency-histogram gate: the LatencyHisto record/query rows also live in
  # the kernels baseline (same 30% ns-scale threshold), and the full
  # per-request RecordTrace fan-out must stay under 5% of the serve embed
  # p50 recorded in BENCH_serve.json — the budget the live ops plane is
  # allowed to charge the hot path.
  ./build/bench/bench_micro_obs_histo \
      --benchmark_repetitions=3 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/obs_histo.json" >/dev/null
  python3 scripts/bench_compare.py BENCH_micro_kernels.json \
      "${TMP_DIR}/obs_histo.json" --threshold 0.3 \
      --filter '^BM_(LatencyHisto|Log2Histogram|ServeRecordTrace)'
  python3 - "${TMP_DIR}/obs_histo.json" <<'EOF'
import json, sys
histo = json.load(open(sys.argv[1]))
record_ns = min(b["real_time"] for b in histo["benchmarks"]
                if b.get("run_type") != "aggregate"
                and b["name"] == "BM_ServeRecordTrace")
serve = json.load(open("BENCH_serve.json"))
p50_us = min(b["p50_us"] for b in serve["benchmarks"]
             if b.get("run_type") != "aggregate"
             and b["name"].startswith("BM_ServeEmbed/1/")
             and not b["name"].endswith("@parent"))
overhead = record_ns / 1000.0 / p50_us
print(f"RecordTrace {record_ns:.0f}ns vs embed p50 {p50_us:.1f}us "
      f"-> {overhead:.2%} overhead")
assert overhead < 0.05, "histogram record path exceeds 5% of embed p50"
EOF
  # Serving gate: batched-embed throughput and the cache fast path against
  # the committed BENCH_serve.json baseline. Looser 30% threshold: every
  # serve arm measures a submit->worker->response round trip, so on one
  # core the latency is dominated by thread handoff timing (p99 swings
  # ~2x run-to-run even when the kernels underneath are flat).
  ./build/bench/bench_micro_serve \
      --benchmark_repetitions=3 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/serve.json" >/dev/null 2>&1
  python3 scripts/bench_compare.py BENCH_serve.json "${TMP_DIR}/serve.json" \
      --threshold 0.3
  # Selection gate: registry-driven selector + retrieval micro-benchmarks
  # against BENCH_selection.json. Best of 5 repetitions on both sides, and
  # the looser obs-style 30% threshold: the fastest draws are single-digit
  # microseconds, where scheduler noise alone breaches 15%.
  ./build/bench/bench_micro_selection \
      --benchmark_repetitions=5 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/selection.json" >/dev/null
  python3 scripts/bench_compare.py BENCH_selection.json \
      "${TMP_DIR}/selection.json" --threshold 0.3
  # Daemon gate: ingest-to-ack latency (page-cache and fdatasync arms) and
  # the hot-swap serve pause against BENCH_daemon.json. 30% threshold: the
  # fsync arm is at the mercy of the host's storage stack, and the swap arm
  # measures a full checkpoint load racing a probe thread.
  ./build/bench/bench_micro_daemon \
      --benchmark_repetitions=3 \
      --benchmark_out_format=json \
      --benchmark_out="${TMP_DIR}/daemon.json" >/dev/null 2>&1
  python3 scripts/bench_compare.py BENCH_daemon.json \
      "${TMP_DIR}/daemon.json" --threshold 0.3
fi

echo "verify.sh: all suites green"
