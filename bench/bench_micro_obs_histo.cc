// Micro-benchmarks for the live-ops latency histogram: what one Record()
// costs on the serve hot path (vs the identical workload with recording
// compiled out, and vs the coarse log2 Histogram it replaced), what a
// percentile query costs, and the full per-request RecordTrace fan-out.
//
// Emit machine-readable results with:
//   ./bench_micro_obs_histo --benchmark_out_format=json
//                           --benchmark_out=obs_histo.json
// The rows are gated as part of the BENCH_micro_kernels.json baseline
// (scripts/verify.sh --bench), and the Record cost underwrites the <5%
// embed-p50 overhead assertion against BENCH_serve.json.
#include <benchmark/benchmark.h>

#include "bench/micro_main.h"
#include "bench/obs_histo_workload.h"
#include "src/obs/metrics.h"
#include "src/serve/trace_context.h"

namespace edsr::benchobs {

// The enabled arm: identical body to StepRecordCompiledOut, with
// EDSR_HISTO_RECORD at its workload-header default (a real Record call).
int64_t StepRecordEnabled(HistoWorkload& workload) {
  int64_t us = workload.NextLatencyUs();
  EDSR_HISTO_RECORD(workload.histo, us);
  return us;
}

}  // namespace edsr::benchobs

namespace {

using namespace edsr;

benchobs::HistoWorkload MakeWorkload(const char* name) {
  benchobs::HistoWorkload workload;
  workload.histo = obs::MetricsRegistry::Global().GetLatencyHisto(name);
  workload.histo->Reset();
  return workload;
}

// One LatencyHisto::Record: TLS cell lookup + bucket index + two relaxed
// stores and two relaxed fetch_adds.
void BM_LatencyHistoRecord(benchmark::State& state) {
  benchobs::HistoWorkload workload = MakeWorkload("bench.histo.record");
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchobs::StepRecordEnabled(workload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistoRecord);

// The identical workload with EDSR_HISTO_RECORD compiled out: subtract this
// from the enabled arm to get the pure record cost.
void BM_LatencyHistoRecordCompiledOut(benchmark::State& state) {
  benchobs::HistoWorkload workload = MakeWorkload("bench.histo.disabled");
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchobs::StepRecordCompiledOut(workload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistoRecordCompiledOut);

// The coarse log2 Histogram the serve path used before: the double->bucket
// transform plus min/max CAS-free updates. Kept as the reference point the
// HDR-style histogram had to stay comparable to.
void BM_Log2HistogramObserve(benchmark::State& state) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("bench.histo.log2");
  hist->Reset();
  benchobs::HistoWorkload workload;
  for (auto _ : state) {
    hist->Observe(static_cast<double>(workload.NextLatencyUs()));
  }
  benchmark::DoNotOptimize(hist);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Log2HistogramObserve);

// Snap + four quantile queries over a populated histogram — the kMetrics /
// SLO-evaluate read side. Arg is the number of recorded samples (the merge
// cost scales with cells, the walk with occupied buckets).
void BM_LatencyHistoSnapQuantiles(benchmark::State& state) {
  benchobs::HistoWorkload workload = MakeWorkload("bench.histo.snap");
  for (int64_t i = 0; i < state.range(0); ++i) {
    workload.histo->Record(workload.NextLatencyUs());
  }
  for (auto _ : state) {
    obs::LatencyHisto::Snapshot snap = workload.histo->Snap();
    int64_t sum = snap.Quantile(0.50) + snap.Quantile(0.95) +
                  snap.Quantile(0.99) + snap.Quantile(0.999);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistoSnapQuantiles)->Arg(1000)->Arg(100000);

// The full per-request fan-out RecordTrace performs at reply time: one
// class total + four stage records + request counter + flight event. This
// is the number that must stay <5% of the serve embed p50.
void BM_ServeRecordTrace(benchmark::State& state) {
  benchobs::HistoWorkload workload;
  serve::TraceContext context;
  context.klass = serve::RequestClass::kEmbed;
  int64_t rid = 0;
  for (auto _ : state) {
    context.rid = static_cast<uint64_t>(++rid);
    context.t_accept_us = workload.NextLatencyUs();
    context.t_queue_us = context.t_accept_us + 2;
    context.t_batch_us = context.t_queue_us + 5;
    context.t_forward_us = context.t_batch_us + 40;
    context.t_reply_us = context.t_forward_us + 3;
    serve::RecordTrace(context);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRecordTrace);

}  // namespace

EDSR_BENCHMARK_MAIN()
