// Serving load generator: drives the ServeHandle / MicroBatcher stack the
// way a loopback client fleet would, at batch sizes 1 through 64, and
// reports throughput (items_per_second) plus request-latency percentiles
// (p50_us / p99_us user counters) per batch size. Complements
// tests/serve_test.cc (correctness) by answering the sizing question the
// batcher exists for: how many rows must coalesce before the blocked GEMM
// amortizes the per-batch dispatch cost.
//
// Record the committed baseline with:
//   ./bench_micro_serve --benchmark_out_format=json
//                       --benchmark_out=BENCH_serve.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "bench/micro_main.h"
#include "src/serve/server.h"
#include "src/ssl/encoder.h"
#include "src/util/rng.h"

namespace {

using namespace edsr;

// The default EncoderConfig (192 -> 64 -> 64 MLP, 32-dim representations)
// is the same shape quickstart trains, so these numbers transfer.
constexpr int64_t kInputDim = 192;

std::unique_ptr<serve::ServeHandle> MakeHandle(int64_t max_batch,
                                               int64_t cache_capacity,
                                               int64_t bank_size) {
  serve::ServeOptions options;
  options.batcher.max_batch = max_batch;
  options.batcher.max_queue = 4096;
  options.batcher.max_delay_us = 50;
  options.cache_capacity = cache_capacity;
  auto handle = std::make_unique<serve::ServeHandle>(options);
  util::Rng rng(7);
  std::unique_ptr<ssl::Encoder> encoder =
      ssl::Encoder::Make(ssl::EncoderConfig{}, &rng);
  encoder->SetTraining(false);
  encoder->SetRequiresGrad(false);
  std::vector<float> bank(bank_size * kInputDim);
  std::vector<int64_t> labels(bank_size);
  util::Rng bank_rng(13);
  for (float& v : bank) v = bank_rng.Uniform(-1.0f, 1.0f);
  for (int64_t i = 0; i < bank_size; ++i) labels[i] = i % 4;
  handle->InstallSnapshot(std::move(encoder), std::move(bank),
                          std::move(labels), "bench");
  return handle;
}

std::vector<std::vector<float>> MakeInputs(int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> inputs(n, std::vector<float>(kInputDim));
  for (auto& input : inputs) {
    for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
  }
  return inputs;
}

void AttachLatencyPercentiles(benchmark::State& state,
                              std::vector<double>* latencies_us) {
  if (latencies_us->empty()) return;
  std::sort(latencies_us->begin(), latencies_us->end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * (latencies_us->size() - 1));
    return (*latencies_us)[i];
  };
  state.counters["p50_us"] = at(0.50);
  state.counters["p99_us"] = at(0.99);
}

// One iteration = one full batch round trip: Pause the worker, enqueue
// `batch` distinct requests, Resume, and wait for every future. Pausing
// first makes the coalescing deterministic (the worker wakes to a full
// batch and never waits out max_delay_us for stragglers).
void BM_ServeEmbed(benchmark::State& state) {
  const int64_t batch = state.range(0);
  // Cache off: this measures the miss path (batched forward + dispatch).
  auto handle = MakeHandle(batch, /*cache_capacity=*/0, /*bank_size=*/64);
  serve::MicroBatcher* batcher = handle->batcher();
  std::vector<std::vector<float>> inputs = MakeInputs(batch, 11);
  std::vector<double> latencies_us;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    batcher->Pause();
    std::vector<std::future<serve::EmbedResult>> futures(batch);
    for (int64_t i = 0; i < batch; ++i) {
      batcher->Submit(inputs[i], /*want_label=*/false, &futures[i]).Check();
    }
    batcher->Resume();
    for (auto& future : futures) {
      serve::EmbedResult result = future.get();
      benchmark::DoNotOptimize(result.snapshot_id);
    }
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start).count());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  AttachLatencyPercentiles(state, &latencies_us);
}
BENCHMARK(BM_ServeEmbed)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(64)->UseRealTime();

// Same load shape but asking for labels: rides the identical batched
// forward plus a kNN lookup against the 64-row replay bank per request.
void BM_ServeKnnLabel(benchmark::State& state) {
  const int64_t batch = state.range(0);
  auto handle = MakeHandle(batch, /*cache_capacity=*/0, /*bank_size=*/64);
  serve::MicroBatcher* batcher = handle->batcher();
  std::vector<std::vector<float>> inputs = MakeInputs(batch, 17);
  std::vector<double> latencies_us;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    batcher->Pause();
    std::vector<std::future<serve::EmbedResult>> futures(batch);
    for (int64_t i = 0; i < batch; ++i) {
      batcher->Submit(inputs[i], /*want_label=*/true, &futures[i]).Check();
    }
    batcher->Resume();
    for (auto& future : futures) {
      serve::EmbedResult result = future.get();
      benchmark::DoNotOptimize(result.label);
    }
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start).count());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  AttachLatencyPercentiles(state, &latencies_us);
}
BENCHMARK(BM_ServeKnnLabel)->Arg(1)->Arg(16)->Arg(64)->UseRealTime();

// The cache fast path: a repeated input short-circuits before the batcher,
// so this bounds how cheap a served request can get.
void BM_ServeCacheHit(benchmark::State& state) {
  auto handle = MakeHandle(/*max_batch=*/8, /*cache_capacity=*/64,
                           /*bank_size=*/0);
  std::vector<float> input = MakeInputs(1, 23)[0];
  handle->Embed(input);  // prime the cache
  for (auto _ : state) {
    serve::EmbedResult result = handle->Embed(input);
    benchmark::DoNotOptimize(result.representation.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheHit);

}  // namespace

EDSR_BENCHMARK_MAIN()
