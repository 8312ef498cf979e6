// Online-daemon micro-benchmarks: the two latencies the daemon charges the
// serving plane.
//
//   BM_DaemonIngestAck/<fsync>  — one Ingest() round trip (dim and label
//     checks, journal append, queue push, ack), the cost a kIngest frame
//     pays on top of the TCP hop. Arg 0 = page-cache appends, arg 1 =
//     fdatasync after every record (the durable default). p50_us/p99_us
//     counters.
//
//   BM_DaemonSwapPause — LoadAndSwap of a full daemon checkpoint while a
//     background thread hammers Embed. Reports the swap itself per
//     iteration plus serve_gap_p99_us / serve_gap_max_us: the widest gap
//     between consecutive successful embed replies across all swaps — the
//     "pause" a client fleet observes during a hot-swap — and embed_errors,
//     which must stay 0 (a swap may change which snapshot answers, never
//     whether).
//
// Record the committed baseline with:
//   ./bench_micro_daemon --benchmark_out_format=json
//                        --benchmark_out=BENCH_daemon.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/micro_main.h"
#include "src/daemon/daemon.h"
#include "src/util/rng.h"

namespace {

using namespace edsr;

constexpr int64_t kInputDim = 192;  // SynthCifar10 geometry (3 x 8 x 8)

std::string FreshDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("edsr_bench_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

daemon::DaemonOptions BenchOptions(const std::string& dir, bool fsync) {
  daemon::DaemonOptions options;
  options.directory = dir;
  options.trigger_spec = "count:n=1000000";  // never fires during the bench
  options.max_cycles = 0;                    // cycle thread stays parked
  options.fsync_journal = fsync;
  options.metrics_filename.clear();
  return options;
}

void AttachPercentiles(benchmark::State& state, const char* prefix,
                       std::vector<double>* latencies_us) {
  if (latencies_us->empty()) return;
  std::sort(latencies_us->begin(), latencies_us->end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * (latencies_us->size() - 1));
    return (*latencies_us)[i];
  };
  state.counters[std::string(prefix) + "_p50_us"] = at(0.50);
  state.counters[std::string(prefix) + "_p99_us"] = at(0.99);
}

void BM_DaemonIngestAck(benchmark::State& state) {
  const bool fsync = state.range(0) != 0;
  daemon::LearnServeDaemon daemon(
      BenchOptions(FreshDir(fsync ? "ingest_sync" : "ingest"), fsync));
  if (!daemon.Start().ok()) {
    state.SkipWithError("daemon failed to start");
    return;
  }
  util::Rng rng(11);
  std::vector<float> input(kInputDim);
  for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<double> latencies_us;
  int64_t errors = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    serve::IngestResult result = daemon.Ingest(/*label=*/0, input);
    if (!result.status.ok()) ++errors;
    benchmark::DoNotOptimize(result.seq);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start).count());
  }
  daemon.Stop();
  state.SetItemsProcessed(state.iterations());
  state.counters["ingest_errors"] = static_cast<double>(errors);
  AttachPercentiles(state, "ack", &latencies_us);
}
// Bounded iterations: every accepted sample stays journaled and queued
// (max_cycles=0 parks the consumer), so an unbounded run would grow the
// journal without limit between repetitions.
BENCHMARK(BM_DaemonIngestAck)->Arg(0)->Arg(1)->Iterations(4096)
    ->UseRealTime();

void BM_DaemonSwapPause(benchmark::State& state) {
  daemon::LearnServeDaemon daemon(
      BenchOptions(FreshDir("swap"), /*fsync=*/false));
  if (!daemon.Start().ok()) {
    state.SkipWithError("daemon failed to start");
    return;
  }
  serve::ServeHandle* handle = daemon.handle();
  util::Rng rng(13);
  std::vector<float> input(kInputDim);
  for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> embed_errors{0};
  std::vector<double> gaps_us;
  std::thread prober([&] {
    auto last = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      serve::EmbedResult result = handle->Embed(input);
      if (!result.status.ok()) {
        embed_errors.fetch_add(1);
        continue;
      }
      auto now = std::chrono::steady_clock::now();
      gaps_us.push_back(
          std::chrono::duration<double, std::micro>(now - last).count());
      last = now;
    }
  });

  int64_t swap_failures = 0;
  for (auto _ : state) {
    if (!handle->LoadAndSwap(daemon.checkpoint_path()).ok()) ++swap_failures;
  }
  stop.store(true);
  prober.join();
  daemon.Stop();
  state.SetItemsProcessed(state.iterations());
  state.counters["swap_failures"] = static_cast<double>(swap_failures);
  state.counters["embed_errors"] =
      static_cast<double>(embed_errors.load());
  if (!gaps_us.empty()) {
    std::sort(gaps_us.begin(), gaps_us.end());
    state.counters["serve_gap_p99_us"] =
        gaps_us[static_cast<size_t>(0.99 * (gaps_us.size() - 1))];
    state.counters["serve_gap_max_us"] = gaps_us.back();
  }
}
BENCHMARK(BM_DaemonSwapPause)->Iterations(256)->UseRealTime();

}  // namespace

EDSR_BENCHMARK_MAIN()
