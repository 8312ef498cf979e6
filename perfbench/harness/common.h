// Shared plumbing of the benchmark harness: arguments, the raw-result
// report, span-summary lookups, and the bench context.
//
// The harness measures; perfbench/run.py turns the raw samples written here
// into the printed metrics. Every workload writes one JSON report:
//
//   {"workload":..,"seed":..,"trace":..,"context":{..},
//    "checks":[{"name":..,"ok":..,"detail":..}],
//    "attempted":n,"failed":n,
//    "samples":{"<name>":[..]},   raw per-operation values
//    "values":{"<name>":x}}       single measured values (per-layer inputs)
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace obs = edsr::obs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;       // report path
  std::string workdir;   // scratch directory for checkpoints / daemon state
  std::string refs;      // digests of earlier runs (reproducibility checks)
  std::string schedule;  // learn_serve: request schedule written by run.py
  std::string daemon;    // learn_serve: path of the learn_serve_daemon binary
};

class Report {
 public:
  explicit Report(const Args& args);

  void Check(const std::string& name, bool ok, const std::string& detail);
  void Attempted(int64_t n) { attempted_ += n; }
  void Failed(int64_t n) { failed_ += n; }
  void Sample(const std::string& name, double value);
  void Samples(const std::string& name, const std::vector<double>& values);
  void Value(const std::string& name, double value);

  // Writes the report to args.out; false on an I/O error.
  bool Write() const;

 private:
  std::vector<double>& SampleList(const std::string& name);

  Args args_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  obs::Json checks_ = obs::Json::Array();
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
  std::vector<std::pair<std::string, double>> values_;
};

// Peak resident set of this process, in MB (getrusage).
double PeakRssMb();

// Seconds since an arbitrary fixed origin (steady clock).
double NowSeconds();

// Linear-interpolated percentile, pct in [0, 100] (0 when empty); the same
// definition as benchlib.percentile.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// The kernels-layer counters over one stretch of work.
struct KernelCounters {
  double gemm_flops = 0, gemm_ns = 0, pairwise_flops = 0;
  static KernelCounters Now();
  KernelCounters Since(const KernelCounters& start) const;
};

// Reports tensor.gemm_flops / tensor.pairwise_flops per unit of work (an
// increment or a cycle) and the achieved tensor.gemm_gflops.
void ReportKernels(const KernelCounters& counters, double units,
                   Report* report);

// Span-summary helpers over obs::Tracer::Summary(). A span site is matched
// by its last path component, summed over every place it occurs in the
// tree.
class SpanView {
 public:
  SpanView();
  double TotalMs(std::string_view name) const;
  int64_t Count(std::string_view name) const;
  // Total minus the time covered by the spans directly under it.
  double SelfMs(std::string_view name) const;

 private:
  std::vector<obs::Tracer::SpanStats> stats_;
};

// Reports span.<name>_ms (total) and span.<name>_count for each span site,
// plus span.batch_self_ms (the train step minus its replay child).
void ReportSpans(const SpanView& spans,
                 const std::vector<const char*>& names, Report* report);

// Runs whole passes of a workload until the time budget is spent, at least
// one. A traced run alternates untraced and traced passes (at least one of
// each) on identical work, so the ratio of their median times is the
// tracing overhead. `run_one(index)` runs pass `index` and returns a Pass
// with `ok`, `wall_s` and `traced` fields.
template <typename Pass, typename RunOne>
std::vector<Pass> RunPasses(const Args& args, RunOne run_one) {
  std::vector<Pass> passes;
  const double start = NowSeconds();
  while (true) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    if (traced && passes.size() == 1) obs::Tracer::Reset();
    obs::Tracer::SetEnabled(traced);
    passes.push_back(run_one(passes.size()));
    obs::Tracer::SetEnabled(false);
    passes.back().traced = traced;
    if (!passes.back().ok) break;
    const double elapsed = NowSeconds() - start;
    if (passes.size() >= (args.trace ? 2u : 1u) &&
        elapsed + passes.back().wall_s > args.seconds) {
      break;
    }
  }
  return passes;
}

template <typename Pass>
double TraceOverhead(const std::vector<Pass>& passes) {
  std::vector<double> traced, untraced;
  for (const Pass& pass : passes) {
    (pass.traced ? traced : untraced).push_back(pass.wall_s);
  }
  return Median(traced) / Median(untraced) - 1.0;
}

// FNV-1a over a byte string: the digests the reproducibility checks compare.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 1469598103934665603ULL);

// Compares `digest` with the one an earlier run stored under args.refs for
// the same workload, seed, SIMD tier and thread count (the first such run
// records it). run.py gives each version of the sources its own refs
// directory, so only runs of the same code are compared. Sets *detail;
// returns false on a mismatch.
bool MatchesStoredDigest(const Args& args, const std::string& key,
                         uint64_t digest, std::string* detail);

// The workloads. Each records its checks, samples and values in *report.
void RunPaperIncrements(const Args& args, Report* report);
void RunDirtyStream(const Args& args, Report* report);
void RunLearnServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
