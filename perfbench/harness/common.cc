#include "harness/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/tensor/simd.h"
#include "src/util/threadpool.h"

namespace perfbench {

namespace {

// A program counter's value, 0 until the program first registers it.
double CounterValue(const char* name) {
  auto& metrics = obs::MetricsRegistry::Global();
  return metrics.Has(name) ? metrics.Value(name) : 0.0;
}

std::string_view LastComponent(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string_view(path)
                                    : std::string_view(path).substr(slash + 1);
}

obs::Json BenchContext() {
  obs::Json context = obs::Json::Object();
  context.Set("nproc",
              static_cast<int64_t>(std::thread::hardware_concurrency()));
  context.Set("simd", edsr::tensor::simd::TierName(
                          edsr::tensor::simd::ActiveTier()));
  context.Set("kernels_threads", static_cast<int64_t>(
                                     edsr::util::ThreadPool::Global()
                                         .NumThreads()));
#ifdef NDEBUG
  context.Set("ndebug", true);
#else
  context.Set("ndebug", false);
#endif
  context.Set("build_type", PERFBENCH_BUILD_TYPE);
  context.Set("compiler", PERFBENCH_COMPILER);
  return context;
}

}  // namespace

Report::Report(const Args& args) : args_(args) {}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  obs::Json check = obs::Json::Object();
  check.Set("name", name);
  check.Set("ok", ok);
  check.Set("detail", detail);
  checks_.Push(std::move(check));
  if (!ok) {
    std::fprintf(stderr, "check failed: %s: %s\n", name.c_str(),
                 detail.c_str());
  }
}

std::vector<double>& Report::SampleList(const std::string& name) {
  for (auto& entry : samples_) {
    if (entry.first == name) return entry.second;
  }
  samples_.emplace_back(name, std::vector<double>{});
  return samples_.back().second;
}

void Report::Sample(const std::string& name, double value) {
  SampleList(name).push_back(value);
}

void Report::Samples(const std::string& name,
                     const std::vector<double>& values) {
  std::vector<double>& list = SampleList(name);
  list.insert(list.end(), values.begin(), values.end());
}

void Report::Value(const std::string& name, double value) {
  values_.emplace_back(name, value);
}

bool Report::Write() const {
  obs::Json root = obs::Json::Object();
  root.Set("workload", args_.workload);
  root.Set("seed", static_cast<int64_t>(args_.seed));
  root.Set("trace", args_.trace);
  root.Set("context", BenchContext());
  root.Set("checks", checks_);
  root.Set("attempted", attempted_);
  root.Set("failed", failed_);
  obs::Json samples = obs::Json::Object();
  for (const auto& entry : samples_) {
    obs::Json list = obs::Json::Array();
    for (double v : entry.second) list.Push(obs::Json::Number(v));
    samples.Set(entry.first, std::move(list));
  }
  root.Set("samples", std::move(samples));
  obs::Json values = obs::Json::Object();
  for (const auto& entry : values_) values.Set(entry.first, entry.second);
  root.Set("values", std::move(values));
  std::ofstream out(args_.out);
  out << root.Dump() << "\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = static_cast<double>(values.size() - 1) * pct / 100.0;
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (values[high] - values[low]) * (rank - static_cast<double>(low));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

KernelCounters KernelCounters::Now() {
  KernelCounters now;
  now.gemm_flops = CounterValue("kernels.gemm.flops");
  now.gemm_ns = CounterValue("kernels.gemm.ns");
  now.pairwise_flops = CounterValue("kernels.pairwise.flops");
  return now;
}

KernelCounters KernelCounters::Since(const KernelCounters& start) const {
  KernelCounters delta;
  delta.gemm_flops = gemm_flops - start.gemm_flops;
  delta.gemm_ns = gemm_ns - start.gemm_ns;
  delta.pairwise_flops = pairwise_flops - start.pairwise_flops;
  return delta;
}

void ReportKernels(const KernelCounters& counters, double units,
                   Report* report) {
  report->Value("tensor.gemm_flops", counters.gemm_flops / units);
  report->Value("tensor.pairwise_flops", counters.pairwise_flops / units);
  report->Value("tensor.gemm_gflops", counters.gemm_ns > 0
                                          ? counters.gemm_flops / counters.gemm_ns
                                          : 0.0);
}

SpanView::SpanView() : stats_(obs::Tracer::Summary()) {}

double SpanView::TotalMs(std::string_view name) const {
  double total = 0.0;
  for (const auto& s : stats_) {
    if (LastComponent(s.path) == name) total += s.total_ms;
  }
  return total;
}

int64_t SpanView::Count(std::string_view name) const {
  int64_t count = 0;
  for (const auto& s : stats_) {
    if (LastComponent(s.path) == name) count += s.count;
  }
  return count;
}

double SpanView::SelfMs(std::string_view name) const {
  double children = 0.0;
  for (const auto& parent : stats_) {
    if (LastComponent(parent.path) != name) continue;
    const std::string prefix = parent.path + "/";
    for (const auto& s : stats_) {
      if (s.path.size() > prefix.size() &&
          s.path.compare(0, prefix.size(), prefix) == 0 &&
          s.path.find('/', prefix.size()) == std::string::npos) {
        children += s.total_ms;
      }
    }
  }
  return TotalMs(name) - children;
}

void ReportSpans(const SpanView& spans,
                 const std::vector<const char*>& names, Report* report) {
  for (const char* name : names) {
    report->Value(std::string("span.") + name + "_ms", spans.TotalMs(name));
    report->Value(std::string("span.") + name + "_count",
                  static_cast<double>(spans.Count(name)));
  }
  report->Value("span.batch_self_ms", spans.SelfMs("batch"));
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool MatchesStoredDigest(const Args& args, const std::string& key,
                         uint64_t digest, std::string* detail) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  std::ostringstream name;
  name << args.workload << "-" << key << "-seed" << args.seed << "-"
       << edsr::tensor::simd::TierName(edsr::tensor::simd::ActiveTier())
       << "-t" << edsr::util::ThreadPool::Global().NumThreads();
  std::error_code ec;
  std::filesystem::create_directories(args.refs, ec);
  const std::string path = args.refs + "/" + name.str();
  std::ifstream in(path);
  std::string stored;
  if (in >> stored) {
    *detail = std::string("digest ") + hex + (stored == hex ? " matches" :
                                              " differs from " + stored) +
              " (" + name.str() + ")";
    return stored == hex;
  }
  std::ofstream out(path);
  out << hex << "\n";
  *detail = std::string("digest ") + hex + " recorded (" + name.str() + ")";
  return static_cast<bool>(out);
}

}  // namespace perfbench
