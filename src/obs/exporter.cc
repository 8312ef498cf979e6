#include "src/obs/exporter.h"

#include <chrono>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace edsr::obs {

namespace {

int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MetricsExporter::MetricsExporter(MetricsExporterOptions options)
    : options_(std::move(options)) {
  EDSR_CHECK_GE(options_.interval_ms, 1);
  EDSR_CHECK(!options_.path.empty());
}

MetricsExporter::~MetricsExporter() { Stop(); }

util::Status MetricsExporter::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return util::Status::Internal("exporter already started");
  }
  logger_ = std::make_unique<RunLogger>(options_.path);
  if (!logger_->ok()) {
    logger_.reset();
    return util::Status::IoError("cannot open " + options_.path);
  }
  start_ms_ = SteadyMs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
  }
  thread_ = std::thread([this] { Loop(); });
  return util::Status::OK();
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && !thread_.joinable()) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // One final line so the series always covers the full lifetime even when
  // the last interval was cut short by shutdown.
  if (logger_ != nullptr) WriteSnapshot();
}

void MetricsExporter::TickNow() {
  if (logger_ != nullptr) WriteSnapshot();
}

int64_t MetricsExporter::lines_written() const {
  return logger_ != nullptr ? logger_->lines_written() : 0;
}

void MetricsExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return !running_; });
    if (!running_) return;
    lock.unlock();
    WriteSnapshot();
    lock.lock();
  }
}

void MetricsExporter::WriteSnapshot() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (options_.slo != nullptr) options_.slo->Evaluate();
  Json record = Json::Object();
  record.Set("record", "serve_timeseries");
  record.Set("seq", seq_++);
  Json perf = Json::Object();
  perf.Set("ts_ms", WallMs());
  perf.Set("uptime_ms", SteadyMs() - start_ms_);
  perf.Set("metrics", MetricsRegistry::Global().ToJson());
  if (options_.slo != nullptr) perf.Set("slo", options_.slo->StateJson());
  if (options_.extend) options_.extend(&perf);
  record.Set("perf", std::move(perf));
  logger_->Write(record);
}

}  // namespace edsr::obs
