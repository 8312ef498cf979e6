// MetricsExporter: a background thread that appends one time-series JSONL
// record per interval, turning the pull-model registry into a flight-data
// stream any process can leave behind (serve servers, stream drivers, the
// future learn-and-serve daemon).
//
// Record shape (one line per tick):
//
//   {"record":"serve_timeseries","seq":N,"perf":{"ts_ms":..,"uptime_ms":..,
//    "metrics":{...registry snapshot...},"slo":[...]}}
//
// `seq` is strictly increasing from 0 — the only deterministic field, which
// is exactly the point: a time series is machine data by definition, so
// everything else lives under "perf", added LAST per the run-record
// determinism contract (readers strip by truncating at `,"perf"`).
//
// When an SloTracker is attached each tick evaluates it first, so the
// exported slo.* gauges and the "slo" state array are fresh as of the tick.
#ifndef EDSR_SRC_OBS_EXPORTER_H_
#define EDSR_SRC_OBS_EXPORTER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/json.h"
#include "src/obs/run_record.h"
#include "src/obs/slo.h"
#include "src/util/status.h"

namespace edsr::obs {

struct MetricsExporterOptions {
  std::string path;           // JSONL file, appended to
  int64_t interval_ms = 1000; // tick period (>= 1)
  SloTracker* slo = nullptr;  // not owned; evaluated on every tick
  // Optional per-tick extras merged into the "perf" object (e.g. the
  // stream driver's cycle counters). Runs on the exporter thread.
  std::function<void(Json* perf)> extend;
};

class MetricsExporter {
 public:
  explicit MetricsExporter(MetricsExporterOptions options);
  ~MetricsExporter();  // stops and joins
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  // Opens the output and starts the tick thread. Fails cleanly if the file
  // cannot be opened — telemetry must never take down the server.
  util::Status Start();

  // Writes one final snapshot line, stops the thread, joins. Idempotent.
  void Stop();

  // Synchronously writes one snapshot line (also used by Stop for the
  // final flush, and by tests to avoid sleeping through an interval).
  void TickNow();

  int64_t lines_written() const;

 private:
  void Loop();
  void WriteSnapshot();

  MetricsExporterOptions options_;
  std::unique_ptr<RunLogger> logger_;
  int64_t start_ms_ = 0;  // steady clock at Start
  int64_t seq_ = 0;       // guarded by write_mu_

  std::mutex write_mu_;  // serializes WriteSnapshot callers
  std::mutex mu_;        // guards running_ / cv_
  std::condition_variable cv_;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace edsr::obs

#endif  // EDSR_SRC_OBS_EXPORTER_H_
