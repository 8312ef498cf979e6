#include "src/daemon/daemon.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/cl/factory.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/serve/trace_context.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace edsr::daemon {

LearnServeDaemon::LearnServeDaemon(const DaemonOptions& options)
    : options_(options) {}

LearnServeDaemon::~LearnServeDaemon() { Stop(); }

std::string LearnServeDaemon::checkpoint_path() const {
  return options_.directory + "/daemon.ckpt";
}

std::string LearnServeDaemon::journal_path() const {
  return options_.directory + "/ingest.journal";
}

std::string LearnServeDaemon::metrics_path() const {
  return options_.metrics_filename.empty()
             ? std::string()
             : options_.directory + "/" + options_.metrics_filename;
}

int64_t LearnServeDaemon::cycles_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycles_;
}

int64_t LearnServeDaemon::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

int64_t LearnServeDaemon::consumed() const { return engine_->consumed(); }

uint64_t LearnServeDaemon::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::vector<stream::StreamCycleResult> LearnServeDaemon::cycles() const {
  return engine_->history();
}

util::Status LearnServeDaemon::Start() {
  if (started_) return util::Status::Internal("daemon already started");
  if (options_.directory.empty()) {
    return util::Status::InvalidArgument("daemon needs a state directory");
  }
  if (options_.micro_batch < 2) {
    return util::Status::InvalidArgument(
        "daemon micro_batch must be >= 2 (contrastive views need pairs)");
  }

  // The preset supplies the modality only: input dim, class count, image
  // geometry (what augmented views need). No data is generated from it.
  util::Result<data::SyntheticImageConfig> preset =
      data::ImagePresetConfig(options_.preset, options_.seed);
  if (!preset.ok()) return preset.status();
  input_dim_ = (*preset).geometry.Pixels();
  num_classes_ = (*preset).num_classes;

  cl::StrategyContext context;
  context.encoder.mlp_dims = {input_dim_, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.batch_size = options_.micro_batch;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = options_.memory_per_task;
  context.replay_batch_size = options_.replay_batch_size;
  context.seed = options_.seed;
  strategy_ = cl::MakeStrategy(options_.strategy, context);
  if (strategy_ == nullptr) {
    return util::Status::InvalidArgument("unknown strategy \"" +
                                         options_.strategy + "\"");
  }
  const auto* edsr_strategy =
      dynamic_cast<const core::Edsr*>(strategy_.get());

  util::Result<std::unique_ptr<stream::CycleTrigger>> trigger =
      stream::TriggerRegistry::Global().Create(options_.trigger_spec);
  if (!trigger.ok()) return trigger.status();
  trigger_ = std::move(trigger).ValueOrDie();

  stream::CycleEngineConfig engine;
  engine.strategy = strategy_.get();
  engine.trigger = trigger_.get();
  engine.memory = edsr_strategy != nullptr ? &edsr_strategy->memory() : nullptr;
  engine.dim = input_dim_;
  engine.num_classes = num_classes_;
  engine.geometry = (*preset).geometry;
  engine.mode = "daemon";
  engine.source = options_.preset;
  engine.trigger_spec = options_.trigger_spec;
  engine.identity = {{"strategy", options_.strategy},
                     {"micro_batch", std::to_string(options_.micro_batch)},
                     {"seed", std::to_string(options_.seed)},
                     {"input dim", std::to_string(input_dim_)}};
  engine.checkpoint_path = checkpoint_path();
  engine_ = std::make_unique<stream::CycleEngine>(std::move(engine));

  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return util::Status::IoError("cannot create daemon directory " +
                                 options_.directory + ": " + ec.message());
  }

  const bool restored = std::filesystem::exists(checkpoint_path(), ec);
  if (restored) EDSR_RETURN_NOT_OK(engine_->LoadCheckpoint());
  cycles_ = engine_->cycles_completed();
  const int64_t consumed = engine_->consumed();

  // Journal replay: the first `consumed` records are already inside the
  // checkpointed strategy state; the rest re-enter the pending queue in
  // journal order — exactly the stream an uninterrupted run would consume.
  std::vector<JournalRecord> replayed;
  EDSR_RETURN_NOT_OK(
      journal_.Open(journal_path(), options_.fsync_journal, &replayed));
  if (static_cast<int64_t>(replayed.size()) < consumed) {
    return util::Status::IoError(
        journal_path() + ": journal holds " +
        std::to_string(replayed.size()) + " records but the checkpoint " +
        "already consumed " + std::to_string(consumed));
  }
  pending_.clear();
  for (size_t i = static_cast<size_t>(consumed); i < replayed.size(); ++i) {
    // A label the cycle thread cannot train on would abort it on every
    // restart; refuse to start instead.
    if (replayed[i].label < 0 || replayed[i].label >= num_classes_) {
      return util::Status::InvalidArgument(
          journal_path() + ": record seq " + std::to_string(replayed[i].seq) +
          " has label " + std::to_string(replayed[i].label) + " outside [0, " +
          std::to_string(num_classes_) + ")");
    }
    pending_.push_back(std::move(replayed[i]));
  }
  next_seq_ = journal_.last_seq() + 1;
  {
    // Seed the gauges from the recovered state so a restarted daemon
    // reports its history before the first new ingest/cycle touches them.
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.GetGauge("daemon.last_seq")
        ->Set(static_cast<double>(journal_.last_seq()));
    metrics.GetGauge("daemon.cycles")->Set(static_cast<double>(cycles_));
    metrics.GetGauge("daemon.consumed")->Set(static_cast<double>(consumed));
    metrics.GetGauge("daemon.pending")
        ->Set(static_cast<double>(pending_.size()));
  }

  options_.serve.load.encoder = context.encoder;
  handle_ = std::make_unique<serve::ServeHandle>(options_.serve);

  RewriteMetricsFile();

  // Fresh starts pin the initial (untrained) state as the cycle-0 boundary
  // checkpoint, so every serving snapshot — including the first — comes
  // from a checkpoint file, and a kill before the first cycle restores the
  // exact same state. An existing checkpoint is left byte-untouched.
  if (!restored) EDSR_RETURN_NOT_OK(engine_->SaveCheckpoint());
  EDSR_RETURN_NOT_OK(handle_->LoadAndSwap(checkpoint_path()));

  // Logged before the cycle thread starts changing these counts.
  EDSR_LOG(Info) << "daemon: " << options_.strategy << " on "
                 << options_.preset << " (dim " << input_dim_ << "), trigger "
                 << options_.trigger_spec << ", "
                 << (restored ? "resumed at cycle " : "fresh at cycle ")
                 << cycles_ << ", " << pending_.size()
                 << " pending journaled samples";
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stop_ = false;
  }
  cycle_thread_ = std::thread([this] { CycleLoop(); });
  return util::Status::OK();
}

void LearnServeDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ && !cycle_thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (cycle_thread_.joinable()) cycle_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  journal_.Close();
}

serve::IngestResult LearnServeDaemon::Ingest(int64_t label,
                                             const std::vector<float>& input) {
  serve::IngestResult result;
  if (static_cast<int64_t>(input.size()) != input_dim_) {
    result.status = util::Status::InvalidArgument(
        "ingest dim " + std::to_string(input.size()) +
        " does not match daemon input dim " + std::to_string(input_dim_));
    EDSR_METRIC_COUNT("daemon.ingest.rejected_dim", 1);
    return result;
  }
  if (label < 0 || label >= num_classes_) {
    result.status = util::Status::InvalidArgument(
        "ingest label " + std::to_string(label) + " outside [0, " +
        std::to_string(num_classes_) + ")");
    EDSR_METRIC_COUNT("daemon.ingest.rejected_label", 1);
    return result;
  }
  const int64_t t0_us = serve::TraceNowUs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) {
      result.status = util::Status::Internal("daemon is not accepting");
      return result;
    }
    JournalRecord record;
    record.seq = next_seq_;
    record.label = label;
    record.features = input;
    util::Status appended = journal_.Append(record);
    if (!appended.ok()) {
      EDSR_METRIC_COUNT("daemon.ingest.errors", 1);
      result.status = std::move(appended);
      return result;
    }
    ++next_seq_;
    result.seq = record.seq;
    pending_.push_back(std::move(record));
    result.pending = static_cast<int64_t>(pending_.size());
  }
  cv_.notify_one();
  EDSR_METRIC_COUNT("daemon.ingest.accepted", 1);
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("daemon.pending")
      ->Set(static_cast<double>(result.pending));
  metrics.GetGauge("daemon.last_seq")->Set(static_cast<double>(result.seq));
  metrics.GetLatencyHisto("daemon.lat.ingest")
      ->Record(serve::TraceNowUs() - t0_us);
  result.status = util::Status::OK();
  return result;
}

serve::IngestHandler LearnServeDaemon::MakeIngestHandler() {
  return [this](int64_t label, const std::vector<float>& input) {
    return Ingest(label, input);
  };
}

bool LearnServeDaemon::WaitForCycles(int64_t n, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return cycles_ >= n; });
}

void LearnServeDaemon::CycleLoop() {
  double busy_seconds = 0.0;  // the open cycle's feed time
  while (true) {
    std::vector<stream::StreamSample> chunk;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        if (stop_) return true;
        if (options_.max_cycles >= 0 && cycles_ >= options_.max_cycles) {
          return false;  // boundary hold: samples keep journaling
        }
        return static_cast<int64_t>(pending_.size()) >= options_.micro_batch;
      });
      if (stop_) return;
      chunk.resize(options_.micro_batch);
      for (stream::StreamSample& sample : chunk) {
        sample.features = std::move(pending_.front().features);
        sample.observed_label = pending_.front().label;
        pending_.pop_front();
      }
      obs::MetricsRegistry::Global().GetGauge("daemon.pending")
          ->Set(static_cast<double>(pending_.size()));
    }
    util::Stopwatch watch;
    const std::string cause = engine_->Feed(std::move(chunk));
    if (options_.train_hold_us > 0) {
      // Torture hook: widen the mid-cycle kill window.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.train_hold_us));
    }
    busy_seconds += watch.ElapsedSeconds();
    if (!cause.empty()) {
      CloseCycle(cause, busy_seconds);
      busy_seconds = 0.0;
    }
  }
}

void LearnServeDaemon::CloseCycle(const std::string& cause,
                                  double busy_seconds) {
  util::Stopwatch close_watch;
  // Checkpoint, then swap. The checkpoint write is atomic (temp + rename),
  // so a kill here leaves either the previous boundary or this one — both
  // resume bit-identically (the journal still holds this cycle's window).
  util::Status status = engine_->Close(cause);
  uint64_t snapshot_id = 0;
  if (status.ok()) {
    status = handle_->LoadAndSwap(checkpoint_path());
    if (status.ok()) {
      serve::SnapshotHandle snapshot = handle_->registry()->Current();
      snapshot_id = snapshot != nullptr ? snapshot->id() : 0;
      EDSR_METRIC_COUNT("daemon.swaps", 1);
    }
  }
  EDSR_METRIC_COUNT("daemon.req.cycle", 1);
  const int64_t cycle = engine_->cycles_completed() - 1;
  if (!status.ok()) {
    // The in-memory state is still consistent; the journal still holds this
    // cycle's samples, so a restart simply re-runs it from the previous
    // boundary. Keep serving and keep training.
    EDSR_LOG(Error) << "daemon cycle " << cycle
                    << " checkpoint/swap failed: " << status.ToString();
    EDSR_METRIC_COUNT("daemon.err.cycle", 1);
  }

  const int64_t consumed = engine_->consumed();
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("daemon.cycles")->Set(static_cast<double>(cycle + 1));
  metrics.GetGauge("daemon.consumed")->Set(static_cast<double>(consumed));
  metrics.GetLatencyHisto("daemon.lat.cycle")
      ->Record(static_cast<int64_t>(
          (busy_seconds + close_watch.ElapsedSeconds()) * 1e6));
  obs::FlightRecorder::Global().Record(obs::FlightRecorder::kMark,
                                       "daemon_cycle", cycle, consumed);
  EDSR_LOG(Debug) << "daemon cycle " << cycle << " (" << cause
                  << ") swapped in snapshot " << snapshot_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cycles_ = cycle + 1;
  }
  cv_.notify_all();
}

void LearnServeDaemon::RewriteMetricsFile() {
  const std::string path = metrics_path();
  if (path.empty()) return;
  // The JSONL is a pure function of the checkpointed history plus the
  // cycles this process completes: rewriting on startup means a record
  // emitted (or skipped) right before a crash can never disagree with the
  // checkpoint the restart resumed from.
  std::remove(path.c_str());
  logger_ = std::make_unique<obs::RunLogger>(path);
  if (!logger_->ok()) {
    EDSR_LOG(Warning) << "daemon: cannot open " << path
                      << "; telemetry disabled";
    logger_.reset();
    return;
  }
  engine_->AttachLogger(logger_.get());
}

}  // namespace edsr::daemon
