#include "src/stream/cycle.h"

#include <cmath>
#include <utility>

#include "src/io/container.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace edsr::stream {

namespace {

constexpr uint32_t kCycleCheckpointVersion = 1;

void WriteCycle(const StreamCycleResult& cycle, io::BufferWriter* out) {
  out->WriteI64(cycle.cycle);
  out->WriteString(cycle.cause);
  out->WriteI64(cycle.samples);
  out->WriteI64(cycle.micro_batches);
  out->WriteI64(cycle.total_samples);
  out->WriteF64(cycle.loss);
  out->WriteF64(cycle.drift);
  out->WriteI64(cycle.buffer_size);
  out->WriteF64(cycle.buffer_entropy);
  out->WriteF64(cycle.id_accuracy);
  out->WriteF64(cycle.ood_accuracy);
}

util::Status ReadCycle(io::BufferReader* in, StreamCycleResult* cycle) {
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->cycle));
  EDSR_RETURN_NOT_OK(in->ReadString(&cycle->cause));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->samples));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->micro_batches));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->total_samples));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->loss));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->drift));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->buffer_size));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->buffer_entropy));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->id_accuracy));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->ood_accuracy));
  return util::Status::OK();
}

std::vector<std::pair<std::string, std::string>> Identity(
    const CycleEngineConfig& config) {
  std::vector<std::pair<std::string, std::string>> identity = {
      {"mode", config.mode},
      {"source", config.source},
      {"trigger", config.trigger_spec}};
  identity.insert(identity.end(), config.identity.begin(),
                  config.identity.end());
  return identity;
}

}  // namespace

double BufferDrift(cl::ContinualStrategy* strategy,
                   const cl::MemoryBuffer* memory) {
  if (memory == nullptr || memory->empty()) return -1.0;
  eval::RepresentationMatrix current =
      strategy->MemoryRepresentations(*memory);
  double total = 0.0;
  int64_t counted = 0;
  for (int64_t i = 0; i < current.n; ++i) {
    const std::vector<float>& anchor =
        memory->entry(i).stored_representation;
    if (static_cast<int64_t>(anchor.size()) != current.d) continue;
    for (int64_t j = 0; j < current.d; ++j) {
      double diff = static_cast<double>(current.values[i * current.d + j]) -
                    static_cast<double>(anchor[j]);
      total += diff * diff;
    }
    ++counted;
  }
  if (counted == 0) return -1.0;
  return total / (static_cast<double>(counted) *
                  static_cast<double>(current.d));
}

double BufferCompositionEntropy(const cl::MemoryBuffer* memory) {
  if (memory == nullptr || memory->empty()) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> counts;  // (label, count)
  for (const cl::MemoryEntry& entry : memory->entries()) {
    bool found = false;
    for (auto& bucket : counts) {
      if (bucket.first == entry.label) {
        ++bucket.second;
        found = true;
        break;
      }
    }
    if (!found) counts.emplace_back(entry.label, 1);
  }
  double n = static_cast<double>(memory->size());
  double entropy = 0.0;
  for (const auto& bucket : counts) {
    double p = static_cast<double>(bucket.second) / n;
    entropy -= p * std::log(p);
  }
  return entropy;
}

CycleEngine::CycleEngine(CycleEngineConfig config)
    : config_(std::move(config)) {
  EDSR_CHECK(config_.strategy != nullptr);
  EDSR_CHECK(config_.trigger != nullptr);
  EDSR_CHECK(!config_.strategy->encoder()->has_input_heads())
      << "task-free streaming requires a homogeneous encoder "
         "(per-task input heads need a fixed task count)";
}

data::Task CycleEngine::TaskFromSamples(
    const std::vector<StreamSample>& samples, const std::string& name) const {
  std::vector<float> features;
  features.reserve(samples.size() * static_cast<size_t>(config_.dim));
  std::vector<int64_t> labels;
  labels.reserve(samples.size());
  for (const StreamSample& sample : samples) {
    features.insert(features.end(), sample.features.begin(),
                    sample.features.end());
    labels.push_back(sample.observed_label);
  }
  data::Task task;
  task.train = data::Dataset(name, std::move(features), std::move(labels),
                             config_.dim, config_.num_classes,
                             config_.geometry);
  task.task_id = context_.cycle;
  return task;
}

std::string CycleEngine::Feed(std::vector<StreamSample> batch) {
  util::Stopwatch watch;
  const int64_t n = static_cast<int64_t>(batch.size());
  data::Task task = TaskFromSamples(batch, "cycle-micro");
  if (!open_) {
    config_.strategy->StreamBeginCycle(task);
    open_ = true;
    loss_sum_ = 0.0;
    drift_ = -1.0;
    train_seconds_ = 0.0;
  }
  loss_sum_ += config_.strategy->StreamTrainBatch(task);
  window_.insert(window_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
  context_.samples_in_cycle += n;
  context_.micro_batches_in_cycle += 1;
  context_.total_samples += n;
  // The drift probe is lazy: only drift-style triggers pay for the buffer
  // forwards, and the last probed value lands in the cycle record.
  std::string cause = config_.trigger->ShouldFire(context_, [this] {
    drift_ = BufferDrift(config_.strategy, config_.memory);
    return drift_;
  });
  train_seconds_ += watch.ElapsedSeconds();
  return cause;
}

util::Status CycleEngine::Close(const std::string& cause) {
  EDSR_CHECK(open_) << "Close without an open cycle";
  util::Stopwatch watch;
  config_.strategy->StreamEndCycle(TaskFromSamples(window_, "cycle-window"));
  StreamCycleResult current;
  current.cycle = context_.cycle;
  current.cause = cause;
  current.samples = context_.samples_in_cycle;
  current.micro_batches = context_.micro_batches_in_cycle;
  current.total_samples = context_.total_samples;
  current.loss = loss_sum_ / static_cast<double>(current.micro_batches);
  current.drift = drift_;
  current.buffer_size =
      config_.memory != nullptr ? config_.memory->size() : 0;
  current.buffer_entropy = BufferCompositionEntropy(config_.memory);
  current.train_seconds = train_seconds_ + watch.ElapsedSeconds();

  if (config_.id_probe != nullptr || config_.ood_probe != nullptr) {
    EDSR_TRACE_SPAN("stream_eval");
    util::Stopwatch eval_watch;
    ssl::Encoder* encoder = config_.strategy->encoder();
    if (config_.id_probe != nullptr) {
      current.id_accuracy =
          cl::EvaluateTask(encoder, *config_.id_probe, config_.eval);
    }
    if (config_.ood_probe != nullptr) {
      current.ood_accuracy =
          cl::EvaluateTask(encoder, *config_.ood_probe, config_.eval);
    }
    current.eval_seconds = eval_watch.ElapsedSeconds();
  }

  {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.push_back(current);
  }
  context_.cycle += 1;
  context_.samples_in_cycle = 0;
  context_.micro_batches_in_cycle = 0;
  window_.clear();
  open_ = false;

  // Gauges are views of the latest closed cycle, readable in-band; the
  // deterministic record stays in JSONL.
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("cycle.index")->Set(static_cast<double>(current.cycle));
  metrics.GetGauge("cycle.train_seconds")->Set(current.train_seconds);
  metrics.GetGauge("cycle.eval_seconds")->Set(current.eval_seconds);
  metrics.GetGauge("cycle.drift")->Set(current.drift);
  metrics.GetGauge("cycle.buffer_size")
      ->Set(static_cast<double>(current.buffer_size));
  metrics.GetGauge("cycle.buffer_entropy")->Set(current.buffer_entropy);

  EDSR_LOG(Debug) << config_.strategy->name() << " " << config_.mode
                  << " cycle " << current.cycle << " (" << cause
                  << "): samples=" << current.samples
                  << " loss=" << current.loss
                  << " id=" << current.id_accuracy * 100.0
                  << " ood=" << current.ood_accuracy * 100.0;
  EmitRecord(current);
  return SaveCheckpoint();
}

util::Status CycleEngine::SaveCheckpoint() const {
  if (config_.checkpoint_path.empty()) return util::Status::OK();
  EDSR_TRACE_SPAN("stream_checkpoint_save");
  io::ContainerWriter writer(config_.checkpoint_path);

  io::BufferWriter meta;
  meta.WriteU32(kCycleCheckpointVersion);
  for (const auto& [name, value] : Identity(config_)) {
    meta.WriteString(name);
    meta.WriteString(value);
  }
  writer.AddSection("cycle/meta", &meta);

  io::BufferWriter gate;
  config_.trigger->Serialize(&gate);
  writer.AddSection("cycle/gate", &gate);

  io::BufferWriter history;
  history.WriteU64(history_.size());
  for (const StreamCycleResult& cycle : history_) WriteCycle(cycle, &history);
  writer.AddSection("cycle/history", &history);

  if (config_.stream_source != nullptr) {
    io::BufferWriter source;
    config_.stream_source->Serialize(&source);
    writer.AddSection("stream/source", &source);
  }

  EDSR_RETURN_NOT_OK(config_.strategy->SaveTo(&writer));
  return writer.Finish();
}

util::Status CycleEngine::LoadCheckpoint() {
  EDSR_CHECK(!open_ && history_.empty()) << "load into a fresh engine";
  const std::string& path = config_.checkpoint_path;
  util::Result<io::ContainerReader> opened = io::ContainerReader::Open(path);
  if (!opened.ok()) return opened.status();
  const io::ContainerReader& reader = *opened;

  std::vector<uint8_t> bytes;
  EDSR_RETURN_NOT_OK(reader.ReadSection("cycle/meta", &bytes));
  {
    io::BufferReader meta(bytes);
    uint32_t version = 0;
    EDSR_RETURN_NOT_OK(meta.ReadU32(&version));
    if (version != kCycleCheckpointVersion) {
      return util::Status::InvalidArgument(
          path + ": unsupported cycle-checkpoint version " +
          std::to_string(version));
    }
    // A checkpoint written under one configuration must not silently
    // continue another.
    for (const auto& [name, value] : Identity(config_)) {
      std::string saved_name;
      std::string saved_value;
      EDSR_RETURN_NOT_OK(meta.ReadString(&saved_name));
      EDSR_RETURN_NOT_OK(meta.ReadString(&saved_value));
      if (saved_name != name || saved_value != value) {
        return util::Status::InvalidArgument(
            path + ": checkpoint " + name + " \"" + saved_value +
            "\" does not match configured \"" + value + "\"");
      }
    }
    EDSR_RETURN_NOT_OK(meta.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("cycle/gate", &bytes));
  {
    io::BufferReader in(bytes);
    EDSR_RETURN_NOT_OK(config_.trigger->Deserialize(&in));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("cycle/history", &bytes));
  std::vector<StreamCycleResult> history;
  {
    io::BufferReader in(bytes);
    uint64_t count = 0;
    EDSR_RETURN_NOT_OK(in.ReadU64(&count));
    // Each serialized cycle is > 50 bytes; a count beyond the payload is
    // corruption, not a gigantic allocation request.
    if (count > bytes.size()) {
      return util::Status::IoError(path + ": cycle count exceeds payload");
    }
    int64_t total = 0;
    for (uint64_t i = 0; i < count; ++i) {
      StreamCycleResult cycle;
      EDSR_RETURN_NOT_OK(ReadCycle(&in, &cycle));
      if (cycle.cycle != static_cast<int64_t>(i) || cycle.samples <= 0 ||
          cycle.total_samples != total + cycle.samples) {
        return util::Status::IoError(path + ": inconsistent cycle history");
      }
      total = cycle.total_samples;
      history.push_back(std::move(cycle));
    }
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  if (config_.stream_source != nullptr) {
    EDSR_RETURN_NOT_OK(reader.ReadSection("stream/source", &bytes));
    io::BufferReader in(bytes);
    EDSR_RETURN_NOT_OK(config_.stream_source->Deserialize(&in));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(config_.strategy->LoadFrom(reader));
  // The trigger counters at a boundary follow from the history.
  context_ = TriggerContext();
  context_.cycle = static_cast<int64_t>(history.size());
  context_.total_samples = history.empty() ? 0 : history.back().total_samples;
  std::lock_guard<std::mutex> lock(history_mu_);
  history_ = std::move(history);
  return util::Status::OK();
}

void CycleEngine::AttachLogger(obs::RunLogger* logger) {
  config_.logger = logger;
  for (const StreamCycleResult& cycle : history_) EmitRecord(cycle);
}

void CycleEngine::EmitRecord(const StreamCycleResult& cycle) const {
  if (config_.logger == nullptr) return;
  obs::Json record = obs::Json::Object();
  record.Set("record", "cycle");
  record.Set("mode", config_.mode);
  record.Set("strategy", config_.strategy->name());
  record.Set("source", config_.source);
  record.Set("trigger", config_.trigger_spec);
  record.Set("cycle", cycle.cycle);
  record.Set("cause", cycle.cause);
  record.Set("samples", cycle.samples);
  record.Set("micro_batches", cycle.micro_batches);
  record.Set("total_samples", cycle.total_samples);
  record.Set("loss", cycle.loss);
  record.Set("drift", cycle.drift);
  obs::Json buffer = obs::Json::Object();
  buffer.Set("size", cycle.buffer_size);
  buffer.Set("entropy", cycle.buffer_entropy);
  record.Set("buffer", std::move(buffer));
  if (cycle.id_accuracy >= 0.0 || cycle.ood_accuracy >= 0.0) {
    obs::Json accuracy = obs::Json::Object();
    if (cycle.id_accuracy >= 0.0) accuracy.Set("id", cycle.id_accuracy);
    if (cycle.ood_accuracy >= 0.0) accuracy.Set("ood", cycle.ood_accuracy);
    record.Set("accuracy", std::move(accuracy));
  }
  // "perf" holds the wall-clock fields and must be the LAST key: resumed-run
  // comparisons strip the line at `,"perf"` (see run_record.h).
  obs::Json perf = obs::Json::Object();
  perf.Set("train_seconds", cycle.train_seconds);
  perf.Set("eval_seconds", cycle.eval_seconds);
  record.Set("perf", std::move(perf));
  config_.logger->Write(record);
}

std::vector<StreamCycleResult> CycleEngine::history() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return history_;
}

int64_t CycleEngine::cycles_completed() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return static_cast<int64_t>(history_.size());
}

int64_t CycleEngine::consumed() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return history_.empty() ? 0 : history_.back().total_samples;
}

}  // namespace edsr::stream
