#include "src/cl/trainer.h"

#include <algorithm>
#include <filesystem>

#include "src/eval/representations.h"
#include "src/io/container.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/arena.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace edsr::cl {

double EvaluateTask(ssl::Encoder* encoder, const data::Task& task,
                    const EvalOptions& options) {
  EDSR_TRACE_SPAN("eval_task");
  // Evaluation never backpropagates; keep the whole protocol graph-free.
  tensor::NoGradGuard no_grad;
  int64_t head = encoder->has_input_heads() ? task.task_id : -1;
  eval::RepresentationMatrix bank =
      eval::ExtractRepresentations(encoder, task.train, 64, head);
  eval::RepresentationMatrix queries =
      eval::ExtractRepresentations(encoder, task.test, 64, head);
  eval::KnnOptions knn_options;
  knn_options.k = options.knn_k;
  knn_options.temperature = options.knn_temperature;
  knn_options.num_classes = task.train.num_classes();
  eval::KnnClassifier knn(std::move(bank), task.train.labels(), knn_options);
  return knn.Evaluate(queries, task.test.labels());
}

namespace {

// Run-snapshot sub-format inside the io:: container ("run/..." sections).
// v2: MemoryEntry grew stored_representation; EDSR extras append name-tagged
// selector + retrieval-policy state. v1 checkpoints cannot load. The replay
// buffer has its own "strategy/memory" section, added without a version bump
// (the container evolves by adding sections): a v2 checkpoint that lacks it
// loads only for strategies that keep no buffer.
constexpr uint32_t kRunCheckpointVersion = 2;

std::string CheckpointPath(const CheckpointOptions& checkpoint) {
  return checkpoint.directory + "/run.ckpt";
}

// The shared increment loop: learns increments [first, num_tasks), filling
// matrix rows and (when enabled) snapshotting after each boundary.
void RunIncrementsFrom(ContinualStrategy* strategy,
                       const data::TaskSequence& sequence,
                       const EvalOptions& options,
                       const CheckpointOptions& checkpoint, int64_t first,
                       ContinualRunResult* result) {
  const bool checkpointing = !checkpoint.directory.empty();
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint.directory, ec);
    EDSR_CHECK(!ec) << "cannot create checkpoint directory "
                    << checkpoint.directory << ": " << ec.message();
  }
  obs::RunLogger* logger = strategy->run_logger();
  for (int64_t i = first; i < sequence.num_tasks(); ++i) {
    EDSR_TRACE_SPAN("increment");
    if (logger != nullptr) {
      // Scope the counter-style metrics to this increment so the record's
      // "perf" fields are per-increment deltas. Only a logged run resets
      // global state — nested uses (MultitaskAccuracy) must not clobber the
      // outer run's counters.
      tensor::arena::ResetStats();
      obs::MetricsRegistry::Global().ResetCountersAndHistograms();
    }
    util::Stopwatch train_watch;
    strategy->LearnIncrement(sequence.task(i));
    double train_seconds = train_watch.ElapsedSeconds();
    result->train_seconds += train_seconds;

    util::Stopwatch eval_watch;
    {
      EDSR_TRACE_SPAN("eval");
      for (int64_t j = 0; j <= i; ++j) {
        double acc =
            EvaluateTask(strategy->encoder(), sequence.task(j), options);
        result->matrix.Set(i, j, acc);
      }
    }
    double eval_seconds = eval_watch.ElapsedSeconds();
    result->eval_seconds += eval_seconds;
    EDSR_LOG(Debug) << strategy->name() << " after task " << i << ": Acc="
                    << result->matrix.Acc(i) * 100.0
                    << " Fgt=" << result->matrix.Fgt(i) * 100.0;
    if (logger != nullptr) {
      obs::Json record = obs::Json::Object();
      record.Set("record", "increment");
      record.Set("strategy", strategy->name());
      record.Set("increment", i);
      obs::Json stats = obs::Json::Object();
      for (const auto& stat : strategy->TakeIncrementStats()) {
        stats.Set(stat.first, stat.second);
      }
      record.Set("stats", std::move(stats));
      obs::Json row = obs::Json::Array();
      for (int64_t j = 0; j <= i; ++j) {
        row.Push(obs::Json::Number(result->matrix.Get(i, j)));
      }
      obs::Json accuracy = obs::Json::Object();
      accuracy.Set("row", std::move(row));
      accuracy.Set("acc", result->matrix.Acc(i));
      accuracy.Set("fgt", result->matrix.Fgt(i));
      record.Set("accuracy", std::move(accuracy));
      // "perf" holds every wall-clock / machine-dependent field and must be
      // the LAST key: resumed-run comparisons strip it by truncating the
      // line at `,"perf"` (see run_record.h).
      obs::Json perf = obs::Json::Object();
      perf.Set("train_seconds", train_seconds);
      perf.Set("eval_seconds", eval_seconds);
      perf.Set("metrics", obs::MetricsRegistry::Global().ToJson());
      if (obs::Tracer::enabled()) {
        perf.Set("spans", obs::Tracer::SummaryJson());
      }
      record.Set("perf", std::move(perf));
      logger->Write(record);
    }
    if (checkpointing) {
      EDSR_TRACE_SPAN("checkpoint_save");
      // Fail fast: silently continuing without fault tolerance would defeat
      // the point of asking for it.
      SaveRunCheckpoint(CheckpointPath(checkpoint), strategy, *result, i + 1)
          .Check();
    }
    if (checkpoint.stop_after_increment >= 0 &&
        i >= checkpoint.stop_after_increment) {
      break;
    }
  }
}

}  // namespace

ContinualRunResult RunContinual(ContinualStrategy* strategy,
                                const data::TaskSequence& sequence,
                                const EvalOptions& options) {
  return RunContinual(strategy, sequence, options, CheckpointOptions{});
}

ContinualRunResult RunContinual(ContinualStrategy* strategy,
                                const data::TaskSequence& sequence,
                                const EvalOptions& options,
                                const CheckpointOptions& checkpoint) {
  EDSR_CHECK(strategy != nullptr);
  ContinualRunResult result{eval::AccuracyMatrix(sequence.num_tasks())};
  RunIncrementsFrom(strategy, sequence, options, checkpoint, 0, &result);
  return result;
}

util::Status ResumeContinual(ContinualStrategy* strategy,
                             const data::TaskSequence& sequence,
                             const EvalOptions& options,
                             const CheckpointOptions& checkpoint,
                             ContinualRunResult* result) {
  EDSR_CHECK(strategy != nullptr);
  EDSR_CHECK(result != nullptr);
  EDSR_CHECK(!checkpoint.directory.empty())
      << "ResumeContinual needs a checkpoint directory";
  ContinualRunResult restored{eval::AccuracyMatrix(sequence.num_tasks())};
  int64_t next_increment = 0;
  EDSR_RETURN_NOT_OK(LoadRunCheckpoint(CheckpointPath(checkpoint), strategy,
                                       &restored, &next_increment));
  RunIncrementsFrom(strategy, sequence, options, checkpoint, next_increment,
                    &restored);
  *result = restored;
  return util::Status::OK();
}

util::Status SaveRunCheckpoint(const std::string& path,
                               ContinualStrategy* strategy,
                               const ContinualRunResult& result,
                               int64_t next_increment) {
  EDSR_CHECK(strategy != nullptr);
  const eval::AccuracyMatrix& matrix = result.matrix;
  io::ContainerWriter writer(path);

  io::BufferWriter meta;
  meta.WriteU32(kRunCheckpointVersion);
  meta.WriteI64(next_increment);
  meta.WriteI64(matrix.num_tasks());
  meta.WriteF64(result.train_seconds);
  meta.WriteF64(result.eval_seconds);
  writer.AddSection("run/meta", &meta);

  io::BufferWriter cells;
  for (int64_t i = 0; i < matrix.num_tasks(); ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      cells.WriteU8(matrix.IsSet(i, j) ? 1 : 0);
      cells.WriteF64(matrix.IsSet(i, j) ? matrix.Get(i, j) : 0.0);
    }
  }
  writer.AddSection("run/matrix", &cells);

  EDSR_RETURN_NOT_OK(strategy->SaveTo(&writer));
  return writer.Finish();
}

util::Status LoadRunCheckpoint(const std::string& path,
                               ContinualStrategy* strategy,
                               ContinualRunResult* result,
                               int64_t* next_increment) {
  EDSR_CHECK(strategy != nullptr);
  EDSR_CHECK(result != nullptr);
  EDSR_CHECK(next_increment != nullptr);
  util::Result<io::ContainerReader> opened = io::ContainerReader::Open(path);
  if (!opened.ok()) return opened.status();
  const io::ContainerReader& reader = *opened;

  std::vector<uint8_t> bytes;
  EDSR_RETURN_NOT_OK(reader.ReadSection("run/meta", &bytes));
  io::BufferReader meta(bytes);
  uint32_t version = 0;
  int64_t next = 0;
  int64_t num_tasks = 0;
  EDSR_RETURN_NOT_OK(meta.ReadU32(&version));
  if (version != kRunCheckpointVersion) {
    return util::Status::InvalidArgument(
        path + ": unsupported run-checkpoint version " +
        std::to_string(version));
  }
  EDSR_RETURN_NOT_OK(meta.ReadI64(&next));
  EDSR_RETURN_NOT_OK(meta.ReadI64(&num_tasks));
  EDSR_RETURN_NOT_OK(meta.ReadF64(&result->train_seconds));
  EDSR_RETURN_NOT_OK(meta.ReadF64(&result->eval_seconds));
  EDSR_RETURN_NOT_OK(meta.ExpectEnd());
  if (num_tasks != result->matrix.num_tasks()) {
    return util::Status::InvalidArgument(
        path + ": checkpoint covers " + std::to_string(num_tasks) +
        " increments, sequence has " +
        std::to_string(result->matrix.num_tasks()));
  }
  if (next < 0 || next > num_tasks) {
    return util::Status::IoError(path + ": next-increment index " +
                                 std::to_string(next) + " out of range");
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("run/matrix", &bytes));
  io::BufferReader cells(bytes);
  for (int64_t i = 0; i < num_tasks; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      uint8_t is_set = 0;
      double value = 0.0;
      EDSR_RETURN_NOT_OK(cells.ReadU8(&is_set));
      EDSR_RETURN_NOT_OK(cells.ReadF64(&value));
      if (is_set == 0) continue;
      // AccuracyMatrix::Set aborts outside [0, 1]; corrupt floats must
      // surface as a Status instead.
      if (!(value >= 0.0 && value <= 1.0)) {
        return util::Status::IoError(path + ": accuracy cell out of range");
      }
      result->matrix.Set(i, j, value);
    }
  }
  EDSR_RETURN_NOT_OK(cells.ExpectEnd());

  EDSR_RETURN_NOT_OK(strategy->LoadFrom(reader));
  *next_increment = next;
  return util::Status::OK();
}

double MultitaskAccuracy(const StrategyContext& context,
                         const data::TaskSequence& sequence,
                         const EvalOptions& options, int64_t checkpoints) {
  EDSR_CHECK_GT(checkpoints, 0);
  bool homogeneous = context.encoder.input_head_dims.empty();
  for (int64_t t = 1; homogeneous && t < sequence.num_tasks(); ++t) {
    homogeneous = sequence.task(t).train.dim() == sequence.task(0).train.dim();
  }

  auto average_task_accuracy = [&](ssl::Encoder* encoder) {
    double total = 0.0;
    for (int64_t t = 0; t < sequence.num_tasks(); ++t) {
      total += EvaluateTask(encoder, sequence.task(t), options);
    }
    return total / static_cast<double>(sequence.num_tasks());
  };

  StrategyContext chunk_context = context;
  chunk_context.epochs =
      std::max<int64_t>(1, context.epochs / checkpoints);
  Finetune joint(chunk_context);
  double best = 0.0;
  if (homogeneous) {
    data::Task merged;
    merged.task_id = 0;
    merged.train = sequence.MergedTrain(sequence.num_tasks() - 1);
    merged.test = sequence.MergedTest(sequence.num_tasks() - 1);
    for (int64_t chunk = 0; chunk < checkpoints; ++chunk) {
      joint.LearnIncrement(merged);
      best = std::max(best, average_task_accuracy(joint.encoder()));
    }
  } else {
    // Heterogeneous dims: round-robin joint training through the heads.
    StrategyContext round_context = context;
    round_context.epochs = 1;
    Finetune round_joint(round_context);
    for (int64_t round = 0; round < context.epochs; ++round) {
      for (int64_t t = 0; t < sequence.num_tasks(); ++t) {
        round_joint.LearnIncrement(sequence.task(t));
      }
      if ((round + 1) % std::max<int64_t>(1, context.epochs / checkpoints) ==
          0) {
        best = std::max(best, average_task_accuracy(round_joint.encoder()));
      }
    }
  }
  return best;
}

}  // namespace edsr::cl
