#include "src/stream/driver.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace edsr::stream {

namespace {

util::Status ValidateOptions(const StreamRunOptions& options) {
  if (options.micro_batch < 2) {
    return util::Status::InvalidArgument(
        "stream micro_batch must be >= 2 (contrastive views need pairs)");
  }
  if (options.total_samples < 2) {
    return util::Status::InvalidArgument("stream total_samples must be >= 2");
  }
  if (options.id_probe == nullptr) {
    return util::Status::InvalidArgument(
        "stream runs need an ID probe (the preset's clean held-out split)");
  }
  return util::Status::OK();
}

CycleEngineConfig EngineConfig(cl::ContinualStrategy* strategy,
                               StreamSource* source, CycleTrigger* trigger,
                               const StreamRunOptions& options) {
  CycleEngineConfig config;
  config.strategy = strategy;
  config.trigger = trigger;
  config.memory = options.memory;
  config.dim = source->base().dim();
  config.num_classes = source->base().num_classes();
  config.geometry = source->base().geometry();
  config.id_probe = options.id_probe;
  config.ood_probe = options.ood_probe;
  config.eval = options.eval;
  config.mode = "stream";
  config.source = options.stream_spec;
  config.trigger_spec = options.trigger_spec;
  config.logger = options.logger;
  if (!options.checkpoint_directory.empty()) {
    config.checkpoint_path = options.checkpoint_directory + "/stream.ckpt";
  }
  config.stream_source = source;
  return config;
}

// Feeds source micro-batches into the engine until the sample budget is
// consumed (or stop_after_cycle simulates a kill), then reports the
// engine's history.
util::Status RunCyclesFrom(CycleEngine* engine, StreamSource* source,
                           const StreamRunOptions& options,
                           StreamRunResult* result) {
  if (!options.checkpoint_directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_directory, ec);
    if (ec) {
      return util::Status::IoError("cannot create checkpoint directory " +
                                   options.checkpoint_directory + ": " +
                                   ec.message());
    }
  }
  auto remaining = [&] {
    return options.total_samples - engine->total_samples();
  };
  result->finished = true;
  while (remaining() >= 2) {
    EDSR_TRACE_SPAN("stream_cycle");
    std::string cause;
    while (cause.empty()) {
      cause = engine->Feed(
          source->NextBatch(std::min(options.micro_batch, remaining())));
      if (cause.empty() && remaining() < 2) {
        cause = "end";  // stream exhausted before the trigger fired
      }
    }
    EDSR_RETURN_NOT_OK(engine->Close(cause));
    if (options.stop_after_cycle >= 0 &&
        engine->cycles_completed() > options.stop_after_cycle) {
      result->finished = false;  // simulated kill
      break;
    }
  }
  result->cycles = engine->history();
  result->total_samples = engine->total_samples();
  return util::Status::OK();
}

}  // namespace

util::Result<StreamRunResult> RunStream(cl::ContinualStrategy* strategy,
                                        StreamSource* source,
                                        CycleTrigger* trigger,
                                        const StreamRunOptions& options) {
  EDSR_CHECK(source != nullptr);
  EDSR_RETURN_NOT_OK(ValidateOptions(options));
  CycleEngine engine(EngineConfig(strategy, source, trigger, options));
  StreamRunResult result;
  EDSR_RETURN_NOT_OK(RunCyclesFrom(&engine, source, options, &result));
  return result;
}

util::Status ResumeStream(cl::ContinualStrategy* strategy,
                          StreamSource* source, CycleTrigger* trigger,
                          const StreamRunOptions& options,
                          StreamRunResult* result) {
  EDSR_CHECK(source != nullptr);
  EDSR_CHECK(result != nullptr);
  EDSR_RETURN_NOT_OK(ValidateOptions(options));
  if (options.checkpoint_directory.empty()) {
    return util::Status::InvalidArgument(
        "ResumeStream needs a checkpoint directory");
  }
  CycleEngine engine(EngineConfig(strategy, source, trigger, options));
  EDSR_RETURN_NOT_OK(engine.LoadCheckpoint());
  StreamRunResult restored;
  EDSR_RETURN_NOT_OK(RunCyclesFrom(&engine, source, options, &restored));
  *result = std::move(restored);
  return util::Status::OK();
}

}  // namespace edsr::stream
