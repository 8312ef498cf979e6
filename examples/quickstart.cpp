// Quickstart: train EDSR on a two-increment synthetic image stream and
// inspect accuracy, forgetting, and the selected memory.
//
//   ./quickstart [--metrics_out <file.jsonl>] [--trace_out <file.json>]
//
// Walks through the full public API surface: dataset generation, task
// splitting, strategy construction, the continual loop, and evaluation.
// --metrics_out appends the structured run records the trainer emits
// (DESIGN.md §6); --trace_out enables trace spans and writes a Chrome
// trace-event file loadable in Perfetto. Both validate with
// scripts/validate_telemetry.py.
#include <cstdio>
#include <memory>
#include <string>

#include "examples/cli.h"
#include "src/cl/trainer.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"

int main(int argc, char** argv) {
  using namespace edsr;

  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--trace_out", &trace_out)) {
      continue;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  if (!trace_out.empty()) {
    obs::Tracer::SetEnabled(true);
    obs::Tracer::SetEventRecording(true);
  }

  // 1. Generate an unlabeled-for-training synthetic image benchmark:
  //    8 classes rendered from latent class prototypes.
  data::SyntheticImageConfig data_config;
  data_config.name = "quickstart";
  data_config.num_classes = 8;
  data_config.train_per_class = 30;
  data_config.test_per_class = 20;
  data_config.geometry = {3, 8, 8};
  data_config.latent_dim = 10;
  data_config.class_separation = 1.5f;
  data_config.latent_noise = 1.0f;
  data_config.seed = 42;
  data::SyntheticImagePair pair = MakeSyntheticImageData(data_config);
  std::printf("generated %lld train / %lld test images (%lld dims)\n",
              static_cast<long long>(pair.train.size()),
              static_cast<long long>(pair.test.size()),
              static_cast<long long>(pair.train.dim()));

  // 2. Split into a class-incremental sequence: 2 increments x 4 classes.
  util::Rng split_rng(7);
  data::TaskSequence sequence =
      data::TaskSequence::SplitByClasses(pair.train, pair.test, 2, &split_rng);

  // 3. Configure the encoder + training regime.
  cl::StrategyContext context;
  context.encoder.mlp_dims = {pair.train.dim(), 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.epochs = 10;
  context.batch_size = 32;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 8;   // the storage budget s per increment
  context.replay_batch_size = 16;
  context.seed = 0;

  // 4. Build EDSR (entropy-based selection + noise-enhanced replay) and run
  //    the continual loop; evaluation uses the paper's KNN protocol.
  core::Edsr edsr(context);
  std::unique_ptr<obs::RunLogger> logger;
  if (!metrics_out.empty()) {
    logger = std::make_unique<obs::RunLogger>(metrics_out);
    if (!logger->ok()) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    obs::Json header = obs::Json::Object();
    header.Set("record", "run");
    header.Set("strategy", "edsr");
    header.Set("seed", static_cast<int64_t>(context.seed));
    header.Set("increments", sequence.num_tasks());
    header.Set("epochs", context.epochs);
    logger->Write(header);
    edsr.SetRunLogger(logger.get());
  }
  cl::ContinualRunResult result = cl::RunContinual(&edsr, sequence, {});

  std::printf("\naccuracy matrix (row i = after increment i):\n%s",
              result.matrix.ToString().c_str());
  std::printf("final Acc = %.1f%%, final Fgt = %.1f%%\n",
              result.matrix.FinalAcc() * 100.0,
              result.matrix.FinalFgt() * 100.0);

  // 5. Peek at the memory the entropy selector kept.
  std::printf("\nmemory: %lld stored samples (budget %lld per increment)\n",
              static_cast<long long>(edsr.memory().size()),
              static_cast<long long>(context.memory_per_task));
  const cl::MemoryEntry& entry = edsr.memory().entry(0);
  std::printf("first entry: increment %lld, source row %lld, "
              "noise scale dims %zu\n",
              static_cast<long long>(entry.task_id),
              static_cast<long long>(entry.source_index),
              entry.noise_scale.size());

  if (!trace_out.empty()) {
    util::Status status = obs::Tracer::WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  return 0;
}
