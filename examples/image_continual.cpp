// Image continual learning: compare Finetune, CaSSLe, and EDSR on the
// synth-cifar10 benchmark (5 increments), printing per-increment Acc/Fgt
// and the forgetting heatmap — a miniature of the paper's Table III row.
//
//   ./image_continual [seed] [--method <name>] [--epochs <n>]
//                     [--selector <name[:key=value,...]>] [--retrieval <name>]
//                     [--checkpoint_dir <dir>] [--resume]
//                     [--metrics_out <file.jsonl>] [--trace_out <file.json>]
//                     [--list]
//
// Flags accept both `--flag value` and `--flag=value`. --method restricts
// the comparison to one strategy; --epochs overrides the per-increment
// epoch count (the CI telemetry check runs a 2-epoch miniature).
// --selector/--retrieval override the replay strategies' data-selection and
// replay-retrieval specs through SelectorRegistry / RetrievalRegistry; an
// unknown name fails up front with the list of registered entries. --list
// prints every registered selector, retrieval policy, stream transform,
// cycle trigger, and image preset, then exits.
//
// With --checkpoint_dir, each method writes an atomic run snapshot after
// every increment under <dir>/<method>/run.ckpt; --resume picks a killed
// run back up from its latest snapshot (and falls back to a fresh run when
// no usable checkpoint exists), reproducing the uninterrupted run exactly.
//
// --metrics_out appends structured run records (one JSON object per line:
// per-epoch loss components, per-increment selection stats and accuracy
// rows; schema in DESIGN.md §6). --trace_out enables trace spans and writes
// a Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "examples/cli.h"
#include "src/cl/factory.h"
#include "src/cl/retrieval.h"
#include "src/cl/selection.h"
#include "src/cl/trainer.h"
#include "src/data/synthetic.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace edsr;
  uint64_t seed = 0;
  std::string checkpoint_dir;
  std::string method_filter;
  std::string metrics_out;
  std::string trace_out;
  std::string epochs_flag;
  std::string selector_spec;
  std::string retrieval_spec;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--checkpoint_dir", &checkpoint_dir) ||
        ParseFlag(argc, argv, &i, "--method", &method_filter) ||
        ParseFlag(argc, argv, &i, "--epochs", &epochs_flag) ||
        ParseFlag(argc, argv, &i, "--selector", &selector_spec) ||
        ParseFlag(argc, argv, &i, "--retrieval", &retrieval_spec) ||
        ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--trace_out", &trace_out)) {
      continue;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      PrintRegistries();
      return 0;
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint_dir\n");
    return 1;
  }
  // Validate registry specs up front: strategy construction aborts on a bad
  // spec, whereas here a typo exits cleanly with the registered names.
  if (!selector_spec.empty()) {
    util::Result<std::unique_ptr<cl::DataSelector>> probe =
        cl::SelectorRegistry::Global().Create(selector_spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--selector: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
  }
  if (!retrieval_spec.empty()) {
    util::Result<std::unique_ptr<cl::RetrievalPolicy>> probe =
        cl::RetrievalRegistry::Global().Create(retrieval_spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--retrieval: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    obs::Tracer::SetEnabled(true);
    obs::Tracer::SetEventRecording(true);
  }

  data::SyntheticImagePair pair =
      MakeSyntheticImageData(data::SynthCifar10Config(seed));
  util::Rng split_rng(seed * 31 + 7);
  data::TaskSequence sequence =
      data::TaskSequence::SplitByClasses(pair.train, pair.test, 5, &split_rng);

  cl::StrategyContext context;
  context.encoder.mlp_dims = {pair.train.dim(), 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.epochs = 15;
  context.batch_size = 32;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 8;
  context.replay_batch_size = 16;
  context.seed = seed;
  context.selector_spec = selector_spec;
  if (!retrieval_spec.empty()) context.retrieval_spec = retrieval_spec;
  if (!epochs_flag.empty()) {
    context.epochs = std::strtoll(epochs_flag.c_str(), nullptr, 10);
    if (context.epochs <= 0) {
      std::fprintf(stderr, "--epochs must be positive\n");
      return 1;
    }
  }

  obs::RunLogger* logger = nullptr;
  std::unique_ptr<obs::RunLogger> metrics_logger;
  if (!metrics_out.empty()) {
    metrics_logger = std::make_unique<obs::RunLogger>(metrics_out);
    if (!metrics_logger->ok()) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    logger = metrics_logger.get();
  }

  for (const char* method : {"finetune", "cassle", "edsr"}) {
    if (!method_filter.empty() && method_filter != method) continue;
    auto strategy = cl::MakeStrategy(method, context);
    if (logger != nullptr) {
      obs::Json header = obs::Json::Object();
      header.Set("record", "run");
      header.Set("strategy", method);
      header.Set("seed", static_cast<int64_t>(seed));
      header.Set("increments", sequence.num_tasks());
      header.Set("epochs", context.epochs);
      logger->Write(header);
      strategy->SetRunLogger(logger);
    }
    cl::CheckpointOptions checkpoint;
    if (!checkpoint_dir.empty()) {
      checkpoint.directory = checkpoint_dir + "/" + method;
    }
    cl::ContinualRunResult result{eval::AccuracyMatrix(sequence.num_tasks())};
    bool resumed = false;
    if (resume) {
      util::Status status = cl::ResumeContinual(strategy.get(), sequence, {},
                                                checkpoint, &result);
      resumed = status.ok();
      if (!resumed) {
        // A missing or corrupt snapshot downgrades to a fresh run rather
        // than aborting the whole comparison.
        EDSR_LOG(Warning) << "[" << method << "] no usable checkpoint ("
                          << status.ToString() << "); starting fresh";
        strategy = cl::MakeStrategy(method, context);
        if (logger != nullptr) strategy->SetRunLogger(logger);
      }
    }
    if (!resumed) {
      result = cl::RunContinual(strategy.get(), sequence, {}, checkpoint);
    }
    std::printf("\n=== %s ===\n", method);
    std::printf("per-increment Acc_i:");
    for (int64_t i = 0; i < sequence.num_tasks(); ++i) {
      std::printf(" %.1f", result.matrix.Acc(i) * 100.0);
    }
    std::printf("\nfinal Acc = %.1f%%  Fgt = %.1f%%  (train %.1fs)\n",
                result.matrix.FinalAcc() * 100.0,
                result.matrix.FinalFgt() * 100.0, result.train_seconds);
    std::printf("forgetting heatmap (log10 %%, . = none):\n%s",
                result.matrix.ForgettingHeatmap().c_str());
  }

  if (!trace_out.empty()) {
    util::Status status = obs::Tracer::WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    EDSR_LOG(Info) << "wrote trace to " << trace_out << " ("
                   << obs::Tracer::dropped_events() << " events dropped)";
  }
  return 0;
}
