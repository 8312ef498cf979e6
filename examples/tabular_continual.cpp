// Tabular continual learning across heterogeneous feature spaces: the five
// Table II tabular presets (16/17/14/20/10 features) learned as a
// 5-increment sequence through per-increment input heads, with EDSR's
// memory replay routed through the right head for each stored sample.
//
//   ./tabular_continual [seed] [--epochs <n>]
//                       [--metrics_out <file.jsonl>] [--trace_out <file.json>]
//
// Flags accept both `--flag value` and `--flag=value`. --metrics_out appends
// structured run records (DESIGN.md §6); --trace_out enables trace spans and
// writes Chrome trace-event JSON.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "examples/cli.h"
#include "src/cl/trainer.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace edsr;
  uint64_t seed = 0;
  std::string metrics_out;
  std::string trace_out;
  std::string epochs_flag;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--trace_out", &trace_out) ||
        ParseFlag(argc, argv, &i, "--epochs", &epochs_flag)) {
      continue;
    }
    seed = std::strtoull(argv[i], nullptr, 10);
  }
  if (!trace_out.empty()) {
    obs::Tracer::SetEnabled(true);
    obs::Tracer::SetEventRecording(true);
  }

  std::vector<std::pair<data::Dataset, data::Dataset>> pairs;
  std::vector<int64_t> head_dims;
  for (const auto& config : data::TabularBenchmarkConfigs(seed)) {
    auto pair = MakeSyntheticTabularData(config);
    std::printf("%-16s %lld features, %lld train rows, positive rate %.1f%%\n",
                config.name.c_str(),
                static_cast<long long>(config.num_features),
                static_cast<long long>(config.train_size),
                config.positive_rate * 100.0f);
    head_dims.push_back(config.num_features);
    pairs.emplace_back(pair.train, pair.test);
  }
  data::TaskSequence sequence = data::TaskSequence::FromDatasets(pairs);

  cl::StrategyContext context;
  context.encoder.mlp_dims = {24, 32, 32, 32};  // shared trunk
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.encoder.input_head_dims = head_dims;  // data-specific first layer
  context.epochs = 12;
  context.batch_size = 32;
  context.use_adam = true;  // the paper's tabular optimizer
  context.memory_per_task = 8;
  context.replay_batch_size = 16;
  context.seed = seed;
  if (!epochs_flag.empty()) {
    context.epochs = std::strtoll(epochs_flag.c_str(), nullptr, 10);
    if (context.epochs <= 0) {
      std::fprintf(stderr, "--epochs must be positive\n");
      return 1;
    }
  }

  core::Edsr edsr(context);
  std::unique_ptr<obs::RunLogger> metrics_logger;
  if (!metrics_out.empty()) {
    metrics_logger = std::make_unique<obs::RunLogger>(metrics_out);
    if (!metrics_logger->ok()) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    obs::Json header = obs::Json::Object();
    header.Set("record", "run");
    header.Set("strategy", "edsr");
    header.Set("seed", static_cast<int64_t>(seed));
    header.Set("increments", sequence.num_tasks());
    header.Set("epochs", context.epochs);
    metrics_logger->Write(header);
    edsr.SetRunLogger(metrics_logger.get());
  }

  cl::ContinualRunResult result = cl::RunContinual(&edsr, sequence, {});
  std::printf("\naccuracy matrix:\n%s", result.matrix.ToString().c_str());
  std::printf("final Acc = %.1f%%, Fgt = %.1f%%\n",
              result.matrix.FinalAcc() * 100.0,
              result.matrix.FinalFgt() * 100.0);
  std::printf("memory spans %lld entries with per-increment dims:",
              static_cast<long long>(edsr.memory().size()));
  for (int64_t i = 0; i < edsr.memory().size();
       i += context.memory_per_task) {
    std::printf(" %zu", edsr.memory().entry(i).features.size());
  }
  std::printf("\n");

  if (!trace_out.empty()) {
    util::Status status = obs::Tracer::WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    EDSR_LOG(Info) << "wrote trace to " << trace_out;
  }
  return 0;
}
