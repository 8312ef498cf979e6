// Shared configuration and helpers for the experiment harnesses.
//
// Every bench_table*/bench_fig* binary reproduces one table or figure of the
// paper at single-core scale. The workload presets and the training regime
// here were calibrated (DESIGN.md §2) so that the *dynamics* of the paper
// appear: per-increment accuracy well below ceiling, severe forgetting for
// Finetune, and visible differences between methods. The regime's key knob
// is weight decay: with many optimizer steps per increment, features that
// the current increment does not exercise decay — the single-core analogue
// of the representation interference that drives forgetting at paper scale.
//
// Flags (all optional):
//   --seeds N     number of seeds averaged per cell (default per bench)
//   --quick       reduced epochs/seeds for smoke runs
//   --csv PATH    also write the table as CSV
#ifndef EDSR_BENCH_BENCH_COMMON_H_
#define EDSR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/cl/factory.h"
#include "src/cl/trainer.h"
#include "src/data/synthetic.h"
#include "src/util/table.h"

namespace edsr::bench {

struct BenchFlags {
  int64_t seeds = 3;
  bool quick = false;
  std::string csv;

  static BenchFlags Parse(int argc, char** argv, int64_t default_seeds = 3) {
    BenchFlags flags;
    flags.seeds = default_seeds;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        flags.quick = true;
        flags.seeds = 1;
      } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
        flags.seeds = std::atoll(argv[++i]);
      } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        flags.csv = argv[++i];
      }
    }
    return flags;
  }
};

// The frozen image-benchmark training regime.
inline cl::StrategyContext ImageContext(uint64_t seed, bool quick = false) {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {192, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.epochs = quick ? 6 : 15;
  context.batch_size = 32;
  context.lr = 0.05f;
  context.momentum = 0.9f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 8;
  context.replay_batch_size = 16;
  context.seed = seed;
  return context;
}

// The tabular regime (paper: Adam, 7-layer MLP, data-specific first layer).
inline cl::StrategyContext TabularContext(uint64_t seed,
                                          std::vector<int64_t> head_dims,
                                          bool quick = false) {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {24, 32, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.encoder.input_head_dims = std::move(head_dims);
  context.epochs = quick ? 4 : 12;
  context.batch_size = 32;
  context.use_adam = true;
  context.adam_lr = 1e-3f;
  context.memory_per_task = 8;  // ~1% of the scaled tabular sets
  context.replay_batch_size = 16;
  context.seed = seed;
  return context;
}

// A named image benchmark: preset + its task count + the calibrated decay.
// Weight decay is the regime's forgetting knob (header comment); because
// total decay steps grow with sequence length, longer benchmarks use a
// softer setting so un-protected methods degrade without collapsing to
// chance.
struct ImageBenchmark {
  std::string label;
  data::SyntheticImageConfig (*config)(uint64_t);
  int64_t num_tasks;
  float weight_decay;
};

inline std::vector<ImageBenchmark> AllImageBenchmarks() {
  return {
      {"synth-cifar10", data::SynthCifar10Config, 5, 0.03f},
      {"synth-cifar100", data::SynthCifar100Config, 10, 0.012f},
      {"synth-tinyimagenet", data::SynthTinyImageNetConfig, 10, 0.012f},
      {"synth-domainnet", data::SynthDomainNetConfig, 15, 0.015f},
  };
}

// The image regime specialized to one benchmark.
inline cl::StrategyContext ContextFor(const ImageBenchmark& benchmark,
                                      uint64_t seed, bool quick = false) {
  cl::StrategyContext context = ImageContext(seed, quick);
  context.weight_decay = benchmark.weight_decay;
  return context;
}

// Builds the task sequence for a benchmark at a given seed (the class order
// is shuffled with the same seed).
inline data::TaskSequence MakeSequence(const ImageBenchmark& benchmark,
                                       uint64_t seed) {
  data::SyntheticImagePair pair =
      MakeSyntheticImageData(benchmark.config(seed));
  util::Rng order_rng(seed * 31 + 7);
  return data::TaskSequence::SplitByClasses(pair.train, pair.test,
                                            benchmark.num_tasks, &order_rng);
}

// Aggregated outcome of multi-seed runs of one method on one benchmark.
struct MethodResult {
  util::MeanStdDev acc;   // percent
  util::MeanStdDev fgt;   // percent
  double train_seconds = 0.0;  // mean per run
  std::vector<eval::AccuracyMatrix> matrices;
};

template <typename StrategyFactory>
MethodResult RunSeeds(StrategyFactory&& make_strategy,
                      const ImageBenchmark& benchmark, int64_t seeds,
                      const cl::EvalOptions& eval_options = {}) {
  std::vector<double> accs, fgts;
  MethodResult result;
  for (int64_t seed = 0; seed < seeds; ++seed) {
    data::TaskSequence sequence = MakeSequence(benchmark, seed);
    auto strategy = make_strategy(seed);
    cl::ContinualRunResult run =
        cl::RunContinual(strategy.get(), sequence, eval_options);
    accs.push_back(run.matrix.FinalAcc() * 100.0);
    fgts.push_back(run.matrix.FinalFgt() * 100.0);
    result.train_seconds += run.train_seconds;
    result.matrices.push_back(run.matrix);
  }
  result.acc = util::ComputeMeanStd(accs);
  result.fgt = util::ComputeMeanStd(fgts);
  result.train_seconds /= static_cast<double>(seeds);
  return result;
}

// Convenience: run a factory-name method across seeds.
inline MethodResult RunNamedMethod(const std::string& name,
                                   const ImageBenchmark& benchmark,
                                   int64_t seeds, bool quick) {
  return RunSeeds(
      [&](uint64_t seed) {
        return cl::MakeStrategy(name, ContextFor(benchmark, seed, quick));
      },
      benchmark, seeds);
}

inline void EmitTable(const util::Table& table, const BenchFlags& flags,
                      const std::string& title) {
  std::printf("\n%s\n%s", title.c_str(), table.ToText().c_str());
  if (!flags.csv.empty()) {
    table.WriteCsv(flags.csv).Check();
    std::printf("(csv written to %s)\n", flags.csv.c_str());
  }
  std::fflush(stdout);
}

}  // namespace edsr::bench

#endif  // EDSR_BENCH_BENCH_COMMON_H_
