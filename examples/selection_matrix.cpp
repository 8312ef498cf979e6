// Selection-strategy experiment matrix: runs EDSR end-to-end over every
// (selector × retrieval policy × data preset × memory budget) cell and
// emits one "selection_matrix" JSONL record per cell — the harness behind
// the Table-V-style selector/retrieval comparison (scripts/report_matrix.py
// tabulates the output).
//
//   ./selection_matrix [--metrics_out <file.jsonl>] [--seed <n>]
//                      [--epochs <n>] [--selectors <spec,spec,...>]
//                      [--retrievals <name,name,...>]
//                      [--presets <easy,hard>] [--budgets <n,n,...>]
//
// Defaults run every registered selector × 3 retrieval policies × 2 presets
// × 2 budgets. Each cell trains the full EDSR pipeline (3 increments) and
// reports final accuracy, forgetting, the achieved memory entropy
// Tr(Cov(f̂(M))), and wall time. Unknown selector/retrieval names fail up
// front with the registry's list of valid entries.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "examples/cli.h"
#include "src/cl/retrieval.h"
#include "src/cl/selection.h"
#include "src/cl/trainer.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/run_record.h"

int main(int argc, char** argv) {
  using namespace edsr;

  std::string metrics_out;
  std::string seed_flag;
  std::string epochs_flag;
  std::string selectors_flag;
  std::string retrievals_flag;
  std::string presets_flag;
  std::string budgets_flag;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--seed", &seed_flag) ||
        ParseFlag(argc, argv, &i, "--epochs", &epochs_flag) ||
        ParseFlag(argc, argv, &i, "--selectors", &selectors_flag) ||
        ParseFlag(argc, argv, &i, "--retrievals", &retrievals_flag) ||
        ParseFlag(argc, argv, &i, "--presets", &presets_flag) ||
        ParseFlag(argc, argv, &i, "--budgets", &budgets_flag)) {
      continue;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  uint64_t seed = seed_flag.empty()
                      ? 0
                      : std::strtoull(seed_flag.c_str(), nullptr, 10);
  int64_t epochs =
      epochs_flag.empty() ? 2 : std::strtoll(epochs_flag.c_str(), nullptr, 10);
  if (epochs <= 0) {
    std::fprintf(stderr, "--epochs must be positive\n");
    return 1;
  }

  std::vector<std::string> selectors =
      selectors_flag.empty() ? cl::SelectorRegistry::Global().Names()
                             : Split(selectors_flag, ',');
  std::vector<std::string> retrievals =
      retrievals_flag.empty()
          ? std::vector<std::string>{"uniform", "max-loss", "entropy"}
          : Split(retrievals_flag, ',');
  std::vector<std::string> presets = presets_flag.empty()
                                         ? std::vector<std::string>{"easy",
                                                                    "hard"}
                                         : Split(presets_flag, ',');
  std::vector<int64_t> budgets;
  for (const std::string& b :
       budgets_flag.empty() ? std::vector<std::string>{"4", "8"}
                            : Split(budgets_flag, ',')) {
    int64_t budget = std::strtoll(b.c_str(), nullptr, 10);
    if (budget <= 0) {
      std::fprintf(stderr, "--budgets entries must be positive, got %s\n",
                   b.c_str());
      return 1;
    }
    budgets.push_back(budget);
  }

  // Validate every spec up front so one typo fails before hours of cells.
  for (const std::string& spec : selectors) {
    util::Result<std::unique_ptr<cl::DataSelector>> probe =
        cl::SelectorRegistry::Global().Create(spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--selectors: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
  }
  for (const std::string& spec : retrievals) {
    util::Result<std::unique_ptr<cl::RetrievalPolicy>> probe =
        cl::RetrievalRegistry::Global().Create(spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--retrievals: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
  }
  for (const std::string& preset : presets) {
    if (preset != "easy" && preset != "hard") {
      std::fprintf(stderr, "--presets: unknown preset \"%s\" (easy, hard)\n",
                   preset.c_str());
      return 1;
    }
  }

  std::unique_ptr<obs::RunLogger> logger;
  if (!metrics_out.empty()) {
    logger = std::make_unique<obs::RunLogger>(metrics_out);
    if (!logger->ok()) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
  }

  // One task sequence per preset, shared by every cell of that preset so
  // selectors/retrievals compete on identical data.
  const int64_t kIncrements = 3;
  std::vector<data::TaskSequence> sequences;
  std::vector<int64_t> input_dims;
  for (const std::string& preset : presets) {
    data::SyntheticImageConfig config;
    config.name = "matrix-" + preset;
    config.num_classes = 6;
    config.train_per_class = 20;
    config.test_per_class = 8;
    config.geometry = {3, 8, 8};
    config.latent_dim = 12;
    config.seed = seed;
    if (preset == "hard") {
      // Entangled variant: close classes + style nuisance dimensions.
      config.class_separation = 1.2f;
      config.style_strength = 0.4f;
    }
    data::SyntheticImagePair pair = MakeSyntheticImageData(config);
    util::Rng split_rng(seed * 31 + 7);
    input_dims.push_back(pair.train.dim());
    sequences.push_back(data::TaskSequence::SplitByClasses(
        pair.train, pair.test, kIncrements, &split_rng));
  }

  int64_t total = static_cast<int64_t>(selectors.size() * retrievals.size() *
                                       presets.size() * budgets.size());
  std::printf("selection matrix: %zu selectors x %zu retrievals x %zu presets"
              " x %zu budgets = %lld cells\n",
              selectors.size(), retrievals.size(), presets.size(),
              budgets.size(), static_cast<long long>(total));

  int64_t cell = 0;
  for (size_t p = 0; p < presets.size(); ++p) {
    for (int64_t budget : budgets) {
      for (const std::string& selector : selectors) {
        for (const std::string& retrieval : retrievals) {
          cl::StrategyContext context;
          context.encoder.mlp_dims = {input_dims[p], 48, 48};
          context.encoder.projector_hidden = 48;
          context.encoder.representation_dim = 24;
          context.epochs = epochs;
          context.batch_size = 32;
          context.lr = 0.05f;
          context.weight_decay = 0.03f;
          context.memory_per_task = budget;
          // Smaller than any filled buffer (budget x increments), so the
          // retrieval policy is actually consulted instead of the k >= size
          // take-everything shortcut.
          context.replay_batch_size = 6;
          context.seed = seed;
          context.selector_spec = selector;
          context.retrieval_spec = retrieval;

          auto strategy =
              std::make_unique<core::Edsr>(context, core::EdsrOptions{});
          cl::ContinualRunResult result =
              cl::RunContinual(strategy.get(), sequences[p], {});

          // The achieved selection objective: Tr(Cov(f̂(M))) with the
          // paper's uncentered convention (Eq. 15) over the final buffer.
          double trace_cov = 0.0;
          const cl::MemoryBuffer& memory = strategy->memory();
          for (int64_t e = 0; e < memory.size(); ++e) {
            for (float v : memory.entry(e).stored_representation) {
              trace_cov += static_cast<double>(v) * static_cast<double>(v);
            }
          }

          ++cell;
          std::printf(
              "[%3lld/%lld] %-20s %-9s %-4s b=%-3lld acc=%5.1f%% "
              "fgt=%5.1f%% trace=%8.2f (%.2fs)\n",
              static_cast<long long>(cell), static_cast<long long>(total),
              selector.c_str(), retrieval.c_str(), presets[p].c_str(),
              static_cast<long long>(budget),
              result.matrix.FinalAcc() * 100.0,
              result.matrix.FinalFgt() * 100.0, trace_cov,
              result.train_seconds);

          if (logger != nullptr) {
            obs::Json record = obs::Json::Object();
            record.Set("record", "selection_matrix");
            record.Set("selector", selector);
            record.Set("retrieval", retrieval);
            record.Set("preset", presets[p]);
            record.Set("budget", budget);
            record.Set("seed", static_cast<int64_t>(seed));
            record.Set("epochs", epochs);
            record.Set("increments", kIncrements);
            record.Set("final_acc", result.matrix.FinalAcc());
            record.Set("final_fgt", result.matrix.FinalFgt());
            record.Set("trace_cov", trace_cov);
            record.Set("memory_size", memory.size());
            // Perf stays LAST: the validator's determinism contract strips
            // the record at ,"perf" when diffing runs.
            obs::Json perf = obs::Json::Object();
            perf.Set("train_seconds", result.train_seconds);
            perf.Set("eval_seconds", result.eval_seconds);
            record.Set("perf", std::move(perf));
            logger->Write(record);
          }
        }
      }
    }
  }
  return 0;
}
