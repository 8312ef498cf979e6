// Data-selection demo: trains one increment, extracts representations, and
// contrasts what every registered selector keeps — including the entropy
// trace Tr(Cov(M)) each selection achieves (paper Eq. 15) and the kNN noise
// magnitudes EDSR would store (paper §III-B) — then shows how the retrieval
// policies would rank a buffer built from the high-entropy picks.
//
//   ./selection_demo [--metrics_out <file.jsonl>] [--trace_out <file.json>]
//                    [--selector <name[:key=value,...]>] [--retrieval <name>]
//                    [--list]
//
// Selectors and retrieval policies are enumerated from SelectorRegistry /
// RetrievalRegistry; --selector/--retrieval restrict the demo to one entry
// (an unknown name fails with the registry's list of valid names). --list
// prints every registered selector, retrieval policy, stream transform,
// cycle trigger, and image preset, then exits.
// --metrics_out appends one "selection" record per selector (name, entropy
// trace, picked indices, class coverage); --trace_out enables trace spans
// and writes a Chrome trace-event file. Both validate with
// scripts/validate_telemetry.py.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "examples/cli.h"
#include "src/cl/memory.h"
#include "src/cl/retrieval.h"
#include "src/cl/selection.h"
#include "src/cl/strategy.h"
#include "src/core/noise.h"
#include "src/data/synthetic.h"
#include "src/eval/representations.h"
#include "src/linalg/eigen.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"

int main(int argc, char** argv) {
  using namespace edsr;

  std::string metrics_out;
  std::string trace_out;
  std::string selector_spec;
  std::string retrieval_spec;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--trace_out", &trace_out) ||
        ParseFlag(argc, argv, &i, "--selector", &selector_spec) ||
        ParseFlag(argc, argv, &i, "--retrieval", &retrieval_spec)) {
      continue;
    }
    if (std::strcmp(argv[i], "--list") == 0) {
      PrintRegistries();
      return 0;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  // Validate the restriction flags up front so a typo fails with the
  // registry's list of valid names instead of mid-demo.
  std::vector<std::string> selector_specs;
  if (!selector_spec.empty()) {
    util::Result<std::unique_ptr<cl::DataSelector>> probe =
        cl::SelectorRegistry::Global().Create(selector_spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--selector: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
    selector_specs.push_back(selector_spec);
  } else {
    selector_specs = cl::SelectorRegistry::Global().Names();
  }
  std::vector<std::string> retrieval_specs;
  if (!retrieval_spec.empty()) {
    util::Result<std::unique_ptr<cl::RetrievalPolicy>> probe =
        cl::RetrievalRegistry::Global().Create(retrieval_spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--retrieval: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
    retrieval_specs.push_back(retrieval_spec);
  } else {
    retrieval_specs = cl::RetrievalRegistry::Global().Names();
  }

  if (!trace_out.empty()) {
    obs::Tracer::SetEnabled(true);
    obs::Tracer::SetEventRecording(true);
  }
  std::unique_ptr<obs::RunLogger> logger;
  if (!metrics_out.empty()) {
    logger = std::make_unique<obs::RunLogger>(metrics_out);
    if (!logger->ok()) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
  }

  data::SyntheticImageConfig config;
  config.name = "selection-demo";
  config.num_classes = 4;
  config.train_per_class = 40;
  config.test_per_class = 10;
  config.geometry = {3, 8, 8};
  config.latent_dim = 10;
  config.class_separation = 1.5f;
  config.seed = 5;
  data::SyntheticImagePair pair = MakeSyntheticImageData(config);
  data::TaskSequence sequence =
      data::TaskSequence::SplitByClasses(pair.train, pair.test, 1, nullptr);

  cl::StrategyContext context;
  context.encoder.mlp_dims = {pair.train.dim(), 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 16;
  context.epochs = 10;
  context.seed = 1;
  cl::Finetune trainer(context);
  const data::Task& task = sequence.task(0);
  trainer.LearnIncrement(task);

  eval::RepresentationMatrix reps =
      eval::ExtractRepresentations(trainer.encoder(), task.train);
  std::printf("extracted %lld representations of dim %lld\n",
              static_cast<long long>(reps.n), static_cast<long long>(reps.d));

  const int64_t budget = 12;
  util::Rng rng(3);

  // Shared selection signals, computed once: every selector only *reads*
  // what it declared (MinVar the variance, gradient-affinity the gradients).
  cl::SelectionContext selection;
  selection.representations = &reps;
  selection.augmentation_variance = trainer.AugmentationVariance(task);
  eval::RepresentationMatrix gradients = trainer.GradientFeatures(task);
  selection.gradient_features = &gradients;

  std::vector<int64_t> entropy_picks;  // feeds the retrieval demo below
  for (const std::string& spec : selector_specs) {
    std::unique_ptr<cl::DataSelector> selector =
        std::move(cl::SelectorRegistry::Global().Create(spec)).ValueOrDie();
    EDSR_TRACE_SPAN("selection");
    std::vector<int64_t> picks =
        cl::RunSelection(selector.get(), selection, budget, &rng);
    if (selector->name() == "high-entropy") entropy_picks = picks;
    // Entropy surrogate of the kept subset: Tr(Cov(M)) with Cov = A^T A.
    std::vector<float> rows;
    for (int64_t i : picks) {
      rows.insert(rows.end(), reps.Row(i), reps.Row(i) + reps.d);
    }
    double trace = linalg::Trace(
        linalg::CovarianceGram(rows, static_cast<int64_t>(picks.size()),
                               reps.d),
        reps.d);
    // Class coverage of the selection (labels are hidden from selectors).
    std::vector<int64_t> counts(4, 0);
    for (int64_t i : picks) ++counts[task.train.Label(i)];
    std::printf(
        "%-18s Tr(Cov(M)) = %8.2f   class coverage = [%lld %lld %lld %lld]\n",
        selector->name().c_str(), trace, static_cast<long long>(counts[0]),
        static_cast<long long>(counts[1]), static_cast<long long>(counts[2]),
        static_cast<long long>(counts[3]));
    if (logger != nullptr) {
      obs::Json record = obs::Json::Object();
      record.Set("record", "selection");
      record.Set("selector", selector->name());
      record.Set("budget", budget);
      record.Set("trace_cov", trace);
      obs::Json picked = obs::Json::Array();
      for (int64_t i : picks) picked.Push(obs::Json::Int(i));
      record.Set("picks", std::move(picked));
      obs::Json coverage = obs::Json::Array();
      for (int64_t c : counts) coverage.Push(obs::Json::Int(c));
      record.Set("class_coverage", std::move(coverage));
      logger->Write(record);
    }
  }

  // The kNN noise magnitude r(x^m) EDSR would store for the first samples.
  std::printf("\nkNN noise magnitudes r(x^m) (mean over dims, k=10):\n");
  for (int64_t i = 0; i < 5; ++i) {
    std::vector<float> scale = core::KnnNoiseScale(reps, i, 10);
    double mean = 0.0;
    for (float s : scale) mean += s;
    std::printf("  sample %lld: %.4f\n", static_cast<long long>(i),
                mean / reps.d);
  }

  // Retrieval demo: buffer the high-entropy picks (write-time representation
  // = drift anchor), train further so the model moves, then contrast which
  // entries each retrieval policy would replay first.
  if (entropy_picks.empty() && !selector_specs.empty()) {
    // --selector restricted the run; reuse that selector's picks.
    std::unique_ptr<cl::DataSelector> fallback =
        std::move(cl::SelectorRegistry::Global().Create(selector_specs[0]))
            .ValueOrDie();
    entropy_picks = cl::RunSelection(fallback.get(), selection, budget, &rng);
  }
  cl::MemoryBuffer memory(budget);
  std::vector<cl::MemoryEntry> entries;
  for (int64_t pick : entropy_picks) {
    entries.push_back(cl::MakeMemoryEntry(task, pick, reps, pick));
  }
  memory.AddIncrement(std::move(entries));
  trainer.LearnIncrement(task);  // more epochs -> representation drift

  std::printf("\nretrieval order over the %lld buffered samples "
              "(first 6 entry indices):\n",
              static_cast<long long>(memory.size()));
  // The buffer under the moved model, shared by every policy that ranks it.
  eval::RepresentationMatrix current = trainer.MemoryRepresentations(memory);
  cl::RetrievalContext retrieval{&memory, &current};
  for (const std::string& spec : retrieval_specs) {
    std::unique_ptr<cl::RetrievalPolicy> policy =
        std::move(cl::RetrievalRegistry::Global().Create(spec)).ValueOrDie();
    std::vector<int64_t> draw =
        cl::DrawRetrieval(policy.get(), retrieval, 6, trainer.rng());
    std::printf("  %-10s [", policy->name().c_str());
    for (size_t k = 0; k < draw.size(); ++k) {
      std::printf("%s%lld", k == 0 ? "" : " ",
                  static_cast<long long>(draw[k]));
    }
    std::printf("]\n");
  }

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
