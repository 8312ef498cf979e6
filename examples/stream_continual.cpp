// Task-free streaming experiment matrix: runs (strategy × stream spec ×
// trigger) cells through the boundary-free StreamDriver and emits one
// "cycle" JSONL record per consolidation cycle — the scenario-diversity
// harness (imbalanced / noisy / corrupted streams, ID + OOD probes).
//
//   ./stream_continual [--seed <n>] [--methods <name,name,...>]
//                      [--streams "<spec>;<spec>"] [--triggers "<spec>;<spec>"]
//                      [--micro_batch <n>] [--samples <n>] [--ood <preset>]
//                      [--metrics_out <file.jsonl>]
//                      [--timeseries_out <file.jsonl>]
//                      [--metrics_interval_ms <n>]
//                      [--checkpoint_dir <dir>] [--resume]
//                      [--stop_after_cycle <n>] [--list]
//
// Stream specs compose an image preset with dirty-data transform stages,
//   "SynthCifar10|imbalance:alpha=1.5|label_noise:p=0.2"
// and trigger specs pick the consolidation cadence ("count:n=64" or
// "drift:threshold=0.02,min=48,max=96"). Both lists are semicolon-separated
// because the specs themselves contain commas. --ood names a disjoint
// preset probed after every cycle ("none" disables); --list prints every
// registered selector, retrieval policy, stream transform, trigger, and
// image preset, then exits.
//
// With --checkpoint_dir, each cell snapshots atomically after every cycle
// under <dir>/<cell>/stream.ckpt; --resume continues a killed run
// bit-identically (--stop_after_cycle simulates the kill).
//
// --timeseries_out attaches a background MetricsExporter writing one
// "serve_timeseries" record every --metrics_interval_ms (default 1000),
// carrying the cycle.* per-cycle gauges alongside the full registry.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "examples/cli.h"
#include "src/cl/factory.h"
#include "src/cl/retrieval.h"
#include "src/cl/selection.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/exporter.h"
#include "src/obs/run_record.h"
#include "src/stream/driver.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace edsr;

  uint64_t seed = 0;
  std::string seed_flag;
  std::string methods_flag;
  std::string streams_flag;
  std::string triggers_flag;
  std::string micro_batch_flag;
  std::string samples_flag;
  std::string ood_flag;
  std::string metrics_out;
  std::string timeseries_out;
  std::string interval_flag;
  std::string checkpoint_dir;
  std::string stop_after_flag;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--seed", &seed_flag) ||
        ParseFlag(argc, argv, &i, "--methods", &methods_flag) ||
        ParseFlag(argc, argv, &i, "--streams", &streams_flag) ||
        ParseFlag(argc, argv, &i, "--triggers", &triggers_flag) ||
        ParseFlag(argc, argv, &i, "--micro_batch", &micro_batch_flag) ||
        ParseFlag(argc, argv, &i, "--samples", &samples_flag) ||
        ParseFlag(argc, argv, &i, "--ood", &ood_flag) ||
        ParseFlag(argc, argv, &i, "--metrics_out", &metrics_out) ||
        ParseFlag(argc, argv, &i, "--timeseries_out", &timeseries_out) ||
        ParseFlag(argc, argv, &i, "--metrics_interval_ms", &interval_flag) ||
        ParseFlag(argc, argv, &i, "--checkpoint_dir", &checkpoint_dir) ||
        ParseFlag(argc, argv, &i, "--stop_after_cycle", &stop_after_flag)) {
      continue;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
      continue;
    }
    if (std::strcmp(argv[i], "--list") == 0) {
      PrintRegistries();
      return 0;
    }
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 1;
  }
  if (!seed_flag.empty()) seed = std::strtoull(seed_flag.c_str(), nullptr, 10);
  int64_t micro_batch =
      micro_batch_flag.empty()
          ? 16
          : std::strtoll(micro_batch_flag.c_str(), nullptr, 10);
  int64_t total_samples =
      samples_flag.empty() ? 256
                           : std::strtoll(samples_flag.c_str(), nullptr, 10);
  if (micro_batch < 2 || total_samples < 2) {
    std::fprintf(stderr, "--micro_batch and --samples must be >= 2\n");
    return 1;
  }
  int64_t stop_after_cycle =
      stop_after_flag.empty()
          ? -1
          : std::strtoll(stop_after_flag.c_str(), nullptr, 10);
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint_dir\n");
    return 1;
  }

  std::vector<std::string> methods =
      methods_flag.empty() ? std::vector<std::string>{"edsr"}
                           : Split(methods_flag, ',');
  std::vector<std::string> streams =
      streams_flag.empty()
          ? std::vector<std::string>{
                "SynthCifar10|imbalance:alpha=1.2|label_noise:p=0.2"}
          : Split(streams_flag, ';');
  std::vector<std::string> triggers =
      triggers_flag.empty()
          ? std::vector<std::string>{"count:n=64",
                                     "drift:threshold=0.02,min=48,max=96"}
          : Split(triggers_flag, ';');
  std::string ood_preset = ood_flag.empty() ? "SynthTinyImageNet" : ood_flag;

  // Validate every spec up front so one typo fails before any training.
  for (const std::string& spec : streams) {
    util::Result<stream::StreamSpec> probe = stream::ParseStreamSpec(spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--streams: %s\n", probe.status().message().c_str());
      return 1;
    }
  }
  for (const std::string& spec : triggers) {
    util::Result<std::unique_ptr<stream::CycleTrigger>> probe =
        stream::TriggerRegistry::Global().Create(spec);
    if (!probe.ok()) {
      std::fprintf(stderr, "--triggers: %s\n",
                   probe.status().message().c_str());
      return 1;
    }
  }
  if (ood_preset != "none") {
    util::Result<data::SyntheticImageConfig> probe =
        data::ImagePresetConfig(ood_preset, seed);
    if (!probe.ok()) {
      std::fprintf(stderr, "--ood: %s\n", probe.status().message().c_str());
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

  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!timeseries_out.empty()) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.path = timeseries_out;
    exporter_options.interval_ms =
        interval_flag.empty()
            ? 1000
            : std::strtoll(interval_flag.c_str(), nullptr, 10);
    if (exporter_options.interval_ms < 1) {
      std::fprintf(stderr, "--metrics_interval_ms must be >= 1\n");
      return 1;
    }
    exporter = std::make_unique<obs::MetricsExporter>(exporter_options);
    util::Status started = exporter->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
  }

  // The OOD probe is shared by every cell (disjoint preset, ground truth).
  data::Task ood_task;
  bool have_ood = ood_preset != "none";
  if (have_ood) {
    data::SyntheticImagePair ood_pair = data::MakeSyntheticImageData(
        *data::ImagePresetConfig(ood_preset, seed));
    ood_task.train = std::move(ood_pair.train);
    ood_task.test = std::move(ood_pair.test);
    ood_task.task_id = 0;
  }

  std::printf("stream matrix: %zu methods x %zu streams x %zu triggers, "
              "%lld samples in micro-batches of %lld\n",
              methods.size(), streams.size(), triggers.size(),
              static_cast<long long>(total_samples),
              static_cast<long long>(micro_batch));

  int64_t cell = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    for (size_t t = 0; t < triggers.size(); ++t) {
      for (const std::string& method : methods) {
        // Fresh bundle per cell: sources are stateful streams.
        util::Result<stream::StreamBundle> bundle_result =
            stream::MakeStreamBundle(streams[s], seed);
        if (!bundle_result.ok()) {
          std::fprintf(stderr, "%s\n",
                       bundle_result.status().ToString().c_str());
          return 1;
        }
        stream::StreamBundle bundle =
            std::move(bundle_result).ValueOrDie();
        util::Result<std::unique_ptr<stream::CycleTrigger>> trigger_result =
            stream::TriggerRegistry::Global().Create(triggers[t]);
        std::unique_ptr<stream::CycleTrigger> trigger =
            std::move(trigger_result).ValueOrDie();

        data::Task id_task;
        id_task.train = bundle.id_train;
        id_task.test = bundle.id_test;
        id_task.task_id = 0;
        if (have_ood && ood_task.train.dim() != id_task.train.dim()) {
          std::fprintf(stderr,
                       "--ood: preset %s dim %lld != stream dim %lld\n",
                       ood_preset.c_str(),
                       static_cast<long long>(ood_task.train.dim()),
                       static_cast<long long>(id_task.train.dim()));
          return 1;
        }

        cl::StrategyContext context;
        context.encoder.mlp_dims = {id_task.train.dim(), 64, 64};
        context.encoder.projector_hidden = 64;
        context.encoder.representation_dim = 32;
        context.batch_size = micro_batch;
        context.lr = 0.05f;
        context.weight_decay = 0.03f;
        context.memory_per_task = 8;
        context.replay_batch_size = 8;
        context.seed = seed;
        auto strategy = cl::MakeStrategy(method, context);
        const auto* edsr_strategy =
            dynamic_cast<const core::Edsr*>(strategy.get());

        stream::StreamRunOptions options;
        options.micro_batch = micro_batch;
        options.total_samples = total_samples;
        options.id_probe = &id_task;
        options.ood_probe = have_ood ? &ood_task : nullptr;
        options.memory =
            edsr_strategy != nullptr ? &edsr_strategy->memory() : nullptr;
        options.logger = logger.get();
        options.stream_spec = streams[s];
        options.trigger_spec = triggers[t];
        options.stop_after_cycle = stop_after_cycle;
        if (!checkpoint_dir.empty()) {
          options.checkpoint_directory =
              checkpoint_dir + "/" + method + "-s" + std::to_string(s) +
              "-t" + std::to_string(t);
        }

        stream::StreamRunResult result;
        bool resumed = false;
        if (resume) {
          util::Status status = stream::ResumeStream(
              strategy.get(), bundle.source.get(), trigger.get(), options,
              &result);
          resumed = status.ok();
          if (!resumed) {
            // A missing or corrupt snapshot downgrades to a fresh run
            // rather than aborting the whole matrix.
            EDSR_LOG(Warning)
                << "[" << method << "] no usable stream checkpoint ("
                << status.ToString() << "); starting fresh";
            strategy = cl::MakeStrategy(method, context);
            edsr_strategy = dynamic_cast<const core::Edsr*>(strategy.get());
            options.memory = edsr_strategy != nullptr
                                 ? &edsr_strategy->memory()
                                 : nullptr;
            bundle_result = stream::MakeStreamBundle(streams[s], seed);
            bundle = std::move(bundle_result).ValueOrDie();
          }
        }
        if (!resumed) {
          util::Result<stream::StreamRunResult> run = stream::RunStream(
              strategy.get(), bundle.source.get(), trigger.get(), options);
          if (!run.ok()) {
            std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
            return 1;
          }
          result = std::move(run).ValueOrDie();
        }

        ++cell;
        const stream::StreamCycleResult* last =
            result.cycles.empty() ? nullptr : &result.cycles.back();
        std::printf(
            "[%3lld] %-10s %-52s %-36s cycles=%zu id=%5.1f%% ood=%5.1f%%\n",
            static_cast<long long>(cell), method.c_str(), streams[s].c_str(),
            triggers[t].c_str(), result.cycles.size(),
            last != nullptr ? last->id_accuracy * 100.0 : 0.0,
            last != nullptr && last->ood_accuracy >= 0.0
                ? last->ood_accuracy * 100.0
                : 0.0);
        for (const stream::StreamCycleResult& c : result.cycles) {
          char ood[32] = "";
          if (c.ood_accuracy >= 0.0) {
            std::snprintf(ood, sizeof(ood), " ood=%.1f%%",
                          c.ood_accuracy * 100.0);
          }
          std::printf(
              "      cycle %lld (%s): %lld samples, loss=%.3f, drift=%.4f, "
              "buffer=%lld (H=%.2f), id=%.1f%%%s\n",
              static_cast<long long>(c.cycle), c.cause.c_str(),
              static_cast<long long>(c.samples), c.loss, c.drift,
              static_cast<long long>(c.buffer_size), c.buffer_entropy,
              c.id_accuracy * 100.0, ood);
        }
      }
    }
  }
  return 0;
}
