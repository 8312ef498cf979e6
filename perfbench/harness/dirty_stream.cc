// dirty_stream: EDSR through stream::RunStream on an imbalanced, label-noisy
// SynthCifar10 stream with drift-triggered cycles, max-loss retrieval, an
// OOD probe, and a checkpoint at every cycle boundary. Many small cycles run
// against a replay buffer that grows to hundreds of entries — the reverse
// of paper_increments, whose selection windows are whole increments.
#include <cmath>
#include <filesystem>
#include <memory>

#include "harness/common.h"
#include "src/cl/factory.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/stream/driver.h"

namespace perfbench {

namespace {

using namespace edsr;

constexpr int kSetupRepeats = 9;
constexpr const char* kStreamSpec =
    "SynthCifar10|imbalance:alpha=1.2|label_noise:p=0.2";
constexpr const char* kTriggerSpec = "drift:threshold=0.02,min=48,max=96";
constexpr const char* kOodPreset = "SynthTinyImageNet";
constexpr int64_t kMicroBatch = 16;
constexpr int64_t kStreamSamples = 7680;

// Forwards to the configured trigger and stamps every fire. The interval
// between two consecutive fires is one whole cycle as the stream sees it:
// the closing of the previous cycle (selection, probes, checkpoint) plus the
// training of this one.
class TimedTrigger : public stream::CycleTrigger {
 public:
  explicit TimedTrigger(std::unique_ptr<stream::CycleTrigger> inner)
      : inner_(std::move(inner)) {}
  std::string ShouldFire(const stream::TriggerContext& context,
                         const std::function<double()>& drift_probe) override {
    std::string cause = inner_->ShouldFire(context, drift_probe);
    if (!cause.empty()) fires_.push_back(NowSeconds());
    return cause;
  }
  std::string name() const override { return inner_->name(); }
  void Serialize(io::BufferWriter* out) const override {
    inner_->Serialize(out);
  }
  util::Status Deserialize(io::BufferReader* in) override {
    return inner_->Deserialize(in);
  }
  const std::vector<double>& fires() const { return fires_; }

 private:
  std::unique_ptr<stream::CycleTrigger> inner_;
  std::vector<double> fires_;
};

struct Setup {
  stream::StreamBundle bundle;
  data::Task id_task;
  data::Task ood_task;
  std::unique_ptr<TimedTrigger> trigger;
  std::unique_ptr<cl::ContinualStrategy> strategy;
};

cl::StrategyContext StreamContext(int64_t dim, uint64_t seed) {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {dim, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.batch_size = kMicroBatch;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.retrieval_spec = "max-loss";
  context.seed = seed;
  return context;
}

Setup MakeSetup(uint64_t seed) {
  Setup setup;
  setup.bundle = std::move(stream::MakeStreamBundle(kStreamSpec, seed))
                     .ValueOrDie();
  setup.id_task.train = setup.bundle.id_train;
  setup.id_task.test = setup.bundle.id_test;
  data::SyntheticImagePair ood = data::MakeSyntheticImageData(
      *data::ImagePresetConfig(kOodPreset, seed));
  setup.ood_task.train = std::move(ood.train);
  setup.ood_task.test = std::move(ood.test);
  setup.trigger = std::make_unique<TimedTrigger>(
      std::move(stream::TriggerRegistry::Global().Create(kTriggerSpec))
          .ValueOrDie());
  setup.strategy = cl::MakeStrategy(
      "edsr", StreamContext(setup.id_task.train.dim(), seed));
  return setup;
}

struct Pass {
  bool ok = false;
  bool traced = false;
  stream::StreamRunResult result;
  std::string error;
  double wall_s = 0.0;
  std::vector<double> cycle_ms;  // fire-to-fire intervals
  KernelCounters kernels;
};

Pass RunPass(Setup* setup, const std::string& ckpt_dir) {
  const auto* edsr = dynamic_cast<const core::Edsr*>(setup->strategy.get());
  stream::StreamRunOptions options;
  options.micro_batch = kMicroBatch;
  options.total_samples = kStreamSamples;
  options.id_probe = &setup->id_task;
  options.ood_probe = &setup->ood_task;
  options.memory = edsr != nullptr ? &edsr->memory() : nullptr;
  options.stream_spec = kStreamSpec;
  options.trigger_spec = kTriggerSpec;
  options.checkpoint_directory = ckpt_dir;

  Pass pass;
  const KernelCounters kernels0 = KernelCounters::Now();
  const double start = NowSeconds();
  util::Result<stream::StreamRunResult> run = [&] {
    obs::TraceSpan span("bench_stream");
    return stream::RunStream(setup->strategy.get(),
                             setup->bundle.source.get(),
                             setup->trigger.get(), options);
  }();
  pass.wall_s = NowSeconds() - start;
  pass.kernels = KernelCounters::Now().Since(kernels0);
  pass.ok = run.ok();
  if (!run.ok()) {
    pass.error = run.status().ToString();
    return pass;
  }
  pass.result = std::move(run).ValueOrDie();
  const std::vector<double>& fires = setup->trigger->fires();
  for (size_t i = 1; i < fires.size(); ++i) {
    pass.cycle_ms.push_back((fires[i] - fires[i - 1]) * 1e3);
  }
  return pass;
}

// Cycle boundaries, causes and buffer sizes: what must repeat exactly.
uint64_t CycleDigest(const stream::StreamRunResult& result) {
  std::string text;
  for (const stream::StreamCycleResult& c : result.cycles) {
    text += std::to_string(c.cycle) + ":" + c.cause + ":" +
            std::to_string(c.samples) + ":" +
            std::to_string(c.total_samples) + ":" +
            std::to_string(c.buffer_size) + ";";
  }
  return Fnv1a(text);
}

}  // namespace

void RunDirtyStream(const Args& args, Report* report) {
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = NowSeconds();
    setup = std::make_unique<Setup>(MakeSetup(args.seed));
    report->Sample("setup_s", NowSeconds() - t0);
  }

  std::vector<Pass> passes = RunPasses<Pass>(args, [&](size_t index) {
    if (index > 0) setup = std::make_unique<Setup>(MakeSetup(args.seed));
    std::filesystem::remove_all(args.workdir + "/stream");
    return RunPass(setup.get(), args.workdir + "/stream");
  });

  // ---- Correctness ------------------------------------------------------
  bool all_ran = true;
  for (const Pass& pass : passes) {
    if (!pass.ok) {
      report->Check("stream.run_ok", false, pass.error);
      all_ran = false;
    }
  }
  if (!all_ran) return;
  const stream::StreamRunResult& first = passes.front().result;
  const auto& cycles = first.cycles;
  bool sane = first.finished && first.total_samples == kStreamSamples &&
              !cycles.empty();
  int64_t previous_buffer = 0;
  for (const stream::StreamCycleResult& c : cycles) {
    sane = sane && (c.cause == "drift" || c.cause == "max" || c.cause == "end");
    sane = sane && c.buffer_size >= previous_buffer &&
           c.buffer_size <= 8 * (c.cycle + 1);
    sane = sane && c.id_accuracy >= 0.0 && c.id_accuracy <= 1.0 &&
           std::isfinite(c.loss);
    previous_buffer = c.buffer_size;
  }
  report->Check("stream.cycles_sane", sane,
                std::to_string(cycles.size()) + " cycles, buffer " +
                    std::to_string(previous_buffer) + " entries");
  const double final_id_acc = cycles.back().id_accuracy * 100.0;
  const double chance = 100.0 / static_cast<double>(
                                    setup->id_task.test.num_classes());
  report->Check("stream.final_id_acc_above_chance",
                final_id_acc > 1.5 * chance,
                "final ID Acc " + std::to_string(final_id_acc) +
                    "% vs chance " + std::to_string(chance) + "%");
  const uint64_t digest = CycleDigest(first);
  bool passes_agree = true;
  for (const Pass& pass : passes) {
    passes_agree = passes_agree && CycleDigest(pass.result) == digest;
  }
  report->Check("stream.passes_reproduce_cycles", passes_agree,
                std::to_string(passes.size()) + " passes in this run");
  std::string detail;
  bool stored = MatchesStoredDigest(args, "cycles", digest, &detail);
  report->Check("stream.runs_reproduce_cycles", stored, detail);

  // ---- Measurements -----------------------------------------------------
  // Every number but the span breakdown comes from the untraced passes.
  for (const Pass& pass : passes) {
    if (pass.traced) continue;
    report->Samples("op_ms", pass.cycle_ms);
    report->Sample("pass_s", pass.wall_s);
    report->Attempted(static_cast<int64_t>(pass.result.cycles.size()));
    for (const stream::StreamCycleResult& c : pass.result.cycles) {
      report->Sample("cycle_train_ms", c.train_seconds * 1e3);
      report->Sample("cycle_eval_ms", c.eval_seconds * 1e3);
    }
  }
  report->Sample("quality_pct", final_id_acc);
  report->Value("train_samples", static_cast<double>(kStreamSamples));
  report->Value("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    const SpanView spans;
    report->Value("obs.trace_overhead", TraceOverhead(passes));
    report->Value("unattributed_share", spans.SelfMs("bench_stream") /
                                            spans.TotalMs("bench_stream"));
    std::error_code ec;
    report->Value("io.checkpoint_bytes",
                  static_cast<double>(std::filesystem::file_size(
                      args.workdir + "/stream/stream.ckpt", ec)));
    ReportKernels(passes.front().kernels, static_cast<double>(cycles.size()),
                  report);
    ReportSpans(spans,
                {"batch", "replay", "retrieval_representations", "selection",
                 "knn_eval", "eval_task", "stream_checkpoint_save"},
                report);
  }
}

}  // namespace perfbench
