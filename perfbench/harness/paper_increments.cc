// paper_increments: EDSR on synth-cifar100 in the frozen Table III / Fig. 9
// regime (bench/bench_common.h: ContextFor, 10 increments, uniform
// retrieval), with a run checkpoint after every increment. The harness
// drives the parts of cl::RunContinual itself — LearnIncrement, the eval
// row (EvaluateTask for every increment seen so far), SaveRunCheckpoint —
// so each part can be timed from outside the program. cl::RunContinual
// reports per-increment times only to a RunLogger, and a logger changes the
// work (loss components, increment stats, JSONL writes) and resets the
// kernel counters every increment. To keep the copy honest, every run also
// makes one cl::RunContinual pass with checkpoints and requires the same
// accuracy matrix.
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include "bench/bench_common.h"
#include "harness/common.h"
#include "src/tensor/arena.h"

namespace perfbench {

namespace {

using namespace edsr;

constexpr int kSetupRepeats = 9;

struct Pass {
  bool ok = true;
  bool traced = false;
  eval::AccuracyMatrix matrix{1};
  double wall_s = 0.0;
  std::vector<double> increment_ms, learn_ms, eval_task_ms, checkpoint_ms;
  double checkpoint_bytes = 0.0;
  KernelCounters kernels;
  double last_increment_pool_misses = 0.0;
  int64_t checkpoint_failures = 0;
};

Pass RunPass(const data::TaskSequence& sequence,
             cl::ContinualStrategy* strategy, const std::string& ckpt_path) {
  Pass pass;
  const int64_t n = sequence.num_tasks();
  cl::ContinualRunResult result{eval::AccuracyMatrix(n)};
  const cl::EvalOptions options;
  const KernelCounters kernels0 = KernelCounters::Now();
  const double start = NowSeconds();
  for (int64_t i = 0; i < n; ++i) {
    if (i == n - 1) tensor::arena::ResetStats();
    const double t0 = NowSeconds();
    obs::TraceSpan increment_span("bench_increment");
    strategy->LearnIncrement(sequence.task(i));
    const double t1 = NowSeconds();
    for (int64_t j = 0; j <= i; ++j) {
      const double e0 = NowSeconds();
      result.matrix.Set(
          i, j, cl::EvaluateTask(strategy->encoder(), sequence.task(j), options));
      pass.eval_task_ms.push_back((NowSeconds() - e0) * 1e3);
    }
    const double t2 = NowSeconds();
    {
      obs::TraceSpan checkpoint_span("bench_checkpoint");
      if (!cl::SaveRunCheckpoint(ckpt_path, strategy, result, i + 1).ok()) {
        ++pass.checkpoint_failures;
      }
    }
    const double t3 = NowSeconds();
    pass.learn_ms.push_back((t1 - t0) * 1e3);
    pass.checkpoint_ms.push_back((t3 - t2) * 1e3);
    pass.increment_ms.push_back((t3 - t0) * 1e3);
  }
  pass.wall_s = NowSeconds() - start;
  pass.last_increment_pool_misses =
      static_cast<double>(tensor::arena::Stats().pool_misses);
  pass.kernels = KernelCounters::Now().Since(kernels0);
  std::error_code ec;
  pass.checkpoint_bytes =
      static_cast<double>(std::filesystem::file_size(ckpt_path, ec));
  pass.matrix = result.matrix;
  return pass;
}

uint64_t MatrixDigest(const eval::AccuracyMatrix& matrix) {
  uint64_t hash = Fnv1a("");
  for (int64_t i = 0; i < matrix.num_tasks(); ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      const double cell = matrix.IsSet(i, j) ? matrix.Get(i, j) : -1.0;
      hash = Fnv1a(std::string_view(reinterpret_cast<const char*>(&cell),
                                    sizeof(cell)),
                   hash);
    }
  }
  return hash;
}

bool MatrixIsComplete(const eval::AccuracyMatrix& matrix) {
  for (int64_t i = 0; i < matrix.num_tasks(); ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      if (!matrix.IsSet(i, j) || !std::isfinite(matrix.Get(i, j))) return false;
    }
  }
  return true;
}

}  // namespace

void RunPaperIncrements(const Args& args, Report* report) {
  const bench::ImageBenchmark benchmark = bench::AllImageBenchmarks()[1];
  const cl::StrategyContext context = bench::ContextFor(benchmark, args.seed);

  // Set-up: data generation + strategy construction, repeated.
  data::TaskSequence sequence;
  std::unique_ptr<cl::ContinualStrategy> strategy;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = NowSeconds();
    sequence = bench::MakeSequence(benchmark, args.seed);
    strategy = cl::MakeStrategy("edsr", context);
    report->Sample("setup_s", NowSeconds() - t0);
  }
  // kNN accuracy is measured within an increment, over its own classes.
  const std::set<int64_t> task_classes(sequence.task(0).test.labels().begin(),
                                       sequence.task(0).test.labels().end());
  const int64_t num_classes = static_cast<int64_t>(task_classes.size());
  const std::string ckpt_path = args.workdir + "/run.ckpt";

  std::vector<Pass> passes = RunPasses<Pass>(args, [&](size_t index) {
    if (index > 0) strategy = cl::MakeStrategy("edsr", context);
    return RunPass(sequence, strategy.get(), ckpt_path);
  });

  // ---- Correctness ------------------------------------------------------
  const Pass& first = passes.front();
  bool in_range = MatrixIsComplete(first.matrix);
  report->Check("paper.matrix_complete", in_range,
                "every cell (i, j<=i) of the accuracy matrix is set");
  const double final_acc = first.matrix.FinalAcc() * 100.0;
  const double chance = 100.0 / static_cast<double>(num_classes);
  report->Check("paper.final_acc_above_chance", final_acc > 1.5 * chance,
                "final Acc " + std::to_string(final_acc) + "% vs chance " +
                    std::to_string(chance) + "%");
  const uint64_t digest = MatrixDigest(first.matrix);
  bool passes_agree = true;
  for (const Pass& pass : passes) {
    passes_agree = passes_agree && MatrixDigest(pass.matrix) == digest;
  }
  report->Check("paper.passes_reproduce_matrix", passes_agree,
                std::to_string(passes.size()) +
                    " passes in this run, same seed and threads");
  std::string detail;
  bool stored = MatchesStoredDigest(args, "matrix", digest, &detail);
  report->Check("paper.runs_reproduce_matrix", stored, detail);
  {
    auto fresh = cl::MakeStrategy("edsr", context);
    cl::CheckpointOptions checkpoint;
    checkpoint.directory = args.workdir + "/run_continual";
    const cl::ContinualRunResult reference =
        cl::RunContinual(fresh.get(), sequence, cl::EvalOptions{}, checkpoint);
    report->Check("paper.loop_matches_run_continual",
                  MatrixDigest(reference.matrix) == digest,
                  "the harness's increment loop against cl::RunContinual");
  }
  {
    // The last checkpoint must restore the final matrix into a fresh
    // strategy and point past the last increment.
    auto fresh = cl::MakeStrategy("edsr", context);
    cl::ContinualRunResult restored{
        eval::AccuracyMatrix(sequence.num_tasks())};
    int64_t next = -1;
    util::Status loaded =
        cl::LoadRunCheckpoint(ckpt_path, fresh.get(), &restored, &next);
    report->Check("paper.checkpoint_restores",
                  loaded.ok() && next == sequence.num_tasks() &&
                      MatrixDigest(restored.matrix) ==
                          MatrixDigest(passes.back().matrix),
                  loaded.ok() ? "next increment " + std::to_string(next)
                              : loaded.ToString());
  }

  // ---- Measurements -----------------------------------------------------
  // Every number but the span breakdown comes from the untraced passes.
  std::vector<double> learn_ms, eval_task_ms, checkpoint_ms;
  for (const Pass& pass : passes) {
    if (pass.traced) continue;
    report->Samples("op_ms", pass.increment_ms);
    report->Sample("pass_s", pass.wall_s);
    report->Attempted(sequence.num_tasks());
    report->Failed(pass.checkpoint_failures);
    learn_ms.insert(learn_ms.end(), pass.learn_ms.begin(), pass.learn_ms.end());
    eval_task_ms.insert(eval_task_ms.end(), pass.eval_task_ms.begin(),
                        pass.eval_task_ms.end());
    checkpoint_ms.insert(checkpoint_ms.end(), pass.checkpoint_ms.begin(),
                         pass.checkpoint_ms.end());
  }
  report->Sample("quality_pct", final_acc);
  int64_t train_samples = 0;
  for (int64_t i = 0; i < sequence.num_tasks(); ++i) {
    train_samples += sequence.task(i).train.size();
  }
  report->Value("train_samples", static_cast<double>(train_samples));
  report->Value("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    const SpanView spans;
    report->Value("obs.trace_overhead", TraceOverhead(passes));
    report->Value("unattributed_share",
                  spans.SelfMs("bench_increment") /
                      spans.TotalMs("bench_increment"));
    report->Value("cl.learn_increment_ms", Median(learn_ms));
    report->Value("eval.task_ms", Median(eval_task_ms));
    report->Value("io.checkpoint_ms", Median(checkpoint_ms));
    report->Value("io.checkpoint_bytes", first.checkpoint_bytes);
    ReportKernels(first.kernels, static_cast<double>(sequence.num_tasks()),
                  report);
    report->Value("tensor.arena_pool_misses", first.last_increment_pool_misses);
    ReportSpans(spans,
                {"batch", "replay", "retrieval_representations", "selection",
                 "knn_eval"},
                report);
  }
}

}  // namespace perfbench
