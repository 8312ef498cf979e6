// End-to-end train-step micro-benchmarks: full forward/backward/optimizer
// iterations over the MLP path, the shapes the continual-learning loop
// executes thousands of times per task. Complements bench_micro_kernels
// (isolated kernels) by measuring the composed hot path, including autograd
// graph construction and the arena/pool buffer churn.
//
// Record the committed baseline with:
//   ./bench_micro_train_step --benchmark_out_format=json
//                            --benchmark_out=BENCH_train_step.json
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/micro_main.h"
#include "src/core/edsr.h"
#include "src/ssl/encoder.h"
#include "src/tensor/arena.h"
#include "src/tensor/grad_mode.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace {

using namespace edsr;

void BM_TrainStepMlp(benchmark::State& state) {
  // Two-layer MLP, batch 32: matches BM_MlpTrainStep in bench_micro_kernels
  // but also folds in the SGD update so the whole step is timed.
  util::Rng rng(0);
  tensor::Tensor w1 = tensor::Tensor::Randn({192, 64}, &rng, 0, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({64, 32}, &rng, 0, 0.05f, true);
  tensor::Tensor x = tensor::Tensor::Randn({32, 192}, &rng);
  for (auto _ : state) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    tensor::Tensor h = tensor::Relu(tensor::MatMul(x, w1));
    tensor::Tensor loss =
        tensor::MeanAll(tensor::Square(tensor::MatMul(h, w2)));
    loss.Backward();
    tensor::kernels::Axpy(w1.numel(), -0.01f, w1.grad().data(),
                          w1.mutable_data().data());
    tensor::kernels::Axpy(w2.numel(), -0.01f, w2.grad().data(),
                          w2.mutable_data().data());
    benchmark::DoNotOptimize(w1.mutable_data().data());
  }
}
BENCHMARK(BM_TrainStepMlp);

void BM_TrainStepSteadyStatePoolHitRate(benchmark::State& state) {
  // Counts arena pool traffic across the MLP step; the pool-miss counter
  // lands in the JSON so regressions in buffer reuse are visible in the
  // committed baseline, not just in wall time.
  util::Rng rng(0);
  tensor::Tensor w1 = tensor::Tensor::Randn({192, 64}, &rng, 0, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({64, 32}, &rng, 0, 0.05f, true);
  tensor::Tensor x = tensor::Tensor::Randn({32, 192}, &rng);
  auto step = [&]() {
    w1.ZeroGrad();
    w2.ZeroGrad();
    tensor::Tensor h = tensor::Relu(tensor::MatMul(x, w1));
    tensor::Tensor loss =
        tensor::MeanAll(tensor::Square(tensor::MatMul(h, w2)));
    loss.Backward();
  };
  for (int i = 0; i < 5; ++i) step();  // warm the pool
  tensor::arena::ResetStats();
  for (auto _ : state) {
    step();
    benchmark::DoNotOptimize(w1.grad().data());
  }
  const tensor::arena::ArenaStats& stats = tensor::arena::Stats();
  state.counters["pool_hits"] = static_cast<double>(stats.pool_hits);
  state.counters["pool_misses"] = static_cast<double>(stats.pool_misses);
}
BENCHMARK(BM_TrainStepSteadyStatePoolHitRate);

void BM_EdsrTrainStep(benchmark::State& state) {
  // One EDSR step at the paper_increments shapes (synth-cifar100, the
  // bench_common image context): two 32-row views through the encoder, the
  // SimSiam predictor and p_dis against the frozen teacher, plus 16 replay
  // rows through L_rpl, backward and the SGD step. Two one-epoch increments
  // first fill the memory (8 per increment) and make the teacher.
  const bench::ImageBenchmark benchmark = bench::AllImageBenchmarks()[1];
  cl::StrategyContext context = bench::ContextFor(benchmark, /*seed=*/1);
  context.epochs = 1;
  const data::TaskSequence sequence = bench::MakeSequence(benchmark, 1);
  core::Edsr strategy(context);
  strategy.LearnIncrement(sequence.task(0));
  strategy.LearnIncrement(sequence.task(1));
  data::Task step = sequence.task(2);
  std::vector<int64_t> rows(context.batch_size);
  for (int64_t i = 0; i < context.batch_size; ++i) rows[i] = i;
  step.train = step.train.Subset(rows, "step");
  strategy.StreamBeginCycle(step);
  const int64_t nodes = tensor::AutogradNodesCreated();
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.StreamTrainBatch(step));
  }
  state.counters["nodes_per_step"] = static_cast<double>(
      (tensor::AutogradNodesCreated() - nodes) / state.iterations());
  strategy.StreamEndCycle(step);
}
BENCHMARK(BM_EdsrTrainStep);

void BM_EncoderForwardEval(benchmark::State& state) {
  // The graph-free eval-mode encoder forward behind the teacher, EvaluateTask,
  // selection, the retrieval and drift buffer passes and serving, at the
  // image encoder's shapes (192 -> 64 -> 64 -> 64 -> 32), Arg rows.
  util::Rng rng(0);
  ssl::Encoder encoder(bench::ImageContext(0).encoder, &rng);
  encoder.SetTraining(false);
  const tensor::Tensor x =
      tensor::Tensor::Randn({state.range(0), encoder.input_dim()}, &rng);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    tensor::Tensor z = encoder.Forward(x);
    benchmark::DoNotOptimize(z.data().data());
  }
}
BENCHMARK(BM_EncoderForwardEval)->Arg(64);

}  // namespace

EDSR_BENCHMARK_MAIN();
