// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// experiments: raw kernels entry points, the train step's elementwise layer
// and SimSiam view, matmul, no-grad vs grad-on encoder forwards, selector
// scoring, KNN eval, the checkpoint CRC-32.
//
// Emit machine-readable results with:
//   ./bench_micro_kernels --benchmark_out_format=json
//                         --benchmark_out=BENCH_micro_kernels.json
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/micro_main.h"
#include "src/augment/view_provider.h"
#include "src/cl/selection.h"
#include "src/data/synthetic.h"
#include "src/eval/knn.h"
#include "src/io/crc32.h"
#include "src/ssl/encoder.h"
#include "src/tensor/arena.h"
#include "src/tensor/grad_mode.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace {

using namespace edsr;

// ---- kernels layer -------------------------------------------------------

std::vector<float> RandomBuffer(int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.Normal();
  return v;
}

void BM_KernelsGemm(benchmark::State& state) {
  int64_t n = state.range(0);
  bool trans_b = state.range(1) != 0;
  std::vector<float> a = RandomBuffer(n * n, 10);
  std::vector<float> b = RandomBuffer(n * n, 11);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    tensor::kernels::Gemm(a.data(), b.data(), c.data(), n, n, n, false,
                          trans_b, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_KernelsGemm)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1});

void BM_KernelsGemmTransA(benchmark::State& state) {
  // Transposed-A side of the operand paths (BM_KernelsGemm covers trans_b).
  int64_t n = state.range(0);
  bool trans_b = state.range(1) != 0;
  std::vector<float> a = RandomBuffer(n * n, 10);
  std::vector<float> b = RandomBuffer(n * n, 11);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    tensor::kernels::Gemm(a.data(), b.data(), c.data(), n, n, n, true,
                          trans_b, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_KernelsGemmTransA)->Args({128, 0})->Args({128, 1});

void BM_KernelsPairwiseSqDist(benchmark::State& state) {
  // n queries x m bank rows at d=64: the shape kNN eval and k-means assign
  // hit every call.
  int64_t n = state.range(0);
  int64_t m = state.range(1);
  const int64_t d = 64;
  std::vector<float> a = RandomBuffer(n * d, 16);
  std::vector<float> b = RandomBuffer(m * d, 17);
  std::vector<float> out(n * m);
  for (auto _ : state) {
    tensor::kernels::PairwiseSqDist(a.data(), n, b.data(), m, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * m * d);
}
BENCHMARK(BM_KernelsPairwiseSqDist)->Args({64, 512})->Args({256, 1024});

// ---- Dispatch tiers ------------------------------------------------------

// Pins (tier, threads) for one benchmark run and restores the startup
// configuration afterwards, so arm order never leaks state.
class DispatchArm {
 public:
  DispatchArm(benchmark::State& state, int tier, int threads)
      : saved_tier_(tensor::simd::ActiveTier()),
        saved_threads_(util::ThreadPool::Global().NumThreads()),
        skipped_(false) {
    if (tier == 1 &&
        tensor::simd::SupportedTier() != tensor::simd::Tier::kAvx2) {
      state.SkipWithError("avx2 unsupported on this host");
      skipped_ = true;
      return;
    }
    tensor::simd::SetTierForTesting(tier == 0 ? tensor::simd::Tier::kScalar
                                              : tensor::simd::Tier::kAvx2);
    util::ThreadPool::Global().SetNumThreadsForTesting(threads);
  }
  ~DispatchArm() {
    if (skipped_) return;
    tensor::simd::SetTierForTesting(saved_tier_);
    util::ThreadPool::Global().SetNumThreadsForTesting(saved_threads_);
  }
  bool skipped() const { return skipped_; }

 private:
  tensor::simd::Tier saved_tier_;
  int saved_threads_;
  bool skipped_;
};

void BM_GemmDispatch(benchmark::State& state) {
  // The tentpole A/B: one square GEMM size under an explicit (tier,
  // threads) pin. Arm labels: size / tier (0=scalar, 1=avx2) / threads.
  const int64_t n = state.range(0);
  DispatchArm arm(state, static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)));
  if (arm.skipped()) return;
  std::vector<float> a = RandomBuffer(n * n, 40);
  std::vector<float> b = RandomBuffer(n * n, 41);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    tensor::kernels::Gemm(a.data(), b.data(), c.data(), n, n, n, false,
                          false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmDispatch)
    ->Args({128, 0, 1})
    ->Args({128, 1, 1})
    ->Args({256, 0, 1})
    ->Args({256, 1, 1})
    ->Args({512, 0, 1})
    ->Args({512, 1, 1})
    ->Args({512, 1, 2})
    ->Args({512, 1, 4});

void BM_GemmTrainShapes(benchmark::State& state) {
  // The train step's GEMMs (batch 32, MLP 192 -> 64 -> 64) at the active
  // tier and 1 thread: the forward X W (NN), the input gradient dY W^T (NT)
  // and the weight gradient X^T dY (TN), both gradients accumulating. Arm
  // labels: m / k / n / trans_a / trans_b / accumulate.
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  const bool trans_a = state.range(3) != 0, trans_b = state.range(4) != 0;
  const bool accumulate = state.range(5) != 0;
  DispatchArm arm(
      state,
      tensor::simd::ActiveTier() == tensor::simd::Tier::kAvx2 ? 1 : 0, 1);
  std::vector<float> a = RandomBuffer(m * k, 42);
  std::vector<float> b = RandomBuffer(k * n, 43);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    tensor::kernels::Gemm(a.data(), b.data(), c.data(), m, k, n, trans_a,
                          trans_b, accumulate);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmTrainShapes)
    ->Args({32, 192, 64, 0, 0, 0})
    ->Args({32, 64, 64, 0, 1, 1})
    ->Args({192, 32, 64, 1, 0, 1});

// ---- Scratch arena -------------------------------------------------------

void BM_ArenaScopedAlloc(benchmark::State& state) {
  // Scope + two bump allocations per iteration — the per-Gemm-call pattern.
  int64_t n = state.range(0);
  for (auto _ : state) {
    tensor::arena::Scope scope;
    float* a = tensor::arena::AllocFloats(n);
    float* b = tensor::arena::AllocFloats(n);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_ArenaScopedAlloc)->Arg(1 << 10)->Arg(1 << 16);

void BM_HeapScopedAlloc(benchmark::State& state) {
  // The std::vector churn the arena replaces, for side-by-side comparison.
  int64_t n = state.range(0);
  for (auto _ : state) {
    std::vector<float> a(n);
    std::vector<float> b(n);
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_HeapScopedAlloc)->Arg(1 << 10)->Arg(1 << 16);

void BM_ArenaAcquireRecycle(benchmark::State& state) {
  // Pool round-trip for tensor-sized buffers (steady-state storage churn).
  int64_t n = state.range(0);
  for (auto _ : state) {
    std::vector<float> v = tensor::arena::AcquireVector(n);
    benchmark::DoNotOptimize(v.data());
    tensor::arena::RecycleVector(std::move(v));
  }
}
BENCHMARK(BM_ArenaAcquireRecycle)->Arg(1 << 10)->Arg(1 << 16);

void BM_KernelsAxpy(benchmark::State& state) {
  // Arena buffers, not std::vector: real tensors are 64-byte-aligned arena
  // allocations, and at ~50ns/iter the 16-vs-32-byte alignment lottery of
  // heap buffers swings AVX2 throughput ±40% from one process to the next.
  int64_t n = state.range(0);
  std::vector<float> xv = RandomBuffer(n, 12);
  std::vector<float> yv = RandomBuffer(n, 13);
  tensor::arena::Scope scope;
  float* x = tensor::arena::AllocFloats(n);
  float* y = tensor::arena::AllocFloats(n);
  std::copy(xv.begin(), xv.end(), x);
  std::copy(yv.begin(), yv.end(), y);
  for (auto _ : state) {
    tensor::kernels::Axpy(n, 0.5f, x, y);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelsAxpy)->Arg(1 << 10)->Arg(1 << 16);

void BM_KernelsMapFused(benchmark::State& state) {
  // Fused elementwise via the Map template (what UnaryOp compiles down to).
  int64_t n = state.range(0);
  std::vector<float> x = RandomBuffer(n, 14);
  std::vector<float> out(n);
  for (auto _ : state) {
    tensor::kernels::Map(n, x.data(), out.data(), [](auto v) {
      return v > 0.0f ? v : 0.01f * v;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelsMapFused)->Arg(1 << 10)->Arg(1 << 16);

// The train step's elementwise layer at its shapes (batch 32, width 64):
// Linear's bias add and ReLU, forward and backward, as Relu(x + b).
void BM_ElementwiseBiasRelu(benchmark::State& state) {
  util::Rng rng(16);
  tensor::Tensor x = tensor::Tensor::Randn({32, 64}, &rng, 0, 1, true);
  tensor::Tensor b = tensor::Tensor::Randn({64}, &rng, 0, 1, true);
  for (auto _ : state) {
    x.ZeroGrad();
    b.ZeroGrad();
    tensor::SumAll(tensor::Relu(x + b)).Backward();
    benchmark::DoNotOptimize(b.grad().data());
  }
}
BENCHMARK(BM_ElementwiseBiasRelu)
    ->Name("BM_ElementwiseTrainShapes/bias_relu_32x64");

// One SGD step over the 27,488 parameters EDSR trains from its second
// increment on.
void BM_ElementwiseSgdStep(benchmark::State& state) {
  const int64_t n = 27488;
  std::vector<float> grad = RandomBuffer(n, 17);
  std::vector<float> velocity = RandomBuffer(n, 18);
  std::vector<float> data = RandomBuffer(n, 19);
  for (auto _ : state) {
    tensor::kernels::SgdMomentumStep(n, 0.03f, 0.9f, 5e-4f, grad.data(),
                                     velocity.data(), data.data());
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ElementwiseSgdStep)->Name("BM_ElementwiseTrainShapes/sgd_27488");

// One augmented view of 32 rows at the presets' 3 x 8 x 8 geometry, as the
// train step asks for it (twice per batch).
void BM_SimSiamView(benchmark::State& state) {
  data::SyntheticImageConfig config;
  config.num_classes = 2;
  config.train_per_class = 16;
  config.seed = 20;
  const data::SyntheticImagePair pair = data::MakeSyntheticImageData(config);
  std::vector<int64_t> rows(state.range(0));
  for (int64_t i = 0; i < state.range(0); ++i) rows[i] = i;
  const auto views = augment::ViewProvider::ForDataset(pair.train);
  util::Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(views->View(pair.train, rows, &rng).data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimSiamView)->Arg(32);

void BM_KernelsStridedSum(benchmark::State& state) {
  // Row reduction of a (256 x dim) matrix: outer=256, inner=1.
  int64_t dim = state.range(0);
  std::vector<float> src = RandomBuffer(256 * dim, 15);
  std::vector<float> dst(256);
  for (auto _ : state) {
    tensor::kernels::StridedSum(src.data(), 256, dim, 1, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * dim);
}
BENCHMARK(BM_KernelsStridedSum)->Arg(64)->Arg(512);

// ---- No-grad vs grad-on forwards -----------------------------------------

ssl::Encoder MakeBenchEncoder(util::Rng* rng) {
  ssl::EncoderConfig config;
  config.mlp_dims = {192, 64, 64};
  config.projector_hidden = 64;
  config.representation_dim = 32;
  return ssl::Encoder(config, rng);
}

void BM_EncoderForwardGradOn(benchmark::State& state) {
  util::Rng rng(20);
  ssl::Encoder encoder = MakeBenchEncoder(&rng);
  tensor::Tensor x = tensor::Tensor::Randn({64, 192}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(x).data().data());
  }
}
BENCHMARK(BM_EncoderForwardGradOn);

void BM_EncoderForwardNoGrad(benchmark::State& state) {
  util::Rng rng(20);
  ssl::Encoder encoder = MakeBenchEncoder(&rng);
  tensor::Tensor x = tensor::Tensor::Randn({64, 192}, &rng);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(x).data().data());
  }
}
BENCHMARK(BM_EncoderForwardNoGrad);

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  util::Rng rng(0);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, &rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MlpTrainStep(benchmark::State& state) {
  util::Rng rng(0);
  tensor::Tensor w1 = tensor::Tensor::Randn({192, 64}, &rng, 0, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({64, 32}, &rng, 0, 0.05f, true);
  tensor::Tensor x = tensor::Tensor::Randn({32, 192}, &rng);
  for (auto _ : state) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    tensor::Tensor h = tensor::Relu(tensor::MatMul(x, w1));
    tensor::Tensor loss = tensor::MeanAll(tensor::Square(tensor::MatMul(h, w2)));
    loss.Backward();
    benchmark::DoNotOptimize(w1.grad().data());
  }
}
BENCHMARK(BM_MlpTrainStep);

eval::RepresentationMatrix RandomReps(int64_t n, int64_t d, uint64_t seed) {
  util::Rng rng(seed);
  eval::RepresentationMatrix reps;
  reps.n = n;
  reps.d = d;
  reps.values.resize(n * d);
  for (float& v : reps.values) v = rng.Normal();
  return reps;
}

void BM_HighEntropySelect(benchmark::State& state) {
  eval::RepresentationMatrix reps = RandomReps(state.range(0), 32, 1);
  cl::SelectionContext context{&reps, {}};
  cl::HighEntropySelector selector;
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Select(context, 32, &rng));
  }
}
BENCHMARK(BM_HighEntropySelect)->Arg(120)->Arg(600);

void BM_GreedyLogDetSelect(benchmark::State& state) {
  eval::RepresentationMatrix reps = RandomReps(state.range(0), 32, 3);
  cl::SelectionContext context{&reps, {}};
  cl::HighEntropySelector selector(
      cl::HighEntropySelector::Mode::kGreedyLogDet);
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Select(context, 32, &rng));
  }
}
BENCHMARK(BM_GreedyLogDetSelect)->Arg(120);

void KnnEvaluateAt(benchmark::State& state, int64_t n, int64_t num_queries,
                   int64_t k, int64_t num_classes) {
  eval::RepresentationMatrix bank = RandomReps(n, 32, 5);
  eval::RepresentationMatrix queries = RandomReps(num_queries, 32, 6);
  std::vector<int64_t> bank_labels(n), query_labels(num_queries);
  util::Rng rng(7);
  for (auto& l : bank_labels) l = rng.UniformInt(0, num_classes - 1);
  for (auto& l : query_labels) l = rng.UniformInt(0, num_classes - 1);
  eval::KnnOptions options;
  options.k = k;
  options.num_classes = num_classes;
  eval::KnnClassifier knn(bank, bank_labels, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.Evaluate(queries, query_labels));
  }
}

void BM_KnnEvaluate(benchmark::State& state) {
  KnnEvaluateAt(state, state.range(0), 64, 10, 10);
}
BENCHMARK(BM_KnnEvaluate)->Arg(120)->Arg(1200);

// The shape of the stream's OOD probe after every cycle: 1,000 queries
// against a 1,200-row bank, k = 20, 40 classes.
void BM_KnnEvaluateOodProbe(benchmark::State& state) {
  KnnEvaluateAt(state, 1200, 1000, 20, 40);
}
BENCHMARK(BM_KnnEvaluateOodProbe)->Name("BM_KnnEvaluate/ood_probe");

// ---- io --------------------------------------------------------------------

// CRC-32 over a checkpoint-sized buffer: every container write and read
// checksums each section's payload.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> bytes(state.range(0));
  util::Rng rng(8);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 20);

}  // namespace

EDSR_BENCHMARK_MAIN();
