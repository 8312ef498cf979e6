// Tests for the kernels layer: every raw-loop entry point checked against a
// naive reference implementation.
#include "src/tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

namespace kernels = tensor::kernels;

std::vector<float> RandomVec(int64_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->Uniform(-1.0f, 1.0f);
  return v;
}

// Reference GEMM: straightforward triple loop with explicit indexing.
void NaiveGemm(const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>* c, int64_t m, int64_t k, int64_t n,
               bool trans_a, bool trans_b, bool accumulate) {
  if (!accumulate) c->assign(m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        float av = trans_a ? a[p * m + i] : a[i * k + p];
        float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += av * bv;
      }
      (*c)[i * n + j] += acc;
    }
  }
}

TEST(Kernels, GemmAllTransposeCombos) {
  util::Rng rng(1);
  const int64_t m = 4, k = 5, n = 3;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (bool acc : {false, true}) {
        std::vector<float> a = RandomVec(m * k, &rng);
        std::vector<float> b = RandomVec(k * n, &rng);
        std::vector<float> expected = RandomVec(m * n, &rng);
        std::vector<float> actual = expected;  // same starting contents
        NaiveGemm(a, b, &expected, m, k, n, ta, tb, acc);
        kernels::Gemm(a.data(), b.data(), actual.data(), m, k, n, ta, tb,
                      acc);
        for (int64_t i = 0; i < m * n; ++i) {
          EXPECT_NEAR(actual[i], expected[i], 1e-5f)
              << "ta=" << ta << " tb=" << tb << " acc=" << acc << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, GemmBlockedEdgeSizesMatchNaive) {
  // Exercise every micro-kernel edge case: sizes below, straddling, and
  // above the register-tile and cache-block boundaries, under all four
  // transpose combinations and both accumulate modes.
  util::Rng rng(6);
  const int64_t sizes[] = {1, 3, 17, 33, 65};
  for (int64_t m : sizes) {
    for (int64_t k : sizes) {
      for (int64_t n : sizes) {
        for (bool ta : {false, true}) {
          for (bool tb : {false, true}) {
            for (bool acc : {false, true}) {
              std::vector<float> a = RandomVec(m * k, &rng);
              std::vector<float> b = RandomVec(k * n, &rng);
              std::vector<float> expected = RandomVec(m * n, &rng);
              std::vector<float> actual = expected;
              NaiveGemm(a, b, &expected, m, k, n, ta, tb, acc);
              kernels::Gemm(a.data(), b.data(), actual.data(), m, k, n, ta,
                            tb, acc);
              float tol = 1e-4f * static_cast<float>(k);
              for (int64_t i = 0; i < m * n; ++i) {
                ASSERT_NEAR(actual[i], expected[i], tol)
                    << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
                    << " tb=" << tb << " acc=" << acc << " i=" << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Kernels, GemmZeroTimesFiniteIsExact) {
  // Zeros in either operand contribute exactly 0 against finite values.
  std::vector<float> a = {0, 2, 0, 0};  // (2 x 2) with zeros
  std::vector<float> b = {1, 2, 3, 4};
  std::vector<float> c(4, -1.0f);
  kernels::Gemm(a.data(), b.data(), c.data(), 2, 2, 2, false, false, false);
  EXPECT_FLOAT_EQ(c[0], 6.0f);   // 0*1 + 2*3
  EXPECT_FLOAT_EQ(c[1], 8.0f);   // 0*2 + 2*4
  EXPECT_FLOAT_EQ(c[2], 0.0f);
  EXPECT_FLOAT_EQ(c[3], 0.0f);
}

TEST(Kernels, GemmPropagatesNanAndInf) {
  // IEEE semantics through the branch-free inner loop: a zero LHS entry must
  // NOT short-circuit an inf/nan RHS entry (0 * inf = nan), and infinities
  // must reach the output. A data-dependent zero-skip would hide both.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  {
    std::vector<float> a = {0.0f, 1.0f};        // (1 x 2)
    std::vector<float> b = {inf, 2.0f};         // (2 x 1)
    std::vector<float> c(1, 0.0f);
    kernels::Gemm(a.data(), b.data(), c.data(), 1, 2, 1, false, false, false);
    EXPECT_TRUE(std::isnan(c[0])) << "0 * inf must propagate nan, got " << c[0];
  }
  {
    std::vector<float> a = {1.0f, 0.0f};        // nan in B row hit by the 0
    std::vector<float> b = {3.0f, nan};
    std::vector<float> c(1, 0.0f);
    kernels::Gemm(a.data(), b.data(), c.data(), 1, 2, 1, false, false, false);
    EXPECT_TRUE(std::isnan(c[0])) << "0 * nan must propagate nan";
  }
  {
    std::vector<float> a = {2.0f, 1.0f};        // plain inf accumulation
    std::vector<float> b = {inf, 1.0f};
    std::vector<float> c(1, 0.0f);
    kernels::Gemm(a.data(), b.data(), c.data(), 1, 2, 1, false, false, false);
    EXPECT_TRUE(std::isinf(c[0]) && c[0] > 0.0f);
  }
}

TEST(Kernels, PairwiseSqDistMatchesScalar) {
  util::Rng rng(7);
  const int64_t n = 33, m = 17, d = 19;
  std::vector<float> a = RandomVec(n * d, &rng);
  std::vector<float> b = RandomVec(m * d, &rng);
  std::vector<float> out(n * m);
  kernels::PairwiseSqDist(a.data(), n, b.data(), m, d, out.data());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      double expected = 0.0;
      for (int64_t c = 0; c < d; ++c) {
        double diff = static_cast<double>(a[i * d + c]) - b[j * d + c];
        expected += diff * diff;
      }
      ASSERT_NEAR(out[i * m + j], expected, 1e-3)
          << "i=" << i << " j=" << j;
      ASSERT_GE(out[i * m + j], 0.0f) << "clamp must keep distances >= 0";
    }
  }
}

TEST(Kernels, PairwiseSqDistSelfDistancesNearZero) {
  // Identical rows are clamped at 0 but only promised to be *near* zero;
  // pin the documented contract.
  util::Rng rng(8);
  const int64_t n = 5, d = 16;
  std::vector<float> a = RandomVec(n * d, &rng);
  std::vector<float> out(n * n);
  kernels::PairwiseSqDist(a.data(), n, a.data(), n, d, out.data());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_GE(out[i * n + i], 0.0f);
    EXPECT_LE(out[i * n + i], 1e-4f);
  }
}

TEST(Kernels, Blas1Entries) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  kernels::Axpy(3, 2.0f, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);

  kernels::Scale(3, 0.5f, y.data());
  EXPECT_FLOAT_EQ(y[1], 12.0f);

  kernels::AddScalar(3, 1.0f, x.data());
  EXPECT_FLOAT_EQ(x[0], 2.0f);

  EXPECT_NEAR(kernels::SumAll(3, x.data()), 9.0, 1e-6);
  EXPECT_NEAR(kernels::SumSquares(3, x.data()), 4 + 9 + 16, 1e-6);
  std::vector<float> z = {1, 0, 2};
  EXPECT_NEAR(kernels::Dot(3, x.data(), z.data()), 2 + 0 + 8, 1e-6);
}

TEST(Kernels, NormalizeL2) {
  std::vector<float> x = {3.0f, 4.0f};
  kernels::NormalizeL2(2, x.data());
  EXPECT_NEAR(x[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x[1], 0.8f, 1e-5f);
  // Zero vector stays finite thanks to eps.
  std::vector<float> zero = {0.0f, 0.0f};
  kernels::NormalizeL2(2, zero.data());
  EXPECT_TRUE(std::isfinite(zero[0]));
}

TEST(Kernels, StridedSumAndBroadcastAddAreAdjoint) {
  // (outer=2, dim=3, inner=2) tensor summed over dim.
  util::Rng rng(2);
  std::vector<float> src = RandomVec(2 * 3 * 2, &rng);
  std::vector<float> dst(2 * 2);
  kernels::StridedSum(src.data(), 2, 3, 2, dst.data());
  for (int64_t o = 0; o < 2; ++o) {
    for (int64_t i = 0; i < 2; ++i) {
      float expected = 0.0f;
      for (int64_t d = 0; d < 3; ++d) expected += src[(o * 3 + d) * 2 + i];
      EXPECT_NEAR(dst[o * 2 + i], expected, 1e-5f);
    }
  }
  // Adjoint identity: <StridedSum(x), y> == <x, StridedBroadcastAdd(y)>.
  std::vector<float> y = RandomVec(2 * 2, &rng);
  std::vector<float> scattered(2 * 3 * 2, 0.0f);
  kernels::StridedBroadcastAdd(y.data(), 2, 3, 2, scattered.data());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < 4; ++i) lhs += dst[i] * y[i];
  for (int64_t i = 0; i < 12; ++i) rhs += src[i] * scattered[i];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(Kernels, ColMeanAndSubRowVector) {
  std::vector<float> rows = {1, 2, 3, 4, 5, 6};  // (3 x 2)
  std::vector<float> mean(2);
  kernels::ColMean(rows.data(), 3, 2, mean.data());
  EXPECT_NEAR(mean[0], 3.0f, 1e-6f);
  EXPECT_NEAR(mean[1], 4.0f, 1e-6f);
  std::vector<float> centered(6);
  kernels::SubRowVector(rows.data(), 3, 2, mean.data(), centered.data());
  EXPECT_NEAR(centered[0], -2.0f, 1e-6f);
  EXPECT_NEAR(centered[5], 2.0f, 1e-6f);
}

TEST(Kernels, Transpose2dOverwriteAndAccumulate) {
  std::vector<float> src = {1, 2, 3, 4, 5, 6};  // (2 x 3)
  std::vector<float> dst(6, 100.0f);
  kernels::Transpose2d(src.data(), 2, 3, dst.data());
  EXPECT_FLOAT_EQ(dst[0], 1.0f);
  EXPECT_FLOAT_EQ(dst[1], 4.0f);
  EXPECT_FLOAT_EQ(dst[4], 3.0f);
  kernels::Transpose2d(src.data(), 2, 3, dst.data(), /*accumulate=*/true);
  EXPECT_FLOAT_EQ(dst[0], 2.0f);
  EXPECT_FLOAT_EQ(dst[1], 8.0f);
}

// Lengths 1 to 9 and 37: every element lands in a four-lane block or in the
// one-float rest, and both steps must match the per-element loop to the bit.
const int64_t kStepLengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 37};

TEST(Kernels, SgdMomentumStepMatchesReference) {
  const float lr = 0.1f, momentum = 0.9f, wd = 0.01f;
  util::Rng rng(5);
  for (int64_t n : kStepLengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<float> grad = RandomVec(n, &rng);
    std::vector<float> vel = RandomVec(n, &rng);
    std::vector<float> data = RandomVec(n, &rng);
    std::vector<float> ref_vel = vel, ref_data = data;
    for (int64_t i = 0; i < n; ++i) {
      float g = grad[i] + wd * ref_data[i];
      ref_vel[i] = momentum * ref_vel[i] + g;
      ref_data[i] -= lr * ref_vel[i];
    }
    kernels::SgdMomentumStep(n, lr, momentum, wd, grad.data(), vel.data(),
                             data.data());
    testing::ExpectSameBits(vel, ref_vel, "velocity");
    testing::ExpectSameBits(data, ref_data, "data");
  }
}

TEST(Kernels, AdamStepMatchesReference) {
  const float lr = 0.01f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f, wd = 0.05f;
  const float bc1 = 1.0f - std::pow(b1, 3.0f);
  const float bc2 = 1.0f - std::pow(b2, 3.0f);
  util::Rng rng(6);
  for (int64_t n : kStepLengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<float> grad = RandomVec(n, &rng);
    std::vector<float> m = RandomVec(n, &rng);
    std::vector<float> v = RandomVec(n, &rng);
    for (float& x : v) x = std::fabs(x);  // a second moment is >= 0
    std::vector<float> data = RandomVec(n, &rng);
    std::vector<float> rm = m, rv = v, rd = data;
    for (int64_t i = 0; i < n; ++i) {
      float g = grad[i] + wd * rd[i];
      rm[i] = b1 * rm[i] + (1.0f - b1) * g;
      rv[i] = b2 * rv[i] + (1.0f - b2) * g * g;
      float mhat = rm[i] / bc1;
      float vhat = rv[i] / bc2;
      rd[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
    kernels::AdamStep(n, lr, b1, b2, eps, wd, bc1, bc2, grad.data(),
                      m.data(), v.data(), data.data());
    testing::ExpectSameBits(m, rm, "m");
    testing::ExpectSameBits(v, rv, "v");
    testing::ExpectSameBits(data, rd, "data");
  }
}

// ---- Dispatch-tier sweep -------------------------------------------------
//
// Every (tier, thread-count) configuration the dispatcher can select must
// agree: scalar and AVX2 within a float tolerance, and — the determinism
// contract from threadpool.h — every thread count bit-identical to the
// 1-thread run of the same tier.

namespace simd = tensor::simd;

// Saves and restores the dispatch tier and pool size around a test.
class DispatchConfigGuard {
 public:
  DispatchConfigGuard()
      : tier_(simd::ActiveTier()),
        threads_(util::ThreadPool::Global().NumThreads()) {}
  ~DispatchConfigGuard() {
    simd::SetTierForTesting(tier_);
    util::ThreadPool::Global().SetNumThreadsForTesting(threads_);
  }

 private:
  simd::Tier tier_;
  int threads_;
};

struct DispatchConfig {
  simd::Tier tier;
  int threads;
};

std::vector<DispatchConfig> AllDispatchConfigs() {
  std::vector<DispatchConfig> configs = {{simd::Tier::kScalar, 1},
                                         {simd::Tier::kScalar, 4}};
  if (simd::SupportedTier() == simd::Tier::kAvx2) {
    configs.push_back({simd::Tier::kAvx2, 1});
    configs.push_back({simd::Tier::kAvx2, 2});
    configs.push_back({simd::Tier::kAvx2, 4});
  }
  return configs;
}

void ApplyConfig(const DispatchConfig& config) {
  simd::SetTierForTesting(config.tier);
  util::ThreadPool::Global().SetNumThreadsForTesting(config.threads);
}

TEST(KernelsDispatch, GemmEveryTierMatchesNaiveAndThreadsAreBitIdentical) {
  DispatchConfigGuard guard;
  util::Rng rng(31);
  // Odd sizes straddling both register tiles (scalar 4x8, AVX2 6x16) and
  // the cache blocks, plus a square size past the packing boundaries.
  struct Shape { int64_t m, k, n; };
  const Shape shapes[] = {{1, 1, 1},   {5, 3, 17},   {23, 65, 9},
                          {97, 31, 130}, {64, 300, 48}, {129, 129, 129}};
  for (const Shape& shape : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        std::vector<float> a = RandomVec(shape.m * shape.k, &rng);
        std::vector<float> b = RandomVec(shape.k * shape.n, &rng);
        std::vector<float> expected = RandomVec(shape.m * shape.n, &rng);
        const std::vector<float> seed_c = expected;
        NaiveGemm(a, b, &expected, shape.m, shape.k, shape.n, ta, tb,
                  /*accumulate=*/true);
        const float tol = 1e-4f * static_cast<float>(shape.k);
        for (const DispatchConfig& config : AllDispatchConfigs()) {
          ApplyConfig(config);
          std::vector<float> actual = seed_c;
          kernels::Gemm(a.data(), b.data(), actual.data(), shape.m, shape.k,
                        shape.n, ta, tb, /*accumulate=*/true);
          for (int64_t i = 0; i < shape.m * shape.n; ++i) {
            ASSERT_NEAR(actual[i], expected[i], tol)
                << "tier=" << simd::TierName(config.tier)
                << " threads=" << config.threads << " m=" << shape.m
                << " k=" << shape.k << " n=" << shape.n << " ta=" << ta
                << " tb=" << tb << " i=" << i;
          }
          if (config.threads == 1) continue;
          // Bit-identical to the same tier at 1 thread: the macro-panel
          // decomposition must not depend on the pool size.
          simd::SetTierForTesting(config.tier);
          util::ThreadPool::Global().SetNumThreadsForTesting(1);
          std::vector<float> serial = seed_c;
          kernels::Gemm(a.data(), b.data(), serial.data(), shape.m, shape.k,
                        shape.n, ta, tb, /*accumulate=*/true);
          ASSERT_EQ(0, std::memcmp(serial.data(), actual.data(),
                                   serial.size() * sizeof(float)))
              << "tier=" << simd::TierName(config.tier) << " threads="
              << config.threads << " diverged from its own 1-thread run";
        }
      }
    }
  }
}

// The bits of Gemm on one tier: each output is one chain per 256-deep
// block of k (the drivers' kKc), summed from +0 — std::fma on AVX2,
// multiply-then-add on scalar — and each chain is added to C in block
// order. Where the kernel reads its operands from is not part of this.
std::vector<float> ChainPerDepthBlockGemm(
    const std::vector<float>& a, const std::vector<float>& b,
    std::vector<float> c, int64_t m, int64_t k, int64_t n, bool trans_a,
    bool trans_b, bool accumulate, bool fma) {
  constexpr int64_t kDepthBlock = 256;
  if (!accumulate) c.assign(m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t pc = 0; pc < k; pc += kDepthBlock) {
        float chain = 0.0f;
        for (int64_t p = pc; p < std::min(k, pc + kDepthBlock); ++p) {
          float av = trans_a ? a[p * m + i] : a[i * k + p];
          float bv = trans_b ? b[j * k + p] : b[p * n + j];
          chain = fma ? std::fma(av, bv, chain) : chain + av * bv;
        }
        c[i * n + j] += chain;
      }
    }
  }
  return c;
}

// Uniform values mixed with -0, denormals and tiny values whose products
// underflow to denormals, plus one NaN, +inf and -inf each at random
// positions (few enough that most outputs stay finite).
std::vector<float> SpecialValueVec(int64_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    float u = rng->Uniform();
    if (u < 0.05f) {
      x = -0.0f;
    } else if (u < 0.10f) {
      x = rng->Uniform(-1.0f, 1.0f) * 1e-39f;
    } else if (u < 0.15f) {
      x = rng->Uniform(-1.0f, 1.0f) * 1e-20f;
    } else {
      x = rng->Uniform(-1.0f, 1.0f);
    }
  }
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (float special : specials) {
    if (n > 0) v[rng->UniformInt(0, n - 1)] = special;
  }
  return v;
}

TEST(KernelsDispatch, GemmBitsAreOneChainPerDepthBlock) {
  DispatchConfigGuard guard;
  util::Rng rng(35);
  struct Shape { int64_t m, k, n; };
  std::vector<Shape> shapes;
  // Training shapes at batch 8/16/24/32: the MLP forward (batch x 192 x 64,
  // batch x 64 x 64) and the weight gradient (192 x batch x 64).
  for (int64_t batch : {8, 16, 24, 32}) {
    shapes.push_back({batch, 192, 64});
    shapes.push_back({batch, 64, 64});
    shapes.push_back({192, batch, 64});
  }
  // Tile tails on both register tiles, more than one depth block, and the
  // degenerate sizes.
  for (Shape shape : {Shape{5, 3, 17}, Shape{23, 65, 9}, Shape{97, 31, 130},
                      Shape{64, 300, 48}, Shape{7, 513, 21}, Shape{1, 1, 1},
                      Shape{4, 0, 7}}) {
    shapes.push_back(shape);
  }
  for (const Shape& shape : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (bool acc : {false, true}) {
          // Exact sizes: ASan flags any read past op(A) or op(B).
          const int64_t m = shape.m, k = shape.k, n = shape.n;
          const std::vector<float> a = SpecialValueVec(m * k, &rng);
          const std::vector<float> b = SpecialValueVec(k * n, &rng);
          const std::vector<float> c = SpecialValueVec(m * n, &rng);
          const std::vector<float> expected_scalar = ChainPerDepthBlockGemm(
              a, b, c, m, k, n, ta, tb, acc, /*fma=*/false);
          const std::vector<float> expected_avx2 = ChainPerDepthBlockGemm(
              a, b, c, m, k, n, ta, tb, acc, /*fma=*/true);
          for (const DispatchConfig& config : AllDispatchConfigs()) {
            ApplyConfig(config);
            std::vector<float> actual = c;
            kernels::Gemm(a.data(), b.data(), actual.data(), m, k, n, ta, tb,
                          acc);
            testing::ExpectSameBits(
                actual,
                config.tier == simd::Tier::kAvx2 ? expected_avx2
                                                 : expected_scalar,
                std::string("tier=") + simd::TierName(config.tier) +
                    " threads=" + std::to_string(config.threads) +
                    " m=" + std::to_string(m) + " k=" + std::to_string(k) +
                    " n=" + std::to_string(n) + " ta=" + std::to_string(ta) +
                    " tb=" + std::to_string(tb) +
                    " acc=" + std::to_string(acc));
          }
        }
      }
    }
  }
}

TEST(KernelsDispatch, PairwiseSqDistEveryTierMatchesAndThreadsBitIdentical) {
  DispatchConfigGuard guard;
  util::Rng rng(32);
  const int64_t n = 130, m = 70, d = 33;
  std::vector<float> a = RandomVec(n * d, &rng);
  std::vector<float> b = RandomVec(m * d, &rng);
  for (const DispatchConfig& config : AllDispatchConfigs()) {
    ApplyConfig(config);
    std::vector<float> out(n * m);
    kernels::PairwiseSqDist(a.data(), n, b.data(), m, d, out.data());
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        double expected = 0.0;
        for (int64_t c = 0; c < d; ++c) {
          double diff = static_cast<double>(a[i * d + c]) - b[j * d + c];
          expected += diff * diff;
        }
        ASSERT_NEAR(out[i * m + j], expected, 1e-3)
            << "tier=" << simd::TierName(config.tier)
            << " threads=" << config.threads << " i=" << i << " j=" << j;
        ASSERT_GE(out[i * m + j], 0.0f);
      }
    }
    if (config.threads == 1) continue;
    simd::SetTierForTesting(config.tier);
    util::ThreadPool::Global().SetNumThreadsForTesting(1);
    std::vector<float> serial(n * m);
    kernels::PairwiseSqDist(a.data(), n, b.data(), m, d, serial.data());
    ASSERT_EQ(0, std::memcmp(serial.data(), out.data(),
                             serial.size() * sizeof(float)))
        << "tier=" << simd::TierName(config.tier)
        << " threads=" << config.threads;
  }
}

// A bank prepared once (transposed, with its squared row norms) gives every
// query the bits of PairwiseSqDist against the bank rows: each cross term is
// one GEMM chain whether op(B) is packed from the rows or read in place.
TEST(KernelsDispatch, PairwiseSqDistToBankMatchesPairwiseSqDistBits) {
  DispatchConfigGuard guard;
  util::Rng rng(36);
  struct Shape { int64_t n, m, d; };
  // Partial and full 16-column panels, one query, a depth past kKc.
  for (Shape shape : {Shape{1, 70, 33}, Shape{5, 16, 32}, Shape{37, 129, 8},
                      Shape{3, 9, 300}, Shape{64, 1, 1}}) {
    const int64_t n = shape.n, m = shape.m, d = shape.d;
    const std::vector<float> a = SpecialValueVec(n * d, &rng);
    const std::vector<float> b = SpecialValueVec(m * d, &rng);
    std::vector<float> b_t(d * m);
    kernels::Transpose2d(b.data(), m, d, b_t.data());
    for (const DispatchConfig& config : AllDispatchConfigs()) {
      ApplyConfig(config);
      std::vector<float> b_sq(m);
      kernels::BankSqNorms(b.data(), m, d, b_sq.data());
      std::vector<float> expected(n * m);
      kernels::PairwiseSqDist(a.data(), n, b.data(), m, d, expected.data());
      std::vector<float> actual(n * m);
      kernels::PairwiseSqDistToBank(a.data(), n, b_t.data(), b_sq.data(), m,
                                    d, actual.data());
      testing::ExpectSameBits(
          actual, expected,
          std::string("tier=") + simd::TierName(config.tier) +
              " threads=" + std::to_string(config.threads) +
              " n=" + std::to_string(n) + " m=" + std::to_string(m) +
              " d=" + std::to_string(d));
    }
  }
}

// kernels.pairwise.flops counts a prepared bank's norms once, in
// BankSqNorms: preparing the bank and scoring one query block counts what
// one PairwiseSqDist of that block counts.
TEST(KernelsDispatch, PreparedBankCountsItsNormsOnce) {
  util::Rng rng(37);
  const int64_t n = 3, m = 20, d = 8;
  const std::vector<float> a = RandomVec(n * d, &rng);
  const std::vector<float> b = RandomVec(m * d, &rng);
  std::vector<float> b_t(d * m);
  kernels::Transpose2d(b.data(), m, d, b_t.data());
  std::vector<float> b_sq(m);
  std::vector<float> out(n * m);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto flops = [&] {
    return registry.Has("kernels.pairwise.flops")
               ? registry.Value("kernels.pairwise.flops")
               : 0.0;
  };
  const double start = flops();
  kernels::PairwiseSqDist(a.data(), n, b.data(), m, d, out.data());
  const double direct = flops() - start;
  EXPECT_EQ(direct, static_cast<double>((n + m) * 2 * d + 3 * n * m));
  const double prepared_start = flops();
  kernels::BankSqNorms(b.data(), m, d, b_sq.data());
  kernels::PairwiseSqDistToBank(a.data(), n, b_t.data(), b_sq.data(), m, d,
                                out.data());
  EXPECT_EQ(flops() - prepared_start, direct);
}

TEST(KernelsDispatch, Blas1AndReductionsAgreeAcrossTiers) {
  DispatchConfigGuard guard;
  util::Rng rng(33);
  const int64_t n = 1031;  // odd length: exercises every vector tail
  std::vector<float> x = RandomVec(n, &rng);
  std::vector<float> y = RandomVec(n, &rng);

  simd::SetTierForTesting(simd::Tier::kScalar);
  std::vector<float> y_scalar = y;
  kernels::Axpy(n, 0.7f, x.data(), y_scalar.data());
  kernels::Scale(n, 1.3f, y_scalar.data());
  kernels::AddScalar(n, -0.2f, y_scalar.data());
  const double sum_scalar = kernels::SumAll(n, y_scalar.data());
  const double sq_scalar = kernels::SumSquares(n, y_scalar.data());
  const double dot_scalar = kernels::Dot(n, x.data(), y_scalar.data());

  if (simd::SupportedTier() != simd::Tier::kAvx2) {
    GTEST_SKIP() << "AVX2 unsupported on this host";
  }
  simd::SetTierForTesting(simd::Tier::kAvx2);
  std::vector<float> y_simd = y;
  kernels::Axpy(n, 0.7f, x.data(), y_simd.data());
  kernels::Scale(n, 1.3f, y_simd.data());
  kernels::AddScalar(n, -0.2f, y_simd.data());
  for (int64_t i = 0; i < n; ++i) {
    // Element-wise ops don't reassociate, but the AVX2 lanes use FMA
    // (single rounding) where scalar rounds twice: allow a few ulps.
    ASSERT_NEAR(y_scalar[i], y_simd[i], 1e-5f) << "i=" << i;
  }
  // Reductions reassociate (8 lanes + double pairs); allow a small slack.
  EXPECT_NEAR(kernels::SumAll(n, y_simd.data()), sum_scalar, 1e-4);
  EXPECT_NEAR(kernels::SumSquares(n, y_simd.data()), sq_scalar, 1e-4);
  EXPECT_NEAR(kernels::Dot(n, x.data(), y_simd.data()), dot_scalar, 1e-4);
}

TEST(Kernels, BroadcastRunsVisitOutputInOrder) {
  // a (2 x 1 x 4) against b (2 x 3 x 4): both inputs walk the innermost dim
  // with stride 1, so it is the run; a is stretched along the middle dim,
  // which keeps the plan at rank 3 and makes consecutive runs revisit a row.
  const int64_t dims[] = {2, 3, 4};
  const int64_t stride_a[] = {4, 0, 1};
  const int64_t stride_b[] = {12, 4, 1};
  kernels::BroadcastPlan plan =
      kernels::MakeBroadcastPlan(3, dims, stride_a, stride_b);
  ASSERT_EQ(plan.rank, 3);
  EXPECT_EQ(plan.numel, 24);
  std::vector<std::vector<int64_t>> runs;
  kernels::ForEachBroadcastRun(plan, [&](int64_t o, int64_t ia, int64_t ib) {
    runs.push_back({o, ia, ib});
  });
  EXPECT_EQ(runs, (std::vector<std::vector<int64_t>>{{0, 0, 0},
                                                     {4, 0, 4},
                                                     {8, 0, 8},
                                                     {12, 4, 12},
                                                     {16, 4, 16},
                                                     {20, 4, 20}}));
}

TEST(Kernels, BroadcastPlanMergesCongruentDims) {
  struct Case {
    const char* name;
    std::vector<int64_t> dims, stride_a, stride_b;
    std::vector<int64_t> want_dims, want_a, want_b;
  };
  const std::vector<Case> cases = {
      {"same shape", {2, 3, 4}, {12, 4, 1}, {12, 4, 1}, {24}, {1}, {1}},
      {"row broadcast", {5, 7}, {7, 1}, {0, 1}, {5, 7}, {7, 1}, {0, 1}},
      {"column broadcast", {5, 7}, {7, 1}, {1, 0}, {5, 7}, {7, 1}, {1, 0}},
      {"scalar", {5, 7}, {7, 1}, {0, 0}, {35}, {1}, {0}},
      {"size-1 dims drop", {4, 1, 1, 5}, {5, 5, 5, 1}, {0, 0, 0, 1},
       {4, 5}, {5, 1}, {0, 1}},
      {"batchnorm2d", {2, 3, 4, 5}, {60, 20, 5, 1}, {0, 1, 0, 0},
       {2, 3, 20}, {60, 20, 1}, {0, 1, 0}},
      {"one element", {1, 1}, {0, 0}, {0, 0}, {1}, {1}, {1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    kernels::BroadcastPlan plan = kernels::MakeBroadcastPlan(
        static_cast<int64_t>(c.dims.size()), c.dims.data(),
        c.stride_a.data(), c.stride_b.data());
    ASSERT_EQ(plan.rank, static_cast<int64_t>(c.want_dims.size()));
    EXPECT_EQ(std::vector<int64_t>(plan.dims, plan.dims + plan.rank),
              c.want_dims);
    EXPECT_EQ(std::vector<int64_t>(plan.stride_a, plan.stride_a + plan.rank),
              c.want_a);
    EXPECT_EQ(std::vector<int64_t>(plan.stride_b, plan.stride_b + plan.rank),
              c.want_b);
  }
  // A zero-size dim leaves nothing to visit.
  const int64_t dims[] = {0, 3};
  const int64_t strides[] = {3, 1};
  kernels::BroadcastPlan empty =
      kernels::MakeBroadcastPlan(2, dims, strides, strides);
  EXPECT_EQ(empty.numel, 0);
  int64_t visited = 0;
  kernels::ForEachBroadcastRun(empty, [&](int64_t, int64_t, int64_t) {
    ++visited;
  });
  EXPECT_EQ(visited, 0);
}

TEST(Kernels, BroadcastPlanRejectsRankNine) {
  const int64_t dims[9] = {2, 1, 2, 1, 2, 1, 2, 1, 2};
  const int64_t strides[9] = {};
  EXPECT_DEATH(kernels::MakeBroadcastPlan(9, dims, strides, strides),
               "broadcast rank 9 exceeds 8");
}

}  // namespace
}  // namespace edsr
