#include "src/tensor/kernels.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tensor/arena.h"
#include "src/tensor/kernels_internal.h"
#include "src/tensor/simd.h"
#include "src/util/check.h"
#include "src/util/threadpool.h"

namespace edsr::tensor::kernels {

namespace {

// Scalar blocked GEMM geometry (see DESIGN.md §4c). The micro-kernel
// computes a kMr x kNr register tile, reading op(A) and op(B) where they lie
// (kernels_internal.h). Block sizes: a B panel (kKc x kNr) is reused across
// the ip loop, an A block (kMc x kKc) across the jp loop. kKc is part of
// the results: each output is one accumulation chain per kKc-deep block.
// The AVX2 tier (kernels_avx2.cc) instantiates the same blocked driver with
// a 6x16 FMA tile; simd::ActiveTier() picks between them once at startup.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;
constexpr int64_t kMc = 64;   // multiple of kMr
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 512;  // multiple of kNr

bool UseAvx2() { return simd::ActiveTier() == simd::Tier::kAvx2; }

int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// C(mr_eff x nr_eff) += op(A) rows * op(B) panel over depth kc, each output
// summed as one multiply-then-add chain from +0. Accumulators live in
// registers (constant-bound loops fully unroll). Rows past mr_eff re-read
// the last live row and columns past nr_eff read the zero-padded pack;
// neither is written back. Branch-free over the data: every product is
// computed, so 0 * inf and signed zeros propagate IEEE-correctly.
inline void MicroKernel(int64_t kc, const float* a, int64_t a_rs,
                        int64_t a_cs, const float* b, int64_t ldb,
                        int64_t mr_eff, int64_t nr_eff, float* c,
                        int64_t ldc) {
  const float* arow[kMr];
  for (int64_t ir = 0; ir < kMr; ++ir) {
    arow[ir] = a + std::min(ir, mr_eff - 1) * a_rs;
  }
  float acc[kMr][kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (int64_t ir = 0; ir < kMr; ++ir) {
      float av = arow[ir][p * a_cs];
      for (int64_t jr = 0; jr < kNr; ++jr) {
        acc[ir][jr] += av * brow[jr];
      }
    }
  }
  if (mr_eff == kMr && nr_eff == kNr) {
    for (int64_t ir = 0; ir < kMr; ++ir) {
      float* crow = c + ir * ldc;
      for (int64_t jr = 0; jr < kNr; ++jr) crow[jr] += acc[ir][jr];
    }
  } else {
    for (int64_t ir = 0; ir < mr_eff; ++ir) {
      float* crow = c + ir * ldc;
      for (int64_t jr = 0; jr < nr_eff; ++jr) crow[jr] += acc[ir][jr];
    }
  }
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (m == 0 || n == 0 || k == 0) return;
  auto start = std::chrono::steady_clock::now();
  EDSR_METRIC_COUNT("kernels.gemm.calls", 1);
  EDSR_METRIC_COUNT("kernels.gemm.flops", 2 * m * n * k);
  EDSR_METRIC_COUNT("kernels.gemm.bytes",
                    static_cast<int64_t>(sizeof(float)) *
                        (m * k + k * n + 2 * m * n));
  if (UseAvx2()) {
    avx2::Gemm(a, b, c, m, k, n, trans_a, trans_b);
  } else {
    internal::GemmBlockedDriver<kMr, kNr, kMc, kKc, kNc>(
        a, b, c, m, k, n, trans_a, trans_b, MicroKernel);
  }
  EDSR_METRIC_COUNT("kernels.gemm.ns", ElapsedNs(start));
}

namespace {

// Squared row norms of x (rows x d), each summed in double and rounded to
// float; rows are independent, so the fan-out over the pool is exact at
// every thread count.
void RowSqNorms(const float* x, int64_t rows, int64_t d, float* out) {
  util::ParallelFor(0, rows, /*grain=*/64, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      out[i] = static_cast<float>(SumSquares(d, x + i * d));
    }
  });
}

// ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, clamped at 0, with b's squared norms
// given and the cross terms via the blocked GEMM: op(B) is b transposed,
// either packed from b (m x d, b_transposed false) or read in place from
// b_t (d x m). Each cross term is one GEMM chain either way, so both give
// the same bits. Row norms accumulate in double; the clamp hides
// cancellation, so exact zeros for identical rows are NOT guaranteed
// (callers needing them must pin known pairs).
void SqDistWithBankNorms(const float* a, int64_t n, const float* b,
                         bool b_transposed, const float* nb, int64_t m,
                         int64_t d, float* out) {
  arena::Scope scope;
  float* na = arena::AllocFloats(n);
  RowSqNorms(a, n, d, na);
  Gemm(a, b, out, n, d, m, /*trans_a=*/false, /*trans_b=*/!b_transposed,
       /*accumulate=*/false);
  bool use_avx2 = UseAvx2();
  // The combine runs per row, so it fans out over the pool too.
  util::ParallelFor(0, n, /*grain=*/64, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float* row = out + i * m;
      float ni = na[i];
      if (use_avx2) {
        avx2::PairwiseCombine(m, ni, nb, row);
      } else {
        for (int64_t j = 0; j < m; ++j) {
          row[j] = std::max(0.0f, ni + nb[j] - 2.0f * row[j]);
        }
      }
    }
  });
}

}  // namespace

void PairwiseSqDist(const float* a, int64_t n, const float* b, int64_t m,
                    int64_t d, float* out) {
  if (n == 0 || m == 0) return;
  EDSR_METRIC_COUNT("kernels.pairwise.calls", 1);
  EDSR_METRIC_COUNT("kernels.pairwise.flops", (n + m) * 2 * d + 3 * n * m);
  arena::Scope scope;
  float* nb = arena::AllocFloats(m);
  RowSqNorms(b, m, d, nb);
  SqDistWithBankNorms(a, n, b, /*b_transposed=*/false, nb, m, d, out);
}

void PairwiseSqDistToBank(const float* a, int64_t n, const float* b_t,
                          const float* b_sq, int64_t m, int64_t d,
                          float* out) {
  if (n == 0 || m == 0) return;
  EDSR_METRIC_COUNT("kernels.pairwise.calls", 1);
  EDSR_METRIC_COUNT("kernels.pairwise.flops", n * 2 * d + 3 * n * m);
  SqDistWithBankNorms(a, n, b_t, /*b_transposed=*/true, b_sq, m, d, out);
}

void BankSqNorms(const float* b, int64_t m, int64_t d, float* out) {
  EDSR_METRIC_COUNT("kernels.pairwise.flops", m * 2 * d);
  RowSqNorms(b, m, d, out);
}

int64_t FirstCosineAbove(int64_t n, const float* dist, float threshold) {
  if (UseAvx2()) return avx2::FirstCosineAbove(n, dist, threshold);
  for (int64_t j = 0; j < n; ++j) {
    if (1.0f - 0.5f * dist[j] > threshold) return j;
  }
  return n;
}

float KthCosineLowerBound(int64_t n, const float* dist, int64_t k) {
  if (UseAvx2()) return avx2::KthCosineLowerBound(n, dist, k);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const int64_t group = n / (8 * k) * 8;
  if (group == 0) return -kInf;
  float worst = -kInf;  // the largest group-minimum distance
  for (const float* g = dist; g < dist + k * group; g += group) {
    // Eight running minima, as the AVX2 lanes keep them; a NaN never wins.
    float lane[8] = {kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf};
    for (int64_t r = 0; r < group; r += 8) {
      for (int l = 0; l < 8; ++l) {
        lane[l] = g[r + l] < lane[l] ? g[r + l] : lane[l];
      }
    }
    float least = *std::min_element(lane, lane + 8);
    worst = least > worst ? least : worst;
  }
  return 1.0f - 0.5f * worst;
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  if (UseAvx2()) {
    avx2::Axpy(n, alpha, x, y);
    return;
  }
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(int64_t n, float alpha, float* x) {
  if (UseAvx2()) {
    avx2::Scale(n, alpha, x);
    return;
  }
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void AddScalar(int64_t n, float value, float* dst) {
  if (UseAvx2()) {
    avx2::AddScalar(n, value, dst);
    return;
  }
  for (int64_t i = 0; i < n; ++i) dst[i] += value;
}

double SumAll(int64_t n, const float* x) {
  if (UseAvx2()) return avx2::SumAll(n, x);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) total += x[i];
  return total;
}

double SumSquares(int64_t n, const float* x) {
  if (UseAvx2()) return avx2::SumSquares(n, x);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += static_cast<double>(x[i]) * x[i];
  }
  return total;
}

double Dot(int64_t n, const float* x, const float* y) {
  if (UseAvx2()) return avx2::Dot(n, x, y);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += static_cast<double>(x[i]) * y[i];
  }
  return total;
}

void NormalizeL2(int64_t n, float* x, float eps) {
  float inv =
      1.0f / static_cast<float>(std::sqrt(SumSquares(n, x)) + eps);
  Scale(n, inv, x);
}

BroadcastPlan MakeBroadcastPlan(int64_t rank, const int64_t* dims,
                                const int64_t* stride_a,
                                const int64_t* stride_b) {
  EDSR_CHECK(rank <= kMaxBroadcastDims)
      << "broadcast rank " << rank << " exceeds " << kMaxBroadcastDims;
  BroadcastPlan plan;
  plan.numel = 1;
  for (int64_t d = 0; d < rank; ++d) plan.numel *= dims[d];
  if (plan.numel == 0) return plan;
  // Innermost first: size-1 dims drop out, and a dim folds into the merged
  // block inside it when both inputs step over that block contiguously
  // (stride == block stride * block extent; a stretched input has 0 == 0).
  int64_t m = 0;
  int64_t md[kMaxBroadcastDims];
  int64_t ma[kMaxBroadcastDims];
  int64_t mb[kMaxBroadcastDims];
  for (int64_t d = rank - 1; d >= 0; --d) {
    if (dims[d] == 1) continue;
    EDSR_CHECK(stride_a[d] != 0 || stride_b[d] != 0)
        << "broadcast dim " << d << " stretches both inputs";
    if (m > 0 && stride_a[d] == ma[m - 1] * md[m - 1] &&
        stride_b[d] == mb[m - 1] * md[m - 1]) {
      md[m - 1] *= dims[d];
      continue;
    }
    md[m] = dims[d];
    ma[m] = stride_a[d];
    mb[m] = stride_b[d];
    ++m;
  }
  if (m == 0) {  // a single element
    md[0] = 1;
    ma[0] = 1;
    mb[0] = 1;
    m = 1;
  }
  plan.rank = m;
  for (int64_t i = 0; i < m; ++i) {
    plan.dims[m - 1 - i] = md[i];
    plan.stride_a[m - 1 - i] = ma[i];
    plan.stride_b[m - 1 - i] = mb[i];
  }
  return plan;
}

void StridedSum(const float* src, int64_t outer, int64_t dim, int64_t inner,
                float* dst) {
  if (inner == 1) {
    // Last-axis sum: one sequential float sum per row, in the order (and
    // with the rounding) of the length-1 Axpy calls below.
    for (int64_t o = 0; o < outer; ++o) {
      const float* row = src + o * dim;
      float acc = 0.0f;
      for (int64_t d = 0; d < dim; ++d) acc += row[d];
      dst[o] = acc;
    }
    return;
  }
  std::fill(dst, dst + outer * inner, 0.0f);
  // Row additions route through Axpy so they pick up the SIMD tier; on the
  // scalar tier Axpy is the exact loop this kernel always ran.
  for (int64_t o = 0; o < outer; ++o) {
    float* drow = dst + o * inner;
    for (int64_t d = 0; d < dim; ++d) {
      Axpy(inner, 1.0f, src + (o * dim + d) * inner, drow);
    }
  }
}

void StridedBroadcastAdd(const float* src, int64_t outer, int64_t dim,
                         int64_t inner, float* dst) {
  if (inner == 1) {
    for (int64_t o = 0; o < outer; ++o) {
      const float v = src[o];
      float* row = dst + o * dim;
      ForColumns(dim, [&]<typename T>(int64_t d, T) {
        Store(row + d, Load<T>(row + d) + v);
      });
    }
    return;
  }
  for (int64_t o = 0; o < outer; ++o) {
    const float* srow = src + o * inner;
    for (int64_t d = 0; d < dim; ++d) {
      Axpy(inner, 1.0f, srow, dst + (o * dim + d) * inner);
    }
  }
}

void ColMean(const float* rows, int64_t n, int64_t d, float* mean) {
  // The double accumulator comes from the scratch arena: this runs inside
  // training loops (BatchNorm-style stats, PCA centering) and must not
  // heap-allocate per call.
  arena::Scope scope;
  double* acc = arena::AllocDoubles(d);
  std::fill(acc, acc + d, 0.0);
  for (int64_t r = 0; r < n; ++r) {
    const float* row = rows + r * d;
    for (int64_t i = 0; i < d; ++i) acc[i] += row[i];
  }
  double inv = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (int64_t i = 0; i < d; ++i) {
    mean[i] = static_cast<float>(acc[i] * inv);
  }
}

void SubRowVector(const float* rows, int64_t n, int64_t d, const float* vec,
                  float* out) {
  for (int64_t r = 0; r < n; ++r) {
    const float* src = rows + r * d;
    float* dst = out + r * d;
    for (int64_t i = 0; i < d; ++i) dst[i] = src[i] - vec[i];
  }
}

void Transpose2d(const float* src, int64_t rows, int64_t cols, float* dst,
                 bool accumulate) {
  if (accumulate) {
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        dst[j * rows + i] += src[i * cols + j];
      }
    }
  } else {
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
}

void SgdMomentumStep(int64_t n, float lr, float momentum, float weight_decay,
                     const float* grad, float* velocity, float* data) {
  ForColumns(n, [&]<typename T>(int64_t i, T) {
    const T x = Load<T>(data + i);
    const T g = Load<T>(grad + i) + weight_decay * x;
    const T v = momentum * Load<T>(velocity + i) + g;
    Store(velocity + i, v);
    Store(data + i, x - lr * v);
  });
}

void AdamStep(int64_t n, float lr, float beta1, float beta2, float eps,
              float weight_decay, float bc1, float bc2, const float* grad,
              float* m, float* v, float* data) {
  ForColumns(n, [&]<typename T>(int64_t i, T) {
    const T x = Load<T>(data + i);
    const T g = Load<T>(grad + i) + weight_decay * x;
    const T mi = beta1 * Load<T>(m + i) + (1.0f - beta1) * g;
    const T vi = beta2 * Load<T>(v + i) + (1.0f - beta2) * g * g;
    Store(m + i, mi);
    Store(v + i, vi);
    const T mhat = mi / bc1;
    const T vhat = vi / bc2;
    Store(data + i, x - lr * mhat / (Sqrt(vhat) + eps));
  });
}

}  // namespace edsr::tensor::kernels
