// kernels: the raw float loops underneath the tensor engine.
//
// Every dense inner loop in the library — gemm, axpy, fused elementwise
// maps, strided row/col reductions, optimizer updates —
// lives here and nowhere else. ops.cc, optimizer.cc, linalg and eval call
// these entry points instead of hand-rolling loops, so blocking /
// vectorization / parallelization happens in one file.
//
// Conventions: row-major contiguous buffers, sizes in int64_t, reductions
// accumulate in double. Functions taking an `accumulate` flag add into the
// destination when true and overwrite when false.
//
// Where lanes apply: a loop whose iterations write different elements runs
// four of them at a time through ForColumns (below): Map, Map2,
// AccumulateUnaryGrad, BroadcastMap2, BroadcastAccumulateGrad into an input
// that walks the run, StridedBroadcastAdd along the last axis, both
// optimizer steps, the BatchNorm node (ops.cc) and the SimSiam view
// (src/augment). A loop that sums into one element stays one float wide in
// its order: a stretched input's gradient, StridedSum along the last axis,
// and every reduction here. Lanes round as the scalar operations do, so
// neither kind moves a bit.
#ifndef EDSR_SRC_TENSOR_KERNELS_H_
#define EDSR_SRC_TENSOR_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

namespace edsr::tensor::kernels {

// ---- GEMM and BLAS-1 -----------------------------------------------------
// C (m x n) = [+=] op(A) (m x k) * op(B) (k x n); trans_* applies the
// transpose logically (A is stored (k x m) when trans_a, etc).
// Cache-blocked: a branch-free register tile (no data-dependent skips:
// 0 * inf = nan propagates per IEEE) reads op(A) in place through its
// strides and an untransposed B in place through its row stride. Only a
// transposed B and the last partial column panel are packed, into scratch
// from the thread-local arena (arena.h); no heap allocation per call.
// Results: each output is one chain per 256-deep block of k, summed from +0
// (FMA on the AVX2 tier, multiply-then-add on the scalar tier) and then
// added to C, so they do not depend on the thread count.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);

// out (n x m): out[i*m+j] = ||a_i - b_j||^2 for row-major a (n x d) and
// b (m x d), computed as ||a||^2 + ||b||^2 - 2 A B^T with the cross terms
// via Gemm. Results are clamped at 0 to hide float cancellation; identical
// rows may yield a tiny positive value rather than an exact 0. Shared by
// kNN evaluation, k-means++ seeding, Lloyd assignment, and the EDSR
// noise-scale kNN.
void PairwiseSqDist(const float* a, int64_t n, const float* b, int64_t m,
                    int64_t d, float* out);
// PairwiseSqDist against a bank b (m x d) prepared once for many calls:
// b_t is b transposed (d x m), which the GEMM reads in place, and b_sq
// holds b's squared row norms from BankSqNorms. Same bits as
// PairwiseSqDist(a, n, b, m, d, out).
void PairwiseSqDistToBank(const float* a, int64_t n, const float* b_t,
                          const float* b_sq, int64_t m, int64_t d,
                          float* out);
// The squared row norms of a bank b (m x d) for PairwiseSqDistToBank, as
// PairwiseSqDist computes them (float(SumSquares(d, row))). Counted under
// kernels.pairwise.flops, where PairwiseSqDistToBank counts only the query
// side, so a prepared bank's norms are counted once.
void BankSqNorms(const float* b, int64_t m, int64_t d, float* out);

// ---- kNN scans (eval/knn.cc) ------------------------------------------
// For squared distances between unit vectors the cosine is 1 - 0.5 d. Both
// scans compute it as 1.0f - 0.5f * d with the product and the difference
// rounded separately (never one fused multiply-add), so both tiers return
// the same value.
//
// The first j in [0, n) whose cosine is strictly greater than `threshold`,
// or n when no row's is. A NaN distance never qualifies. The AVX2 tier
// tests eight rows per step.
int64_t FirstCosineAbove(int64_t n, const float* dist, float threshold);
// A lower bound on the k-th largest cosine over [0, n), k >= 1: the first
// k * 8v rows, v = n / (8k), form k groups of 8v rows, and each group's
// largest cosine is a different row's, so the smallest of the k is at most
// the k-th largest. NaN distances are skipped. Returns -inf when n < 8k,
// or when a group holds no comparable distance.
float KthCosineLowerBound(int64_t n, const float* dist, int64_t k);

// y += alpha * x.
void Axpy(int64_t n, float alpha, const float* x, float* y);
// x *= alpha.
void Scale(int64_t n, float alpha, float* x);
// dst[i] += value.
void AddScalar(int64_t n, float value, float* dst);

double SumAll(int64_t n, const float* x);
double SumSquares(int64_t n, const float* x);
double Dot(int64_t n, const float* x, const float* y);
// Scales x to unit L2 norm in place (adds eps inside the sqrt).
void NormalizeL2(int64_t n, float* x, float eps = 1e-12f);

// ---- Four lanes ------------------------------------------------------------
// Four adjacent floats in one baseline-ISA register (the GCC/Clang vector
// extension: SSE2 on x86-64, which has no FMA, so `a * b + c` still rounds
// twice). Each lane of +, -, *, /, a compare or Sqrt rounds exactly as the
// float operation does, so a loop over independent elements may take them
// four at a time without moving a bit. Functors passed to the loops below
// are generic (`auto` parameters): they run on F4 for the blocks and on
// float for the rest, and mix in float constants, which splat.
using F4 = float __attribute__((vector_size(16)));
using U4 = uint32_t __attribute__((vector_size(16)));

template <typename T>
inline T Load(const float* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
inline void Store(float* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

// x in every lane of T.
template <typename T>
inline T Splat(float x) {
  if constexpr (std::is_same_v<T, F4>) {
    return F4{x, x, x, x};
  } else {
    return x;
  }
}

inline float Sqrt(float v) { return std::sqrt(v); }
inline F4 Sqrt(F4 v) {
#if defined(__SSE__)
  return _mm_sqrt_ps(v);
#else
  return F4{std::sqrt(v[0]), std::sqrt(v[1]), std::sqrt(v[2]),
            std::sqrt(v[3])};
#endif
}

// Calls body(i, T{}) over [0, n): four at a time with T = F4, then the rest
// one at a time with T = float. No iteration may read an element that
// another iteration writes (in place, out == in, is fine).
template <typename Body>
inline void ForColumns(int64_t n, Body&& body) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) body(i, F4{});
  for (; i < n; ++i) body(i, 0.0f);
}

// ---- Fused elementwise (header templates so the functor inlines) ---------
// out[i] = f(x[i]).
template <typename F>
inline void Map(int64_t n, const float* x, float* out, F&& f) {
  ForColumns(n, [&]<typename T>(int64_t i, T) {
    Store(out + i, f(Load<T>(x + i)));
  });
}

// out[i] = f(a[i], b[i]).
template <typename F>
inline void Map2(int64_t n, const float* a, const float* b, float* out,
                 F&& f) {
  ForColumns(n, [&]<typename T>(int64_t i, T) {
    Store(out + i, f(Load<T>(a + i), Load<T>(b + i)));
  });
}

// gin[i] += gout[i] * df(in[i], out[i]) — unary-op backward.
template <typename F>
inline void AccumulateUnaryGrad(int64_t n, const float* gout, const float* in,
                                const float* out, float* gin, F&& df) {
  ForColumns(n, [&]<typename T>(int64_t i, T) {
    Store(gin + i, Load<T>(gin + i) +
                       Load<T>(gout + i) *
                           df(Load<T>(in + i), Load<T>(out + i)));
  });
}

// ---- Broadcast runs --------------------------------------------------------
// A broadcast binary op visits its output in row-major order as a sequence
// of contiguous runs. Building the plan drops size-1 output dims and merges
// adjacent dims that are congruent for both inputs, so the innermost (run)
// dim is as long as the shapes allow and each input walks it with stride 1,
// or stays on one element (stride 0: that input is stretched along the
// run). Identical shapes collapse to one run over the whole output; a row
// broadcast [n,d] with [d] is n runs of d; a column broadcast [n,d] with
// [n,1] is n runs of d with the column input fixed per run.
inline constexpr int64_t kMaxBroadcastDims = 8;

// Fixed-size value (no heap): merged output dims, outermost first, and each
// input's element stride per merged dim (0 where it is stretched).
struct BroadcastPlan {
  int64_t rank = 0;  // merged dims; 0 only when numel == 0
  int64_t dims[kMaxBroadcastDims] = {};
  int64_t stride_a[kMaxBroadcastDims] = {};
  int64_t stride_b[kMaxBroadcastDims] = {};
  int64_t numel = 0;
};

// Builds the plan for an output of `rank` dims (at most kMaxBroadcastDims,
// checked) given each input's row-major element stride per output dim, 0
// where the input is stretched. No output dim larger than 1 may stretch
// both inputs (broadcasting guarantees it; checked).
BroadcastPlan MakeBroadcastPlan(int64_t rank, const int64_t* dims,
                                const int64_t* stride_a,
                                const int64_t* stride_b);

// Calls run(o, ia, ib) once per run, in output order: the run covers output
// elements [o, o + dims[rank - 1]) and starts at a[ia] and b[ib], each
// advancing by its run stride stride_a/b[rank - 1] (0 or 1). The outer dims
// are walked by an odometer that costs one step per run, not per element.
template <typename Run>
inline void ForEachBroadcastRun(const BroadcastPlan& plan, Run&& run) {
  if (plan.numel == 0) return;
  const int64_t last = plan.rank - 1;
  int64_t idx[kMaxBroadcastDims] = {};
  int64_t ia = 0;
  int64_t ib = 0;
  for (int64_t o = 0; o < plan.numel; o += plan.dims[last]) {
    run(o, ia, ib);
    for (int64_t d = last - 1; d >= 0; --d) {
      ++idx[d];
      ia += plan.stride_a[d];
      ib += plan.stride_b[d];
      if (idx[d] < plan.dims[d]) break;
      idx[d] = 0;
      ia -= plan.stride_a[d] * plan.dims[d];
      ib -= plan.stride_b[d] * plan.dims[d];
    }
  }
}

namespace internal {
// Calls fn(sa, sb) with the plan's run strides as compile-time constants,
// so each run body below compiles to a loop with no stride arithmetic.
// Broadcasting never stretches both inputs along the same dim, so (0, 0)
// cannot occur.
template <typename Fn>
inline void WithRunStrides(const BroadcastPlan& plan, Fn&& fn) {
  using One = std::integral_constant<int64_t, 1>;
  using Zero = std::integral_constant<int64_t, 0>;
  const int64_t last = plan.rank - 1;
  if (plan.stride_b[last] == 0) {
    fn(One{}, Zero{});
  } else if (plan.stride_a[last] == 0) {
    fn(Zero{}, One{});
  } else {
    fn(One{}, One{});
  }
}

// Element k of a run starting at p with stride kStride (0 or 1), in every
// lane of T: a stretched input splats its one element.
template <typename T, int64_t kStride>
inline T LoadRun(const float* p, int64_t k) {
  if constexpr (kStride == 0) {
    return Splat<T>(*p);
  } else {
    return Load<T>(p + k);
  }
}
}  // namespace internal

// out[i] = f(a[ia(i)], b[ib(i)]) over the broadcast output.
template <typename F>
inline void BroadcastMap2(const BroadcastPlan& plan, const float* a,
                          const float* b, float* out, F&& f) {
  if (plan.numel == 0) return;
  const int64_t n = plan.dims[plan.rank - 1];
  internal::WithRunStrides(plan, [&](auto sa, auto sb) {
    ForEachBroadcastRun(plan, [&](int64_t o, int64_t ia, int64_t ib) {
      const float* ra = a + ia;
      const float* rb = b + ib;
      float* ro = out + o;
      ForColumns(n, [&]<typename T>(int64_t k, T) {
        Store(ro + k, f(internal::LoadRun<T, decltype(sa)::value>(ra, k),
                        internal::LoadRun<T, decltype(sb)::value>(rb, k)));
      });
    });
  });
}

// Binary-op backward for one input x (b when kWrtB, else a):
//   gx[ix(i)] += gout[i] * df(a[ia(i)], b[ib(i)])
// for every output element i, in output order, so each gx element sums its
// terms exactly as an element-by-element loop would: an input stretched
// along the run (column or scalar broadcast) accumulates the run
// sequentially into its one element, one float wide; an input that walks
// the run takes four elements at a time, and a row-broadcast input adds
// whole rows in row order.
template <bool kWrtB, typename F>
inline void BroadcastAccumulateGrad(const BroadcastPlan& plan,
                                    const float* gout, const float* a,
                                    const float* b, float* gx, F&& df) {
  if (plan.numel == 0) return;
  const int64_t n = plan.dims[plan.rank - 1];
  internal::WithRunStrides(plan, [&](auto sa, auto sb) {
    constexpr int64_t kStrideX =
        kWrtB ? decltype(sb)::value : decltype(sa)::value;
    ForEachBroadcastRun(plan, [&](int64_t o, int64_t ia, int64_t ib) {
      const float* go = gout + o;
      const float* ra = a + ia;
      const float* rb = b + ib;
      float* rx = gx + (kWrtB ? ib : ia);
      if constexpr (kStrideX == 0) {
        float acc = *rx;
        for (int64_t k = 0; k < n; ++k) {
          acc += go[k] * df(ra[k * sa], rb[k * sb]);
        }
        *rx = acc;
      } else {
        ForColumns(n, [&]<typename T>(int64_t k, T) {
          Store(rx + k,
                Load<T>(rx + k) +
                    Load<T>(go + k) *
                        df(internal::LoadRun<T, decltype(sa)::value>(ra, k),
                           internal::LoadRun<T, decltype(sb)::value>(rb, k)));
        });
      }
    });
  });
}

// ---- Strided reductions over an (outer, dim, inner) view -----------------
// dst (outer x inner) = sum over dim of src (outer x dim x inner).
void StridedSum(const float* src, int64_t outer, int64_t dim, int64_t inner,
                float* dst);
// dst (outer x dim x inner) += src (outer x inner) broadcast over dim.
void StridedBroadcastAdd(const float* src, int64_t outer, int64_t dim,
                         int64_t inner, float* dst);

// Column means of a row-major (n x d) matrix (double accumulation).
void ColMean(const float* rows, int64_t n, int64_t d, float* mean);
// out (n x d) = rows (n x d) - vec (d) broadcast over rows.
void SubRowVector(const float* rows, int64_t n, int64_t d, const float* vec,
                  float* out);

// ---- Layout --------------------------------------------------------------
// dst (cols x rows) = [+=] transpose of src (rows x cols).
void Transpose2d(const float* src, int64_t rows, int64_t cols, float* dst,
                 bool accumulate = false);

// ---- Fused optimizer updates --------------------------------------------
// SGD with momentum and decoupled-from-graph weight decay:
//   v = momentum * v + (g + wd * x); x -= lr * v.
void SgdMomentumStep(int64_t n, float lr, float momentum, float weight_decay,
                     const float* grad, float* velocity, float* data);
// Adam with bias-correction factors bc1/bc2 precomputed by the caller.
void AdamStep(int64_t n, float lr, float beta1, float beta2, float eps,
              float weight_decay, float bc1, float bc2, const float* grad,
              float* m, float* v, float* data);

}  // namespace edsr::tensor::kernels

#endif  // EDSR_SRC_TENSOR_KERNELS_H_
