// AVX2/FMA micro-kernels. Every vector function carries a per-function
// target attribute instead of building the TU with -mavx2: nothing outside
// these bodies (notably inlined std:: templates, which the linker picks one
// copy of across TUs) may ever contain AVX2 instructions, so a scalar-tier
// run on a non-AVX2 CPU can safely link this file. Callers reach these only
// through the simd::ActiveTier() dispatch in kernels.cc.
#include "src/tensor/kernels_internal.h"

#include "src/util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EDSR_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define EDSR_HAVE_AVX2_KERNELS 0
#endif

namespace edsr::tensor::simd::internal {
bool Avx2KernelsCompiled() { return EDSR_HAVE_AVX2_KERNELS != 0; }
}  // namespace edsr::tensor::simd::internal

namespace edsr::tensor::kernels::avx2 {

#if EDSR_HAVE_AVX2_KERNELS

#define EDSR_AVX2 __attribute__((target("avx2,fma")))

namespace {

// AVX2 micro-tile: 6 rows x 16 columns = 12 accumulator YMM registers,
// plus one broadcast register and two B-panel loads — 15 of 16 YMM regs,
// the classic Haswell-era FMA tile. Cache blocks follow the scalar
// engine's: an A block (96 x 256 floats) is reused across the jp loop, a B
// panel (256 x 16 floats) across the ip loop. kKc is part of the results
// (one FMA chain per output per kKc-deep block).
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
constexpr int64_t kMc = 96;   // multiple of kMr
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 512;  // multiple of kNr

// C(mr_eff x nr_eff) += op(A) rows * op(B) panel over depth kc, each output
// summed as one FMA chain from +0. The 12 accumulators are named (not an
// array): GCC does not scalarize a runtime-indexed __m256 array, which
// would spill every FMA to the stack. Rows past mr_eff re-read the last
// live row and columns past nr_eff read the zero-padded pack; those lanes
// (finite, or NaN from 0 * inf) are never written back, matching the
// scalar tile.
EDSR_AVX2 void MicroKernel6x16(int64_t kc, const float* a, int64_t a_rs,
                               int64_t a_cs, const float* b, int64_t ldb,
                               int64_t mr_eff, int64_t nr_eff, float* c,
                               int64_t ldc) {
  const int64_t last = mr_eff - 1;
  const float* a0 = a;
  const float* a1 = a + (last < 1 ? last : 1) * a_rs;
  const float* a2 = a + (last < 2 ? last : 2) * a_rs;
  const float* a3 = a + (last < 3 ? last : 3) * a_rs;
  const float* a4 = a + (last < 4 ? last : 4) * a_rs;
  const float* a5 = a + (last < 5 ? last : 5) * a_rs;
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    const int64_t off = p * a_cs;
    __m256 av = _mm256_broadcast_ss(a0 + off);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a1 + off);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a2 + off);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a3 + off);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a4 + off);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a5 + off);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  alignas(32) float tmp[kMr * kNr];
  _mm256_store_ps(tmp + 0 * kNr, c00);
  _mm256_store_ps(tmp + 0 * kNr + 8, c01);
  _mm256_store_ps(tmp + 1 * kNr, c10);
  _mm256_store_ps(tmp + 1 * kNr + 8, c11);
  _mm256_store_ps(tmp + 2 * kNr, c20);
  _mm256_store_ps(tmp + 2 * kNr + 8, c21);
  _mm256_store_ps(tmp + 3 * kNr, c30);
  _mm256_store_ps(tmp + 3 * kNr + 8, c31);
  _mm256_store_ps(tmp + 4 * kNr, c40);
  _mm256_store_ps(tmp + 4 * kNr + 8, c41);
  _mm256_store_ps(tmp + 5 * kNr, c50);
  _mm256_store_ps(tmp + 5 * kNr + 8, c51);
  if (mr_eff == kMr && nr_eff == kNr) {
    for (int64_t ir = 0; ir < kMr; ++ir) {
      float* crow = c + ir * ldc;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow),
                                           _mm256_load_ps(tmp + ir * kNr)));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8),
                                     _mm256_load_ps(tmp + ir * kNr + 8)));
    }
  } else {
    for (int64_t ir = 0; ir < mr_eff; ++ir) {
      float* crow = c + ir * ldc;
      for (int64_t jr = 0; jr < nr_eff; ++jr) crow[jr] += tmp[ir * kNr + jr];
    }
  }
}

// Sums the four lanes of a double accumulator.
EDSR_AVX2 double HSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(lo) + _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b) {
  internal::GemmBlockedDriver<kMr, kNr, kMc, kKc, kNc>(
      a, b, c, m, k, n, trans_a, trans_b, MicroKernel6x16);
}

EDSR_AVX2 void Axpy(int64_t n, float alpha, const float* x, float* y) {
  __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

EDSR_AVX2 void Scale(int64_t n, float alpha, float* x) {
  __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

EDSR_AVX2 void AddScalar(int64_t n, float value, float* dst) {
  __m256 vv = _mm256_set1_ps(value);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vv, _mm256_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) dst[i] += value;
}

// The reductions keep the scalar contract of double accumulation: each
// 8-float chunk is widened to two 4-double vectors before accumulating, so
// only the association order differs from the scalar tier (4 partial sums
// per lane group), never the accumulator precision.
EDSR_AVX2 double SumAll(int64_t n, const float* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1,
                         _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double total = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += x[i];
  return total;
}

EDSR_AVX2 double SumSquares(int64_t n, const float* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double total = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += static_cast<double>(x[i]) * x[i];
  return total;
}

EDSR_AVX2 double Dot(int64_t n, const float* x, const float* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 xv = _mm256_loadu_ps(x + i);
    __m256 yv = _mm256_loadu_ps(y + i);
    acc0 = _mm256_fmadd_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
        _mm256_cvtps_pd(_mm256_castps256_ps128(yv)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1)),
                           acc1);
  }
  double total = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += static_cast<double>(x[i]) * y[i];
  return total;
}

EDSR_AVX2 void PairwiseCombine(int64_t m, float ni, const float* nb,
                               float* out) {
  __m256 niv = _mm256_set1_ps(ni);
  __m256 two = _mm256_set1_ps(2.0f);
  __m256 zero = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= m; j += 8) {
    __m256 v = _mm256_fnmadd_ps(two, _mm256_loadu_ps(out + j),
                                _mm256_add_ps(niv, _mm256_loadu_ps(nb + j)));
    _mm256_storeu_ps(out + j, _mm256_max_ps(zero, v));
  }
  for (; j < m; ++j) {
    float v = ni + nb[j] - 2.0f * out[j];
    out[j] = v > 0.0f ? v : 0.0f;
  }
}

// No "fma" in the target: the scan must compute 1 - 0.5 d with two
// roundings, exactly as the scalar tier does, and without the FMA ISA the
// compiler cannot contract the pair.
__attribute__((target("avx2"))) int64_t FirstCosineAbove(int64_t n,
                                                         const float* dist,
                                                         float threshold) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 limit = _mm256_set1_ps(threshold);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 sim =
        _mm256_sub_ps(one, _mm256_mul_ps(half, _mm256_loadu_ps(dist + j)));
    // Ordered compare: a NaN lane is never above.
    int mask = _mm256_movemask_ps(_mm256_cmp_ps(sim, limit, _CMP_GT_OQ));
    if (mask != 0) return j + __builtin_ctz(static_cast<unsigned>(mask));
  }
  for (; j < n; ++j) {
    if (1.0f - 0.5f * dist[j] > threshold) return j;
  }
  return n;
}

__attribute__((target("avx2"))) float KthCosineLowerBound(int64_t n,
                                                          const float* dist,
                                                          int64_t k) {
  const float inf = __builtin_inff();
  const int64_t blocks = n / (8 * k);  // eight-row blocks per group
  if (blocks == 0) return -inf;
  __m128 worst = _mm_set_ss(-inf);  // the largest group-minimum distance
  for (int64_t g = 0; g < k; ++g) {
    const float* p = dist + g * blocks * 8;
    __m256 least = _mm256_set1_ps(inf);
    // min_ps returns its second operand when either is NaN: a NaN never
    // wins.
    for (int64_t b = 0; b < blocks; ++b) {
      least = _mm256_min_ps(_mm256_loadu_ps(p + 8 * b), least);
    }
    __m128 h = _mm_min_ps(_mm256_castps256_ps128(least),
                          _mm256_extractf128_ps(least, 1));
    h = _mm_min_ps(h, _mm_movehl_ps(h, h));
    h = _mm_min_ss(h, _mm_shuffle_ps(h, h, 1));
    worst = _mm_max_ss(h, worst);
  }
  return 1.0f - 0.5f * _mm_cvtss_f32(worst);
}

#undef EDSR_AVX2

#else  // !EDSR_HAVE_AVX2_KERNELS

// Aborting stubs: on non-x86 builds SupportedTier() is kScalar, so the
// dispatcher can never reach these.
#define EDSR_AVX2_STUB() \
  EDSR_CHECK(false) << "AVX2 kernel called in a scalar-only build"

void Gemm(const float*, const float*, float*, int64_t, int64_t, int64_t,
          bool, bool) {
  EDSR_AVX2_STUB();
}
void Axpy(int64_t, float, const float*, float*) { EDSR_AVX2_STUB(); }
void Scale(int64_t, float, float*) { EDSR_AVX2_STUB(); }
void AddScalar(int64_t, float, float*) { EDSR_AVX2_STUB(); }
double SumAll(int64_t, const float*) {
  EDSR_AVX2_STUB();
  return 0.0;
}
double SumSquares(int64_t, const float*) {
  EDSR_AVX2_STUB();
  return 0.0;
}
double Dot(int64_t, const float*, const float*) {
  EDSR_AVX2_STUB();
  return 0.0;
}
void PairwiseCombine(int64_t, float, const float*, float*) {
  EDSR_AVX2_STUB();
}
int64_t FirstCosineAbove(int64_t, const float*, float) {
  EDSR_AVX2_STUB();
  return 0;
}
float KthCosineLowerBound(int64_t, const float*, int64_t) {
  EDSR_AVX2_STUB();
  return 0.0f;
}

#undef EDSR_AVX2_STUB

#endif  // EDSR_HAVE_AVX2_KERNELS

}  // namespace edsr::tensor::kernels::avx2
