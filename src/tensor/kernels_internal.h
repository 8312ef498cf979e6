// Shared internals of the blocked GEMM: the B packing routine and the
// cache-blocking loop nest, templated over the micro-tile geometry so the
// scalar TU (kernels.cc, 4x8 tile) and the AVX2 TU (kernels_avx2.cc, 6x16
// FMA tile) instantiate the same driver with different register tiles. Also
// declares the AVX2 entry points the dispatcher in kernels.cc forwards to.
//
// Operands are read where they lie (see DESIGN.md §4c): the micro-kernels
// read op(A) in place through its row and column strides, and op(B) in place
// through its row stride when B is not transposed and the NR-column panel is
// full. Only a transposed B and the last partial column panel are packed.
//
// Parallel decomposition: the depth (pc) and column (jc) loops stay
// sequential on the calling thread, which packs what B needs packed once per
// (pc, jc) block into its own arena; the row-block (ic) loop fans out over
// the threadpool, whose workers only read A and B. Row blocks write disjoint
// C rows and each element's accumulation order over pc is the sequential
// loop order at every thread count, so results are bit-identical for 1..N
// threads within a tier.
#ifndef EDSR_SRC_TENSOR_KERNELS_INTERNAL_H_
#define EDSR_SRC_TENSOR_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cstdint>

#include "src/tensor/arena.h"
#include "src/util/threadpool.h"

namespace edsr::tensor::kernels::internal {

// Packs op(B)(pc.., jc..) of size (kc x nc) into NR-column panels:
//   bp[panel * NR * kc + p * NR + jr] = op(B)(pc + p, jc + panel*NR + jr)
// Columns past nc are zero-filled.
template <int64_t NR>
void PackB(const float* b, int64_t rs, int64_t cs, int64_t kc, int64_t nc,
           float* bp) {
  for (int64_t panel = 0; panel < nc; panel += NR) {
    int64_t cols = std::min<int64_t>(NR, nc - panel);
    float* dst = bp + panel * kc;
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = b + p * rs + panel * cs;
      int64_t jr = 0;
      for (; jr < cols; ++jr) dst[p * NR + jr] = src[jr * cs];
      for (; jr < NR; ++jr) dst[p * NR + jr] = 0.0f;
    }
  }
}

// The blocked loop nest. Micro is callable as
//   micro(kc, a, a_rs, a_cs, b, ldb, mr_eff, nr_eff, c_tile, ldc)
// where op(A)(ir, p) = a[ir * a_rs + p * a_cs] for ir < mr_eff and
// op(B)(p, jr) = b[p * ldb + jr] for jr < NR. It must sum each output as
// one chain over p from +0 and add the chain to C; the dispatcher
// zero-fills C up front for the non-accumulate case. MC must be a multiple
// of MR, NC a multiple of NR.
template <int64_t MR, int64_t NR, int64_t MC, int64_t KC, int64_t NC,
          typename MicroT>
void GemmBlockedDriver(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n, bool trans_a, bool trans_b,
                       MicroT micro) {
  static_assert(MC % MR == 0 && NC % NR == 0);
  // Element strides of op(A) (m x k) and op(B) (k x n) over the stored
  // buffers.
  int64_t a_rs = trans_a ? 1 : k;
  int64_t a_cs = trans_a ? m : 1;
  int64_t b_rs = trans_b ? 1 : n;
  int64_t b_cs = trans_b ? k : 1;

  arena::Scope scope;
  float* bp = arena::AllocFloats(KC * (trans_b ? NC : NR));
  int64_t num_ic_blocks = (m + MC - 1) / MC;
  for (int64_t pc = 0; pc < k; pc += KC) {
    int64_t kc = std::min(KC, k - pc);
    for (int64_t jc = 0; jc < n; jc += NC) {
      int64_t nc = std::min(NC, n - jc);
      // Columns [0, nc_direct) of the block are read in place, the rest
      // come from the zero-padded pack.
      int64_t nc_direct = trans_b ? 0 : nc / NR * NR;
      if (nc_direct < nc) {
        PackB<NR>(b + pc * b_rs + (jc + nc_direct) * b_cs, b_rs, b_cs, kc,
                  nc - nc_direct, bp);
      }
      util::ParallelFor(0, num_ic_blocks, /*grain=*/1, [&](int64_t blk0,
                                                           int64_t blk1) {
        for (int64_t blk = blk0; blk < blk1; ++blk) {
          int64_t ic = blk * MC;
          int64_t mc = std::min(MC, m - ic);
          for (int64_t jp = 0; jp < nc; jp += NR) {
            int64_t nr_eff = std::min<int64_t>(NR, nc - jp);
            bool direct = jp < nc_direct;
            const float* bpanel =
                direct ? b + pc * n + jc + jp : bp + (jp - nc_direct) * kc;
            int64_t ldb = direct ? n : NR;
            for (int64_t ip = 0; ip < mc; ip += MR) {
              int64_t mr_eff = std::min<int64_t>(MR, mc - ip);
              micro(kc, a + (ic + ip) * a_rs + pc * a_cs, a_rs, a_cs, bpanel,
                    ldb, mr_eff, nr_eff, c + (ic + ip) * n + jc + jp, n);
            }
          }
        }
      });
    }
  }
}

}  // namespace edsr::tensor::kernels::internal

// AVX2/FMA implementations (kernels_avx2.cc). Every function is compiled
// with per-function target attributes — callers must check
// simd::ActiveTier() first; on non-x86 builds these are aborting stubs that
// the scalar-only dispatch never reaches.
namespace edsr::tensor::kernels::avx2 {

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b);
void Axpy(int64_t n, float alpha, const float* x, float* y);
void Scale(int64_t n, float alpha, float* x);
void AddScalar(int64_t n, float value, float* dst);
double SumAll(int64_t n, const float* x);
double SumSquares(int64_t n, const float* x);
double Dot(int64_t n, const float* x, const float* y);
// out[j] = max(0, ni + nb[j] - 2 * out[j]) for j in [0, m) — the combine
// loop of PairwiseSqDist.
void PairwiseCombine(int64_t m, float ni, const float* nb, float* out);
// The kNN scans of kernels.h, eight rows per step. Built for AVX2 without
// FMA, so the compiler cannot fuse 1 - 0.5 d into one rounding.
int64_t FirstCosineAbove(int64_t n, const float* dist, float threshold);
float KthCosineLowerBound(int64_t n, const float* dist, int64_t k);

}  // namespace edsr::tensor::kernels::avx2

#endif  // EDSR_SRC_TENSOR_KERNELS_INTERNAL_H_
