#include "src/tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/tensor/arena.h"
#include "src/tensor/kernels.h"

namespace edsr::tensor {

namespace {

// Accumulation target for a parent tensor, or nullptr when the parent does
// not require grad.
float* GradBufferOrNull(const std::shared_ptr<TensorImpl>& impl) {
  if (!impl->requires_grad) return nullptr;
  impl->EnsureGrad();
  return impl->grad.data();
}

// Broadcast plan and output shape of a binary op over shapes `a` and `b`.
// Identical shapes are one contiguous run at any rank; otherwise the output
// rank is bounded by kernels::kMaxBroadcastDims and each input's row-major
// strides (0 where it is stretched) are merged into runs by
// kernels::MakeBroadcastPlan.
kernels::BroadcastPlan ComputeBroadcast(const Shape& a, const Shape& b,
                                        Shape* out_shape) {
  if (a == b) {
    *out_shape = a;
    const int64_t numel = NumElements(a);
    const int64_t one = 1;
    return kernels::MakeBroadcastPlan(1, &numel, &one, &one);
  }
  const int64_t nd = std::max(a.size(), b.size());
  EDSR_CHECK(nd <= kernels::kMaxBroadcastDims)
      << "broadcast rank " << nd << " exceeds " << kernels::kMaxBroadcastDims;
  out_shape->resize(nd);
  int64_t stride_a[kernels::kMaxBroadcastDims];
  int64_t stride_b[kernels::kMaxBroadcastDims];
  int64_t next_a = 1;
  int64_t next_b = 1;
  for (int64_t d = nd - 1; d >= 0; --d) {
    int64_t ad = d - (nd - static_cast<int64_t>(a.size()));
    int64_t bd = d - (nd - static_cast<int64_t>(b.size()));
    int64_t da = ad >= 0 ? a[ad] : 1;
    int64_t db = bd >= 0 ? b[bd] : 1;
    EDSR_CHECK(da == db || da == 1 || db == 1)
        << "cannot broadcast " << ShapeToString(a) << " with "
        << ShapeToString(b);
    (*out_shape)[d] = da == 1 ? db : da;  // not max: 0 against 1 is 0
    stride_a[d] = da == 1 ? 0 : next_a;
    stride_b[d] = db == 1 ? 0 : next_b;
    next_a *= da;
    next_b *= db;
  }
  return kernels::MakeBroadcastPlan(nd, out_shape->data(), stride_a,
                                    stride_b);
}

// Generic broadcasting binary op. `fwd(av, bv)` computes the output value;
// `dfda` / `dfdb` give partial derivatives as functions of the two input
// values (sufficient for arithmetic ops). Forward and backward both walk
// the plan's contiguous runs; same-shape inputs are a single run.
template <typename Fwd, typename Dfda, typename Dfdb>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fwd fwd, Dfda dfda,
                Dfdb dfdb) {
  Shape out_shape;
  const kernels::BroadcastPlan plan =
      ComputeBroadcast(a.shape(), b.shape(), &out_shape);
  std::vector<float> out = arena::AcquireVector(plan.numel);
  kernels::BroadcastMap2(plan, a.data().data(), b.data().data(), out.data(),
                         fwd);
  Tensor a_copy = a;
  Tensor b_copy = b;
  return MakeOp(
      std::move(out), out_shape, {a, b},
      [a_copy, b_copy, plan, dfda, dfdb](TensorImpl& self) {
        const float* pa = a_copy.data().data();
        const float* pb = b_copy.data().data();
        const float* go = self.grad.data();
        if (float* ga = GradBufferOrNull(a_copy.impl_ptr())) {
          kernels::BroadcastAccumulateGrad</*kWrtB=*/false>(plan, go, pa, pb,
                                                            ga, dfda);
        }
        if (float* gb = GradBufferOrNull(b_copy.impl_ptr())) {
          kernels::BroadcastAccumulateGrad</*kWrtB=*/true>(plan, go, pa, pb,
                                                           gb, dfdb);
        }
      });
}

// Generic elementwise unary op; `dfdv(v, outv)` may use either the input or
// the output value (whichever is cheaper).
template <typename Fwd, typename Dfdv>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Dfdv dfdv) {
  std::vector<float> out = arena::AcquireVector(a.numel());
  kernels::Map(a.numel(), a.data().data(), out.data(), fwd);
  Tensor a_copy = a;
  Tensor result = MakeOp(std::move(out), a.shape(), {a},
                         [a_copy, dfdv](TensorImpl& self) {
                           float* ga = GradBufferOrNull(a_copy.impl_ptr());
                           if (ga == nullptr) return;
                           kernels::AccumulateUnaryGrad(
                               self.numel(), self.grad.data(),
                               a_copy.data().data(), self.data().data(), ga,
                               dfdv);
                         });
  return result;
}

}  // namespace

// ---- Binary --------------------------------------------------------------

// The functors are generic: the kernels call them on single floats and on
// four-lane blocks (kernels::F4), with the same rounding per lane.
Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](auto x, auto y) { return x + y; },
      [](auto, auto) { return 1.0f; }, [](auto, auto) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](auto x, auto y) { return x - y; },
      [](auto, auto) { return 1.0f; }, [](auto, auto) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](auto x, auto y) { return x * y; },
      [](auto, auto y) { return y; }, [](auto x, auto) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](auto x, auto y) { return x / y; },
      [](auto, auto y) { return 1.0f / y; },
      [](auto x, auto y) { return -x / (y * y); });
}

// ---- Unary -----------------------------------------------------------------

namespace {
// All ones when v > 0, else zero (NaN and -0 included), per lane. ReLU and
// its slope are this mask ANDed onto bits, so the comparison compiles to a
// setcc (one float) or a lane compare (four) and never to a jump:
// random-sign activations cost no mispredicts. A `static_cast<float>(v > 0)`
// slope would not do: GCC folds `g * slope` back into a branch around the
// multiply.
uint32_t ReluMask(float v) { return 0u - static_cast<uint32_t>(v > 0.0f); }
kernels::U4 ReluMask(kernels::F4 v) {
  return std::bit_cast<kernels::U4>(v > 0.0f);
}

// `keep` where v > 0, else +0, lane by lane.
template <typename T>
T WherePositive(T v, T keep) {
  using Mask = decltype(ReluMask(v));
  return std::bit_cast<T>(std::bit_cast<Mask>(keep) & ReluMask(v));
}
}  // namespace

// Values match `v > 0 ? v : 0` to the bit: NaN, -0 and negatives give +0.
// The slope is exactly 1.0f or 0.0f and still multiplies the upstream
// gradient, so a NaN or inf gradient on a masked element stays NaN
// (inf * 0), as an unmasked multiply would give.
Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](auto v) { return WherePositive(v, v); },
      [](auto v, auto) {
        return WherePositive(v, kernels::Splat<decltype(v)>(1.0f));
      });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, [](auto v) { return kernels::Sqrt(v); },
      [](auto, auto o) { return 0.5f / (o + 1e-12f); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](auto v) { return v * v; },
      [](auto v, auto) { return 2.0f * v; });
}

// ---- Linear algebra ---------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  EDSR_CHECK_EQ(a.dim(), 2) << "MatMul expects 2-D lhs";
  EDSR_CHECK_EQ(b.dim(), 2) << "MatMul expects 2-D rhs";
  int64_t m = a.shape()[0];
  int64_t k = a.shape()[1];
  int64_t n = b.shape()[1];
  EDSR_CHECK_EQ(k, b.shape()[0])
      << "MatMul inner dims: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  std::vector<float> out = arena::AcquireVector(m * n);
  kernels::Gemm(a.data().data(), b.data().data(), out.data(), m, k, n, false,
                false, false);
  Tensor a_copy = a;
  Tensor b_copy = b;
  return MakeOp(std::move(out), {m, n}, {a, b},
                [a_copy, b_copy, m, k, n](TensorImpl& self) {
                  const float* go = self.grad.data();
                  if (float* ga = GradBufferOrNull(a_copy.impl_ptr())) {
                    // dA (m x k) += dOut (m x n) * B^T (n x k)
                    kernels::Gemm(go, b_copy.data().data(), ga, m, n, k,
                                  false, true, true);
                  }
                  if (float* gb = GradBufferOrNull(b_copy.impl_ptr())) {
                    // dB (k x n) += A^T (k x m) * dOut (m x n)
                    kernels::Gemm(a_copy.data().data(), go, gb, k, m, n, true,
                                  false, true);
                  }
                });
}

Tensor Transpose(const Tensor& a) {
  EDSR_CHECK_EQ(a.dim(), 2) << "Transpose expects 2-D input";
  int64_t r = a.shape()[0];
  int64_t c = a.shape()[1];
  std::vector<float> out = arena::AcquireVector(a.numel());
  kernels::Transpose2d(a.data().data(), r, c, out.data());
  Tensor a_copy = a;
  return MakeOp(std::move(out), {c, r}, {a}, [a_copy, r, c](TensorImpl& self) {
    float* ga = GradBufferOrNull(a_copy.impl_ptr());
    if (ga == nullptr) return;
    // dA (r x c) += transpose of dOut (c x r).
    kernels::Transpose2d(self.grad.data(), c, r, ga, /*accumulate=*/true);
  });
}

// ---- Reductions ------------------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  double total = kernels::SumAll(a.numel(), a.data().data());
  Tensor a_copy = a;
  return MakeOp({static_cast<float>(total)}, {1}, {a},
                [a_copy](TensorImpl& self) {
                  float* ga = GradBufferOrNull(a_copy.impl_ptr());
                  if (ga == nullptr) return;
                  kernels::AddScalar(a_copy.numel(), self.grad[0], ga);
                });
}

Tensor MeanAll(const Tensor& a) {
  EDSR_CHECK_GT(a.numel(), 0);
  return SumAll(a) * (1.0f / static_cast<float>(a.numel()));
}

namespace {
struct AxisGeometry {
  int64_t outer = 1;
  int64_t dim = 1;
  int64_t inner = 1;
};

AxisGeometry ResolveAxis(const Tensor& a, int64_t* axis) {
  int64_t nd = a.dim();
  if (*axis < 0) *axis += nd;
  EDSR_CHECK(*axis >= 0 && *axis < nd)
      << "axis out of range for " << ShapeToString(a.shape());
  AxisGeometry g;
  for (int64_t d = 0; d < *axis; ++d) g.outer *= a.shape()[d];
  g.dim = a.shape()[*axis];
  for (int64_t d = *axis + 1; d < nd; ++d) g.inner *= a.shape()[d];
  return g;
}

Shape ReducedShape(const Tensor& a, int64_t axis, bool keepdims) {
  Shape s = a.shape();
  if (keepdims) {
    s[axis] = 1;
  } else {
    s.erase(s.begin() + axis);
    if (s.empty()) s.push_back(1);
  }
  return s;
}
}  // namespace

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  AxisGeometry g = ResolveAxis(a, &axis);
  std::vector<float> out = arena::AcquireVector(g.outer * g.inner);
  kernels::StridedSum(a.data().data(), g.outer, g.dim, g.inner, out.data());
  Tensor a_copy = a;
  return MakeOp(std::move(out), ReducedShape(a, axis, keepdims), {a},
                [a_copy, g](TensorImpl& self) {
                  float* ga = GradBufferOrNull(a_copy.impl_ptr());
                  if (ga == nullptr) return;
                  kernels::StridedBroadcastAdd(self.grad.data(), g.outer,
                                               g.dim, g.inner, ga);
                });
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  int64_t resolved = axis < 0 ? axis + a.dim() : axis;
  EDSR_CHECK(resolved >= 0 && resolved < a.dim());
  int64_t n = a.shape()[resolved];
  EDSR_CHECK_GT(n, 0);
  return Sum(a, axis, keepdims) * (1.0f / static_cast<float>(n));
}

// ---- Normalization -----------------------------------------------------------------

namespace {

using kernels::ForColumns;
using kernels::Load;
using kernels::Store;

// Column mean and biased variance of x (n x f), rounded as
// Mean(x, 0, true) and Mean(Square(x - mean), 0, true) round them: each sum
// runs in row order from +0 (StridedSum) and is then scaled by the float
// 1/n.
void BatchStats(const float* x, int64_t n, int64_t f, float inv_n,
                float* mean, float* var) {
  std::fill(mean, mean + f, 0.0f);
  std::fill(var, var + f, 0.0f);
  for (int64_t r = 0; r < n; ++r) {
    const float* row = x + r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      Store(mean + j, Load<T>(mean + j) + Load<T>(row + j));
    });
  }
  for (int64_t j = 0; j < f; ++j) mean[j] *= inv_n;
  for (int64_t r = 0; r < n; ++r) {
    const float* row = x + r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      const T d = Load<T>(row + j) - Load<T>(mean + j);
      Store(var + j, Load<T>(var + j) + d * d);
    });
  }
  for (int64_t j = 0; j < f; ++j) var[j] *= inv_n;
}

// The node behind BatchNormTrain / BatchNormEval. It replays, float
// operation for float operation, the composite
//   y = (x - mean) / Sqrt(var + eps) * gamma + beta
// where, with batch statistics, mean = Mean(x, 0, true) and
// var = Mean(Square(x - mean), 0, true) are part of the graph, and
// otherwise are constants. Forward values are computed in the composite's
// order; the backward replays the composite's nodes in the order
// Tensor::Backward ran them (reverse topological: Add(beta), Mul(gamma),
// Div, Sqrt, Add(eps), Mul(1/n), Sum, Square, the variance-branch Sub, the
// normalise-branch Sub, Mul(1/n), Sum). Every interior gradient is
// `0 + go * df` (the composite's zero-initialised buffers: a -0 becomes +0),
// and the gamma, beta, sd and mean gradients sum row by row, so each
// gradient element adds its terms in the composite's order. Gradients into
// x, gamma and beta accumulate onto whatever their buffers hold, as the
// composite's did; no other node ran between the composite's first and
// last node, so folding them into one changes no order. Baseline-ISA code
// only: an FMA would round `a * b + c` once where the composite rounds
// twice.
Tensor BatchNormNode(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     const float* mean, const float* var, float eps,
                     bool batch_stats) {
  const int64_t n = x.shape()[0];
  const int64_t f = x.shape()[1];
  const float inv_n = batch_stats ? 1.0f / static_cast<float>(n) : 0.0f;
  const bool record = GradMode::IsEnabled() &&
                      (x.requires_grad() || gamma.requires_grad() ||
                       beta.requires_grad());
  // What the backward reads: sd (f) | xhat (n x f) | x - mean (n x f; read
  // with batch statistics only). Without a graph it is scratch.
  const int64_t saved_size = f + 2 * n * f;
  arena::Scope scope;
  StoragePtr saved;
  float* sd = nullptr;
  if (record) {
    saved = MakeStorage(arena::AcquireVector(saved_size));
    sd = saved->data();
  } else {
    sd = arena::AllocFloats(saved_size);
  }
  float* xhat = sd + f;
  float* centered = xhat + n * f;

  for (int64_t j = 0; j < f; ++j) sd[j] = std::sqrt(var[j] + eps);
  std::vector<float> out = arena::AcquireVector(n * f);
  const float* px = x.data().data();
  const float* g = gamma.data().data();
  const float* b = beta.data().data();
  for (int64_t r = 0; r < n; ++r) {
    const int64_t o = r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      const T d = Load<T>(px + o + j) - Load<T>(mean + j);
      const T v = d / Load<T>(sd + j);
      Store(centered + o + j, d);
      Store(xhat + o + j, v);
      Store(out.data() + o + j, v * Load<T>(g + j) + Load<T>(b + j));
    });
  }

  Tensor x_copy = x;
  Tensor gamma_copy = gamma;
  Tensor beta_copy = beta;
  return MakeOp(
      std::move(out), {n, f}, {x, gamma, beta},
      [x_copy, gamma_copy, beta_copy, saved, n, f, inv_n,
       batch_stats](TensorImpl& self) {
        const float* go = self.grad.data();
        const float* sd = saved->data();
        const float* xhat = sd + f;
        const float* centered = xhat + n * f;
        // Add(beta): beta += go, row by row.
        if (float* gb = GradBufferOrNull(beta_copy.impl_ptr())) {
          for (int64_t r = 0; r < n; ++r) {
            const int64_t o = r * f;
            ForColumns(f, [&]<typename T>(int64_t j, T) {
              Store(gb + j, Load<T>(gb + j) + Load<T>(go + o + j));
            });
          }
        }
        // Mul(gamma), gamma side: gamma += (0 + go) * xhat, row by row.
        if (float* gg = GradBufferOrNull(gamma_copy.impl_ptr())) {
          for (int64_t r = 0; r < n; ++r) {
            const int64_t o = r * f;
            ForColumns(f, [&]<typename T>(int64_t j, T) {
              Store(gg + j, Load<T>(gg + j) + (0.0f + Load<T>(go + o + j)) *
                                                  Load<T>(xhat + o + j));
            });
          }
        }
        float* gx = GradBufferOrNull(x_copy.impl_ptr());
        if (gx == nullptr) return;
        // Read now, as the composite's Mul backward read gamma.
        const float* g = gamma_copy.data().data();
        arena::Scope scope;
        float* rsd = arena::AllocFloats(f);  // Div's 1 / sd
        for (int64_t j = 0; j < f; ++j) rsd[j] = 1.0f / sd[j];
        if (!batch_stats) {
          // Mul(gamma), x side; Div; Sub(x, mean): x += 0 + gv / sd.
          for (int64_t r = 0; r < n; ++r) {
            const int64_t o = r * f;
            ForColumns(f, [&]<typename T>(int64_t j, T) {
              const T gv = 0.0f + (0.0f + Load<T>(go + o + j)) * Load<T>(g + j);
              Store(gx + o + j,
                    Load<T>(gx + o + j) + (0.0f + gv * Load<T>(rsd + j)));
            });
          }
          return;
        }
        float* sd2 = arena::AllocFloats(f);        // Div's sd * sd
        float* gsd = arena::AllocFloats(f);        // sd's gradient
        float* gmean = arena::AllocFloats(f);      // mean's gradient
        float* gnorm = arena::AllocFloats(n * f);  // normalise-branch Sub's
        for (int64_t j = 0; j < f; ++j) {
          sd2[j] = sd[j] * sd[j];
          gsd[j] = 0.0f;
          gmean[j] = 0.0f;
        }
        // Mul(gamma), x side; Div, into both of its inputs.
        for (int64_t r = 0; r < n; ++r) {
          const int64_t o = r * f;
          ForColumns(f, [&]<typename T>(int64_t j, T) {
            const T gv = 0.0f + (0.0f + Load<T>(go + o + j)) * Load<T>(g + j);
            Store(gnorm + o + j, 0.0f + gv * Load<T>(rsd + j));
            Store(gsd + j, Load<T>(gsd + j) + gv * (-Load<T>(centered + o + j) /
                                                    Load<T>(sd2 + j)));
          });
        }
        // Sqrt, Add(eps), Mul(1/n), Sum: one value per column; the Sum's
        // backward spreads it over the rows of the squared deviations.
        float* gsq = gsd;
        for (int64_t j = 0; j < f; ++j) {
          const float gvar = 0.0f + gsd[j] * (0.5f / (sd[j] + 1e-12f));
          gsq[j] = 0.0f + (0.0f + (0.0f + gvar) * inv_n);
        }
        // Square, then the variance-branch Sub; x also takes the
        // normalise-branch Sub's term, which came next in the composite.
        for (int64_t r = 0; r < n; ++r) {
          const int64_t o = r * f;
          ForColumns(f, [&]<typename T>(int64_t j, T) {
            const T gdev =
                0.0f + Load<T>(gsq + j) * (2.0f * Load<T>(centered + o + j));
            Store(gmean + j, Load<T>(gmean + j) + gdev * -1.0f);
            Store(gx + o + j,
                  (Load<T>(gx + o + j) + gdev) + Load<T>(gnorm + o + j));
          });
        }
        // The normalise-branch Sub, mean side.
        for (int64_t r = 0; r < n; ++r) {
          const int64_t o = r * f;
          ForColumns(f, [&]<typename T>(int64_t j, T) {
            Store(gmean + j,
                  Load<T>(gmean + j) + Load<T>(gnorm + o + j) * -1.0f);
          });
        }
        // Mul(1/n), then the Sum's backward: every row takes the column's
        // gradient.
        for (int64_t j = 0; j < f; ++j) gmean[j] = 0.0f + gmean[j] * inv_n;
        for (int64_t r = 0; r < n; ++r) {
          const int64_t o = r * f;
          ForColumns(f, [&]<typename T>(int64_t j, T) {
            Store(gx + o + j, Load<T>(gx + o + j) + Load<T>(gmean + j));
          });
        }
      });
}

void CheckBatchNormShapes(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta) {
  EDSR_CHECK_EQ(x.dim(), 2) << "BatchNorm expects (n, d) input";
  const int64_t f = x.shape()[1];
  EDSR_CHECK_EQ(gamma.numel(), f);
  EDSR_CHECK_EQ(beta.numel(), f);
}

}  // namespace

Tensor BatchNormTrain(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps, float* batch_mean, float* batch_var) {
  CheckBatchNormShapes(x, gamma, beta);
  const int64_t n = x.shape()[0];
  EDSR_CHECK_GT(n, 0) << "BatchNorm batch statistics need a non-empty batch";
  BatchStats(x.data().data(), n, x.shape()[1], 1.0f / static_cast<float>(n),
             batch_mean, batch_var);
  return BatchNormNode(x, gamma, beta, batch_mean, batch_var, eps,
                       /*batch_stats=*/true);
}

Tensor BatchNormEval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     const Tensor& mean, const Tensor& var, float eps) {
  CheckBatchNormShapes(x, gamma, beta);
  EDSR_CHECK_EQ(mean.numel(), x.shape()[1]);
  EDSR_CHECK_EQ(var.numel(), x.shape()[1]);
  return BatchNormNode(x, gamma, beta, mean.data().data(), var.data().data(),
                       eps, /*batch_stats=*/false);
}

// ---- Composites --------------------------------------------------------------------

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  EDSR_CHECK_EQ(a.dim(), 2) << "L2NormalizeRows expects 2-D input";
  Tensor norm = Sqrt(Sum(Square(a), /*axis=*/1, /*keepdims=*/true) + eps);
  return a / norm;
}

Tensor CosineSimilarityRows(const Tensor& a, const Tensor& b, float eps) {
  EDSR_CHECK(a.shape() == b.shape())
      << "CosineSimilarityRows shape mismatch: " << ShapeToString(a.shape())
      << " vs " << ShapeToString(b.shape());
  Tensor an = L2NormalizeRows(a, eps);
  Tensor bn = L2NormalizeRows(b, eps);
  return Sum(an * bn, /*axis=*/1, /*keepdims=*/true);
}

}  // namespace edsr::tensor
