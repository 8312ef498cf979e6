#include "src/tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

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

// ---- Fused layers ------------------------------------------------------------------

namespace {

using kernels::ForColumns;
using kernels::Load;
using kernels::Splat;
using kernels::Store;

// Calls fn(std::true_type{}) or fn(std::false_type{}), so that a flag tested
// inside a column loop is a constant there.
template <typename Fn>
void WithFlag(bool flag, Fn&& fn) {
  if (flag) {
    fn(std::true_type{});
  } else {
    fn(std::false_type{});
  }
}

// Column mean and biased variance of y (n x f), rounded as
// Mean(y, 0, true) and Mean(Square(y - mean), 0, true) round them: each sum
// runs in row order from +0 (StridedSum) and is then scaled by the float
// 1/n. First y = src + bias (kBias) or src, written row by row as the mean
// adds it.
template <bool kBias>
void BatchStats(const float* src, const float* bias, int64_t n, int64_t f,
                float inv_n, float* y, float* mean, float* var) {
  std::fill(mean, mean + f, 0.0f);
  std::fill(var, var + f, 0.0f);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t o = r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      T v = Load<T>(src + o + j);
      if constexpr (kBias) v = v + Load<T>(bias + j);
      Store(y + o + j, v);
      Store(mean + j, Load<T>(mean + j) + v);
    });
  }
  for (int64_t j = 0; j < f; ++j) mean[j] *= inv_n;
  for (int64_t r = 0; r < n; ++r) {
    const float* row = y + r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      const T d = Load<T>(row + j) - Load<T>(mean + j);
      Store(var + j, Load<T>(var + j) + d * d);
    });
  }
  for (int64_t j = 0; j < f; ++j) var[j] *= inv_n;
}

// Backward of y = (h - mean) / sd * gamma + beta from its gradient go,
// replaying the composite's nodes in the order Tensor::Backward ran them
// (reverse topological: Add(beta), Mul(gamma), Div, Sqrt, Add(eps),
// Mul(1/n), Sum, Square, the variance-branch Sub, the normalise-branch Sub,
// Mul(1/n), Sum; with statistics given, Add(beta), Mul(gamma), Div, Sub).
// Every interior gradient is `0 + go * df` (the composite's
// zero-initialised buffers: a -0 becomes +0), and the gamma, beta, sd and
// mean gradients sum row by row, so each gradient element adds its terms in
// the composite's order. gbeta, ggamma and gh (any may be null) accumulate
// onto whatever they hold. centered is h - mean, and xhat = centered / sd
// is recomputed: the forward's division, so the same bits.
void BatchNormBackward(const float* go, const float* sd, const float* centered,
                       const float* gamma, int64_t n, int64_t f, float inv_n,
                       bool batch_stats, float* gbeta, float* ggamma,
                       float* gh) {
  // Add(beta): beta += go, row by row.
  if (gbeta != nullptr) {
    for (int64_t r = 0; r < n; ++r) {
      const int64_t o = r * f;
      ForColumns(f, [&]<typename T>(int64_t j, T) {
        Store(gbeta + j, Load<T>(gbeta + j) + Load<T>(go + o + j));
      });
    }
  }
  // Mul(gamma), gamma side: gamma += (0 + go) * xhat, row by row.
  if (ggamma != nullptr) {
    for (int64_t r = 0; r < n; ++r) {
      const int64_t o = r * f;
      ForColumns(f, [&]<typename T>(int64_t j, T) {
        const T xhat = Load<T>(centered + o + j) / Load<T>(sd + j);
        Store(ggamma + j,
              Load<T>(ggamma + j) + (0.0f + Load<T>(go + o + j)) * xhat);
      });
    }
  }
  if (gh == nullptr) return;
  arena::Scope scope;
  float* rsd = arena::AllocFloats(f);  // Div's 1 / sd
  for (int64_t j = 0; j < f; ++j) rsd[j] = 1.0f / sd[j];
  if (!batch_stats) {
    // Mul(gamma), h side; Div; Sub(h, mean): h += 0 + gv / sd.
    for (int64_t r = 0; r < n; ++r) {
      const int64_t o = r * f;
      ForColumns(f, [&]<typename T>(int64_t j, T) {
        const T gv = 0.0f + (0.0f + Load<T>(go + o + j)) * Load<T>(gamma + j);
        Store(gh + o + j,
              Load<T>(gh + o + j) + (0.0f + gv * Load<T>(rsd + j)));
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
  // Mul(gamma), h side; Div, into both of its inputs.
  for (int64_t r = 0; r < n; ++r) {
    const int64_t o = r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      const T gv = 0.0f + (0.0f + Load<T>(go + o + j)) * Load<T>(gamma + j);
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
  // Square, then the variance-branch Sub; h also takes the
  // normalise-branch Sub's term, which came next in the composite.
  for (int64_t r = 0; r < n; ++r) {
    const int64_t o = r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      const T gdev =
          0.0f + Load<T>(gsq + j) * (2.0f * Load<T>(centered + o + j));
      Store(gmean + j, Load<T>(gmean + j) + gdev * -1.0f);
      Store(gh + o + j,
            (Load<T>(gh + o + j) + gdev) + Load<T>(gnorm + o + j));
    });
  }
  // The normalise-branch Sub, mean side.
  for (int64_t r = 0; r < n; ++r) {
    const int64_t o = r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      Store(gmean + j, Load<T>(gmean + j) + Load<T>(gnorm + o + j) * -1.0f);
    });
  }
  // Mul(1/n), then the Sum's backward: every row takes the column's
  // gradient.
  for (int64_t j = 0; j < f; ++j) gmean[j] = 0.0f + gmean[j] * inv_n;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t o = r * f;
    ForColumns(f, [&]<typename T>(int64_t j, T) {
      Store(gh + o + j, Load<T>(gh + o + j) + Load<T>(gmean + j));
    });
  }
}

}  // namespace

// The node replays, float operation for float operation, the composite
//   MatMul(x, weight) + bias -> BatchNorm -> Relu
// whose interior values each have exactly one consumer: no other node
// could run between the composite's nodes in Tensor::Backward, so the one
// node runs where the chain ran, and its parents (x, weight, bias, gamma,
// beta) are visited in the composite's depth-first order. Forward: the
// unchanged Gemm into the output, then one four-lane epilogue per pass
// (bias, batch statistics, normalization, ReLU mask) in the composite's
// rounding order. Backward: the ReLU slope, the BatchNorm replay, the bias
// sum and the two Gemm calls of MatMul's backward, each interior gradient
// rounded as `0 + go * df` like the composite's zero-initialised buffers;
// gradients reach x, weight, bias, gamma and beta as the composite's did,
// onto whatever their buffers hold. Baseline-ISA code only: an FMA would
// round `a * b + c` once where the composite rounds twice.
Tensor FusedLayer(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  const BatchNormArgs* bn, bool relu) {
  EDSR_CHECK_EQ(x.dim(), 2) << "FusedLayer expects (n, k) input";
  const bool linear = weight.defined();
  EDSR_CHECK(linear == bias.defined()) << "FusedLayer: weight without bias";
  EDSR_CHECK(linear || bn != nullptr) << "FusedLayer: nothing to apply";
  const int64_t n = x.shape()[0];
  const int64_t k = x.shape()[1];
  int64_t f = k;
  std::vector<Tensor> parents = {x};
  if (linear) {
    EDSR_CHECK_EQ(weight.dim(), 2);
    EDSR_CHECK_EQ(weight.shape()[0], k)
        << "FusedLayer inner dims: " << ShapeToString(x.shape()) << " x "
        << ShapeToString(weight.shape());
    f = weight.shape()[1];
    EDSR_CHECK_EQ(bias.numel(), f);
    parents.push_back(weight);
    parents.push_back(bias);
  }
  const bool batch_stats = bn != nullptr && bn->batch_mean != nullptr;
  if (bn != nullptr) {
    EDSR_CHECK_EQ(bn->gamma.numel(), f);
    EDSR_CHECK_EQ(bn->beta.numel(), f);
    if (batch_stats) {
      EDSR_CHECK(bn->batch_var != nullptr);
      EDSR_CHECK_GT(n, 0)
          << "BatchNorm batch statistics need a non-empty batch";
    } else {
      EDSR_CHECK_EQ(bn->mean.numel(), f);
      EDSR_CHECK_EQ(bn->var.numel(), f);
    }
    parents.push_back(bn->gamma);
    parents.push_back(bn->beta);
  }
  bool record = false;
  if (GradMode::IsEnabled()) {
    for (const Tensor& p : parents) record = record || p.requires_grad();
  }

  std::vector<float> out = arena::AcquireVector(n * f);
  float* y = out.data();
  const float* src = x.data().data();
  const float* b = linear ? bias.data().data() : nullptr;
  if (linear) {
    kernels::Gemm(src, weight.data().data(), y, n, k, f, false, false, false);
    src = y;
  }
  // What the backward reads with batch normalization: sd (f) | h - mean
  // (n x f), h being the BatchNorm's input.
  StoragePtr saved;
  const float inv_n = batch_stats ? 1.0f / static_cast<float>(n) : 0.0f;
  if (bn == nullptr) {
    WithFlag(relu, [&](auto kRelu) {
      for (int64_t r = 0; r < n; ++r) {
        const int64_t o = r * f;
        ForColumns(f, [&]<typename T>(int64_t j, T) {
          T v = Load<T>(src + o + j) + Load<T>(b + j);
          if constexpr (kRelu) v = WherePositive(v, v);
          Store(y + o + j, v);
        });
      }
    });
  } else {
    arena::Scope scope;
    float* sd = nullptr;
    float* centered = nullptr;
    if (record) {
      saved = MakeStorage(arena::AcquireVector(f + n * f));
      sd = saved->data();
      centered = sd + f;
    } else {
      sd = arena::AllocFloats(f);
    }
    const float* mean = nullptr;
    const float* var = nullptr;
    // With batch statistics, y holds h once they are taken.
    bool add_bias = linear;
    if (batch_stats) {
      WithFlag(linear, [&](auto kBias) {
        BatchStats<kBias>(src, b, n, f, inv_n, y, bn->batch_mean,
                          bn->batch_var);
      });
      mean = bn->batch_mean;
      var = bn->batch_var;
      src = y;
      add_bias = false;
    } else {
      mean = bn->mean.data().data();
      var = bn->var.data().data();
    }
    for (int64_t j = 0; j < f; ++j) sd[j] = std::sqrt(var[j] + bn->eps);
    const float* g = bn->gamma.data().data();
    const float* beta = bn->beta.data().data();
    WithFlag(add_bias, [&](auto kBias) {
      WithFlag(relu, [&](auto kRelu) {
        WithFlag(record, [&](auto kSave) {
          for (int64_t r = 0; r < n; ++r) {
            const int64_t o = r * f;
            ForColumns(f, [&]<typename T>(int64_t j, T) {
              T h = Load<T>(src + o + j);
              if constexpr (kBias) h = h + Load<T>(b + j);
              const T d = h - Load<T>(mean + j);
              if constexpr (kSave) Store(centered + o + j, d);
              T v = d / Load<T>(sd + j) * Load<T>(g + j) + Load<T>(beta + j);
              if constexpr (kRelu) v = WherePositive(v, v);
              Store(y + o + j, v);
            });
          }
        });
      });
    });
  }

  const bool has_bn = bn != nullptr;
  Tensor gamma = has_bn ? bn->gamma : Tensor();
  Tensor beta = has_bn ? bn->beta : Tensor();
  return MakeOp(
      std::move(out), {n, f}, parents,
      [x, weight, bias, gamma, beta, saved, n, k, f, inv_n, linear, has_bn,
       batch_stats, relu](TensorImpl& self) {
        arena::Scope scope;
        const float* go = self.grad.data();
        // Relu: 0 + go * slope. The output is positive exactly where the
        // ReLU's input was, so the output gives the slope.
        if (relu) {
          float* gr = arena::AllocFloats(n * f);
          kernels::Map2(n * f, go, self.data().data(), gr,
                        [](auto g, auto v) {
                          return 0.0f +
                                 g * WherePositive(
                                         v, Splat<decltype(v)>(1.0f));
                        });
          go = gr;
        }
        const bool h_grad =
            x.requires_grad() ||
            (linear && (weight.requires_grad() || bias.requires_grad()));
        if (has_bn) {
          // The normalized input's gradient: a zero-initialised buffer
          // behind a linear part, else x's own.
          float* gh = nullptr;
          if (!linear) {
            gh = GradBufferOrNull(x.impl_ptr());
          } else if (h_grad) {
            gh = arena::AllocFloats(n * f);
            std::fill(gh, gh + n * f, 0.0f);
          }
          const float* sd = saved->data();
          BatchNormBackward(go, sd, sd + f, gamma.data().data(), n, f, inv_n,
                            batch_stats, GradBufferOrNull(beta.impl_ptr()),
                            GradBufferOrNull(gamma.impl_ptr()), gh);
          go = gh;
        }
        if (!linear || !h_grad) return;
        // Add(bias): bias += go, row by row; MatMul's gradient is 0 + go.
        if (float* gb = GradBufferOrNull(bias.impl_ptr())) {
          for (int64_t r = 0; r < n; ++r) {
            const int64_t o = r * f;
            ForColumns(f, [&]<typename T>(int64_t j, T) {
              Store(gb + j, Load<T>(gb + j) + Load<T>(go + o + j));
            });
          }
        }
        if (!x.requires_grad() && !weight.requires_grad()) return;
        float* gmm = arena::AllocFloats(n * f);
        kernels::Map(n * f, go, gmm, [](auto g) { return 0.0f + g; });
        if (float* gx = GradBufferOrNull(x.impl_ptr())) {
          // dX (n x k) += dY (n x f) * W^T (f x k)
          kernels::Gemm(gmm, weight.data().data(), gx, n, f, k, false, true,
                        true);
        }
        if (float* gw = GradBufferOrNull(weight.impl_ptr())) {
          // dW (k x f) += X^T (k x n) * dY (n x f)
          kernels::Gemm(x.data().data(), gmm, gw, k, n, f, true, false,
                        true);
        }
      });
}

// ---- Cosine loss -----------------------------------------------------------------

namespace {
// sqrt(sum(row^2) + eps), rounded as L2NormalizeRows rounds it: each square
// rounded, then summed in column order from +0 (StridedSum).
float RowNorm(const float* row, int64_t d, float eps) {
  float acc = 0.0f;
  for (int64_t j = 0; j < d; ++j) {
    const float sq = row[j] * row[j];
    acc += sq;
  }
  return std::sqrt(acc + eps);
}
}  // namespace

// Replays the composite
//   an = a / Sqrt(Sum(Square(a), 1) + eps)  (bn likewise, graph-free)
//   -1 * (SumAll(Sum(an * bn, 1)) * (1 / n))
// whose interior values each have one consumer (a feeds two of them, both
// inside the chain), so the node runs where the chain ran. Each row's
// cosine is a sequential sum, as StridedSum's; the mean is kernels::SumAll's
// double sum. The backward rounds every interior gradient as `0 + go * df`
// and adds, per element of a, the Div term before the Square term, as
// Tensor::Backward ran Div's node before Square's.
Tensor NegativeCosineMean(const Tensor& a, const Tensor& b, float eps) {
  EDSR_CHECK_EQ(a.dim(), 2) << "NegativeCosineMean expects 2-D input";
  EDSR_CHECK(a.shape() == b.shape())
      << "NegativeCosineMean shape mismatch: " << ShapeToString(a.shape())
      << " vs " << ShapeToString(b.shape());
  EDSR_CHECK(!(GradMode::IsEnabled() && b.requires_grad()))
      << "NegativeCosineMean: the target takes no gradient; Detach() it";
  const int64_t n = a.shape()[0];
  const int64_t d = a.shape()[1];
  EDSR_CHECK_GT(n, 0);
  const float inv_n = 1.0f / static_cast<float>(n);
  float total = 0.0f;
  {
    arena::Scope scope;
    float* cos = arena::AllocFloats(n);
    for (int64_t i = 0; i < n; ++i) {
      const float* ra = a.data().data() + i * d;
      const float* rb = b.data().data() + i * d;
      const float na = RowNorm(ra, d, eps);
      const float nb = RowNorm(rb, d, eps);
      float acc = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float p = (ra[j] / na) * (rb[j] / nb);
        acc += p;
      }
      cos[i] = acc;
    }
    total = static_cast<float>(kernels::SumAll(n, cos));
  }
  std::vector<float> out = arena::AcquireVector(1);
  out[0] = total * inv_n * -1.0f;
  return MakeOp(
      std::move(out), {1}, {a, b},
      [a, b, n, d, inv_n, eps](TensorImpl& self) {
        float* ga = GradBufferOrNull(a.impl_ptr());
        if (ga == nullptr) return;
        // Mul(-1), Mul(1/n), SumAll, Sum: one value for every product.
        const float g_mean = 0.0f + self.grad[0] * -1.0f;
        const float g_sum = 0.0f + g_mean * inv_n;
        const float g_cos = 0.0f + g_sum;
        const float g_prod = 0.0f + g_cos;
        for (int64_t i = 0; i < n; ++i) {
          const float* ra = a.data().data() + i * d;
          const float* rb = b.data().data() + i * d;
          float* gr = ga + i * d;
          const float na = RowNorm(ra, d, eps);
          const float nb = RowNorm(rb, d, eps);
          // Mul(an, bn), an side; Div(a, norm), into a and then the norm.
          const float rna = 1.0f / na;
          const float na2 = na * na;
          float g_norm = 0.0f;
          for (int64_t j = 0; j < d; ++j) {
            const float g_an = 0.0f + g_prod * (rb[j] / nb);
            gr[j] += g_an * rna;
            g_norm += g_an * (-ra[j] / na2);
          }
          // Sqrt, Add(eps), Sum, then Square into a.
          const float g_sq = 0.0f + (0.0f + (0.0f + g_norm * (0.5f / (na + 1e-12f))));
          for (int64_t j = 0; j < d; ++j) gr[j] += g_sq * (2.0f * ra[j]);
        }
      });
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
