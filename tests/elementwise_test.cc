// The elementwise layer to the bit: broadcast binary ops (forward and both
// input gradients) and the unary ops (forward and gradient) against naive
// per-element references, and ReLU's edge semantics. Every comparison is a
// memcmp (NaN payloads aside, see ExpectSameBits), so a reordered sum, a
// fused multiply-add, or a changed NaN/inf/signed-zero rule fails here.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testing::Bits;
using testing::ExpectSameBits;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

// Uniform values with every 5th element replaced by a special (NaN, +-inf,
// +-0, a denormal), so both the finite rounding and the IEEE edge rules are
// exercised.
std::vector<float> Values(int64_t n, util::Rng* rng) {
  const float specials[] = {kNan, kInf, -kInf, -0.0f, 0.0f, kDenorm};
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = i % 5 == 3 ? specials[(i / 5) % 6] : rng->Uniform(-2.0f, 2.0f);
  }
  return v;
}

// The four broadcast ops with their forward and partials spelled exactly as
// ops.cc spells them.
struct BinaryCase {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  float (*f)(float, float);
  float (*dfda)(float, float);
  float (*dfdb)(float, float);
};

const BinaryCase kOps[] = {
    {"Add", tensor::Add, [](float x, float y) { return x + y; },
     [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; }},
    {"Sub", tensor::Sub, [](float x, float y) { return x - y; },
     [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; }},
    {"Mul", tensor::Mul, [](float x, float y) { return x * y; },
     [](float, float y) { return y; }, [](float x, float) { return x; }},
    {"Div", tensor::Div, [](float x, float y) { return x / y; },
     [](float, float y) { return 1.0f / y; },
     [](float x, float y) { return -x / (y * y); }},
};

struct Reference {
  std::vector<float> out, ga, gb;
};

// One output element at a time, in row-major order: unravel the output
// index, map it into each input (stretched dims contribute nothing), and
// accumulate both input gradients element by element.
Reference NaiveBinary(const BinaryCase& op, const Shape& sa,
                      const std::vector<float>& a, const Shape& sb,
                      const std::vector<float>& b,
                      const std::vector<float>& gout, std::vector<float> ga,
                      std::vector<float> gb) {
  const int64_t nd = static_cast<int64_t>(std::max(sa.size(), sb.size()));
  Shape out_shape(nd);
  for (int64_t d = 0; d < nd; ++d) {
    int64_t ad = d - (nd - static_cast<int64_t>(sa.size()));
    int64_t bd = d - (nd - static_cast<int64_t>(sb.size()));
    int64_t da = ad >= 0 ? sa[ad] : 1;
    out_shape[d] = da == 1 ? (bd >= 0 ? sb[bd] : 1) : da;
  }
  Reference ref{std::vector<float>(tensor::NumElements(out_shape)),
                std::move(ga), std::move(gb)};
  for (int64_t i = 0; i < static_cast<int64_t>(ref.out.size()); ++i) {
    int64_t rem = i;
    int64_t ia = 0, ib = 0, step_a = 1, step_b = 1;
    for (int64_t d = nd - 1; d >= 0; --d) {
      int64_t idx = rem % out_shape[d];
      rem /= out_shape[d];
      int64_t ad = d - (nd - static_cast<int64_t>(sa.size()));
      int64_t bd = d - (nd - static_cast<int64_t>(sb.size()));
      if (ad >= 0) {
        if (sa[ad] != 1) ia += idx * step_a;
        step_a *= sa[ad];
      }
      if (bd >= 0) {
        if (sb[bd] != 1) ib += idx * step_b;
        step_b *= sb[bd];
      }
    }
    ref.out[i] = op.f(a[ia], b[ib]);
    ref.ga[ia] += gout[i] * op.dfda(a[ia], b[ib]);
    ref.gb[ib] += gout[i] * op.dfdb(a[ia], b[ib]);
  }
  return ref;
}

TEST(BroadcastRuns, ForwardAndGradsMatchNaiveReferenceToTheBit) {
  struct ShapePair {
    const char* name;
    Shape a, b;
  };
  std::vector<ShapePair> pairs = {
      {"same shape", {5, 37}, {5, 37}},
      {"[n,d] x [d]", {5, 37}, {37}},
      {"[n,d] x [1,d]", {5, 37}, {1, 37}},
      {"[1,d] x [n,d]", {1, 37}, {5, 37}},
      {"[n,d] x [n,1]", {5, 37}, {5, 1}},
      {"[n,1] x [n,d]", {5, 1}, {5, 37}},
      {"[n,d] x scalar", {5, 37}, {1}},
      {"scalar x [n,d]", {1}, {5, 37}},
      {"[n,d] x rank-0", {4, 6}, {}},
      {"[a,1,c] x [a,b,c]", {3, 1, 7}, {3, 4, 7}},
      {"batchnorm2d", {4, 3, 5, 6}, {1, 3, 1, 1}},
      {"zero rows", {0, 5}, {5}},
      {"zero cols", {3, 0}, {3, 1}},
      {"rank 8", {2, 1, 3, 1, 2, 2, 1, 3}, {1, 2, 3, 2, 1, 2, 3, 1}},
  };
  // Runs of 1 to 9 elements: no four-lane block, one or two blocks, and
  // blocks with every remainder, for an input that walks the run, one that
  // is stretched along it, and both walking it.
  for (int64_t n = 1; n <= 9; ++n) {
    pairs.push_back({"[3,n] x [n]", {3, n}, {n}});
    pairs.push_back({"[3,1] x [3,n]", {3, 1}, {3, n}});
    pairs.push_back({"[n] x [n]", {n}, {n}});
  }
  util::Rng rng(13);
  for (const BinaryCase& op : kOps) {
    for (const ShapePair& p : pairs) {
      SCOPED_TRACE(std::string(op.name) + " " + p.name + " " +
                   tensor::ShapeToString(p.a) + " " +
                   tensor::ShapeToString(p.b));
      Tensor a = Tensor::FromVector(Values(tensor::NumElements(p.a), &rng),
                                    p.a, /*requires_grad=*/true);
      Tensor b = Tensor::FromVector(Values(tensor::NumElements(p.b), &rng),
                                    p.b, /*requires_grad=*/true);
      // Non-zero starting gradients: backward must add into them.
      const std::vector<float> ga0 = Values(a.numel(), &rng);
      const std::vector<float> gb0 = Values(b.numel(), &rng);
      a.mutable_grad() = ga0;
      b.mutable_grad() = gb0;

      Tensor c = op.op(a, b);
      // The upstream gradient of c is exactly g (d/dc of sum(c * g)),
      // NaN and inf included.
      Tensor g = Tensor::FromVector(Values(c.numel(), &rng), c.shape());
      tensor::SumAll(c * g).Backward();

      Reference ref = NaiveBinary(op, p.a, a.data(), p.b, b.data(), c.grad(),
                                  ga0, gb0);
      ExpectSameBits(c.data(), ref.out, "forward");
      ExpectSameBits(a.grad(), ref.ga, "grad a");
      ExpectSameBits(b.grad(), ref.gb, "grad b");
    }
  }
}

TEST(BroadcastRuns, RankNineIsRejected) {
  Tensor a = Tensor::Zeros({2, 1, 2, 1, 2, 1, 2, 1, 2});
  Tensor b = Tensor::Zeros({1, 2, 1, 2, 1, 2, 1, 2, 1});
  EXPECT_DEATH(a + b, "broadcast rank 9 exceeds 8");
}

// The unary ops with their forward and derivative spelled as per-element
// reference loops would spell them.
struct UnaryCase {
  const char* name;
  Tensor (*op)(const Tensor&);
  float (*f)(float);
  float (*df)(float v, float out);
};

const UnaryCase kUnaryOps[] = {
    {"Square", tensor::Square, [](float v) { return v * v; },
     [](float v, float) { return 2.0f * v; }},
    {"Sqrt", tensor::Sqrt, [](float v) { return std::sqrt(v); },
     [](float, float o) { return 0.5f / (o + 1e-12f); }},
    {"Relu", tensor::Relu, [](float v) { return v > 0.0f ? v : 0.0f; },
     [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; }},
};

TEST(UnaryOps, ForwardAndGradMatchPerElementReferenceToTheBit) {
  // Lengths 0 to 9 and 37 put every element count in a four-lane block and
  // in the one-float rest.
  std::vector<int64_t> lengths = {37};
  for (int64_t n = 0; n <= 9; ++n) lengths.push_back(n);
  util::Rng rng(29);
  for (const UnaryCase& op : kUnaryOps) {
    for (int64_t n : lengths) {
      SCOPED_TRACE(std::string(op.name) + " n=" + std::to_string(n));
      Tensor x = Tensor::FromVector(Values(n, &rng), {n},
                                    /*requires_grad=*/true);
      const std::vector<float> g0 = Values(n, &rng);
      x.mutable_grad() = g0;
      Tensor y = op.op(x);
      Tensor g = Tensor::FromVector(Values(n, &rng), {n});
      tensor::SumAll(y * g).Backward();

      std::vector<float> out(n);
      std::vector<float> grad = g0;
      for (int64_t i = 0; i < n; ++i) {
        out[i] = op.f(x.data()[i]);
        grad[i] += y.grad()[i] * op.df(x.data()[i], out[i]);
      }
      ExpectSameBits(y.data(), out, "forward");
      ExpectSameBits(x.grad(), grad, "grad");
    }
  }
}

TEST(ReluBits, ForwardEdgeValuesMatchTheComparison) {
  const std::vector<float> x = {kNan,    -kNan, -0.0f, 0.0f,
                                kDenorm, -kDenorm, kInf, -kInf,
                                1.5f,    -1.5f,
                                std::numeric_limits<float>::min(),
                                -std::numeric_limits<float>::min()};
  Tensor y = tensor::Relu(Tensor::FromVector(x, {12}));
  std::vector<float> expected(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    expected[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  ExpectSameBits(y.data(), expected, "relu");
  // Spelled out: NaN of either sign and -0 give +0; a positive denormal and
  // +inf pass through unchanged.
  EXPECT_EQ(Bits(y.at(0)), 0u);
  EXPECT_EQ(Bits(y.at(1)), 0u);
  EXPECT_EQ(Bits(y.at(2)), 0u);
  EXPECT_EQ(Bits(y.at(4)), Bits(kDenorm));
  EXPECT_EQ(Bits(y.at(5)), 0u);
  EXPECT_EQ(y.at(6), kInf);
  EXPECT_EQ(Bits(y.at(7)), 0u);
}

TEST(ReluBits, MaskedNanOrInfGradientStaysNan) {
  // Masked inputs (x <= 0 or NaN) multiply the upstream gradient by exactly
  // 0.0f: NaN and inf gradients become NaN, a finite negative gradient
  // becomes -0. Zeroing the gradient with a bitwise AND instead would turn
  // all of these into +0.
  const std::vector<float> x = {-1.0f, -1.0f, -1.0f, 0.0f, kNan,
                                2.0f,  2.0f,  -3.0f, -3.0f, kDenorm};
  const std::vector<float> g = {kNan, kInf,  -kInf, kNan, 1.0f,
                                kNan, kInf,  -2.0f, 2.0f, -0.5f};
  Tensor xt = Tensor::FromVector(x, {10}, /*requires_grad=*/true);
  xt.mutable_grad().assign(10, -0.0f);
  Tensor y = tensor::Relu(xt);
  tensor::SumAll(y * Tensor::FromVector(g, {10})).Backward();

  const std::vector<float>& gy = y.grad();
  std::vector<float> expected(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    expected[i] = -0.0f + gy[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
  ExpectSameBits(xt.grad(), expected, "relu grad");
  for (int i : {0, 1, 2, 3, 5}) {
    EXPECT_TRUE(std::isnan(xt.grad()[i])) << "element " << i;
  }
  EXPECT_EQ(xt.grad()[4], 0.0f);
  EXPECT_EQ(xt.grad()[6], kInf);
  EXPECT_TRUE(std::signbit(xt.grad()[7])) << "-2 * 0 must stay -0";
  EXPECT_EQ(xt.grad()[9], -0.5f);
}

}  // namespace
}  // namespace edsr
