// Unit and property tests for the tensor/autograd engine.
#include "src/tensor/tensor.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(TensorFactory, ZerosOnesFull) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.shape(), (Shape{2, 3}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.at(i), 0.0f);
  Tensor o = Tensor::Ones({4});
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(o.at(i), 1.0f);
  Tensor f = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
}

TEST(TensorFactory, FromVectorChecksShape) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
  EXPECT_DEATH(Tensor::FromVector({1, 2, 3}, {2, 2}), "data size");
}

TEST(TensorFactory, RandnStatistics) {
  util::Rng rng(7);
  Tensor t = Tensor::Randn({10000}, &rng, 2.0f, 0.5f);
  double mean = 0.0;
  for (float v : t.data()) mean += v;
  mean /= t.numel();
  double var = 0.0;
  for (float v : t.data()) var += (v - mean) * (v - mean);
  var /= t.numel();
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 0.5, 0.05);
}

TEST(TensorCore, SizeNegativeAxis) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
}

TEST(TensorCore, DetachSharesValuesDropsGraph) {
  Tensor a = Tensor::FromVector({1, 2}, {2}, /*requires_grad=*/true);
  Tensor b = a * 2.0f;
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at(1), 4.0f);
}

TEST(Arithmetic, AddSameShape) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor b = Tensor::FromVector({10, 20, 30}, {3});
  Tensor c = a + b;
  EXPECT_EQ(c.at(0), 11.0f);
  EXPECT_EQ(c.at(2), 33.0f);
}

TEST(Arithmetic, BroadcastRowVector) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::FromVector({10, 20, 30}, {3});
  Tensor c = a + b;
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 2), 36.0f);
}

TEST(Arithmetic, BroadcastColumnVector) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::FromVector({100, 200}, {2, 1});
  Tensor c = a + b;
  EXPECT_EQ(c.at(0, 0), 101.0f);
  EXPECT_EQ(c.at(1, 0), 204.0f);
}

TEST(Arithmetic, BroadcastScalar) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor c = a * 3.0f;
  EXPECT_EQ(c.at(1, 1), 12.0f);
  Tensor d = 1.0f + a;
  EXPECT_EQ(d.at(0, 0), 2.0f);
}

TEST(Arithmetic, IncompatibleShapesDie) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(a + b, "broadcast");
}

TEST(Arithmetic, DivForward) {
  Tensor a = Tensor::FromVector({6, 9}, {2});
  Tensor b = Tensor::FromVector({2, 3}, {2});
  Tensor c = a / b;
  EXPECT_FLOAT_EQ(c.at(0), 3.0f);
  EXPECT_FLOAT_EQ(c.at(1), 3.0f);
}

TEST(Autograd, SimpleChain) {
  // y = sum((2a + 3)^2); dy/da = 2*(2a+3)*2
  Tensor a = Tensor::FromVector({1, -2}, {2}, /*requires_grad=*/true);
  Tensor y = tensor::SumAll(tensor::Square(a * 2.0f + 3.0f));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f * 5.0f * 2.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 2.0f * -1.0f * 2.0f);
}

TEST(Autograd, GradAccumulatesAcrossBackward) {
  Tensor a = Tensor::FromVector({1}, {1}, true);
  Tensor y1 = a * 2.0f;
  y1.Backward();
  Tensor y2 = a * 2.0f;
  y2.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  a.ZeroGrad();
  Tensor y3 = a * 2.0f;
  y3.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(Autograd, DiamondGraph) {
  // y = a*a + a*a must give dy/da = 4a even with shared subexpressions.
  Tensor a = Tensor::FromVector({3}, {1}, true);
  Tensor b = a * a;
  Tensor y = tensor::SumAll(b + b);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 12.0f);
}

TEST(Autograd, DetachBlocksGradient) {
  Tensor a = Tensor::FromVector({2}, {1}, true);
  Tensor y = tensor::SumAll(a * (a * 3.0f).Detach());
  y.Backward();
  // d/da [a * const(3a)] = 3a evaluated at a=2 -> 6.
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor a = Tensor::FromVector({1, 2}, {2}, true);
  Tensor y = a * 2.0f;
  EXPECT_DEATH(y.Backward(), "scalar");
}

// --- Finite-difference gradient checks over all differentiable ops. -------

TEST(GradCheck, BinaryOpsSameShape) {
  util::Rng rng(1);
  Tensor a = Tensor::Randn({3, 4}, &rng, 0.0f, 1.0f, true);
  Tensor b = Tensor::Randn({3, 4}, &rng, 0.0f, 1.0f, true);
  // Keep b away from zero for division.
  for (float& v : b.mutable_data()) v = v > 0 ? v + 0.5f : v - 0.5f;
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll(a * b + a - b / (a * a + 2.0f)); }, {a, b});
}

TEST(GradCheck, BroadcastBinary) {
  util::Rng rng(2);
  Tensor a = Tensor::Randn({4, 3}, &rng, 0.0f, 1.0f, true);
  Tensor b = Tensor::Randn({1, 3}, &rng, 0.0f, 1.0f, true);
  Tensor c = Tensor::Randn({4, 1}, &rng, 0.0f, 1.0f, true);
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll((a + b) * c); }, {a, b, c});
}

TEST(GradCheck, UnaryOps) {
  util::Rng rng(3);
  Tensor a = Tensor::Rand({2, 5}, &rng, 0.2f, 2.0f, true);
  testing::ExpectGradientsMatch(
      [&] {
        return tensor::SumAll(tensor::Sqrt(a) + tensor::Square(a) * 0.3f +
                              a / (tensor::Square(a) + 1.0f));
      },
      {a});
}

TEST(GradCheck, ReluAwayFromKink) {
  Tensor a = Tensor::FromVector({-1.0f, -0.3f, 0.4f, 2.0f}, {4}, true);
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll(tensor::Relu(a) * 2.0f); }, {a});
}

TEST(GradCheck, PowAndSquare) {
  util::Rng rng(4);
  Tensor a = Tensor::Rand({6}, &rng, 0.5f, 1.5f, true);
  testing::ExpectGradientsMatch(
      [&] {
        // a^3 + a^2 + a^0.5.
        return tensor::SumAll(tensor::Square(a) * a + tensor::Square(a) +
                              tensor::Sqrt(a));
      },
      {a});
}

TEST(GradCheck, MatMul) {
  util::Rng rng(5);
  Tensor a = Tensor::Randn({3, 4}, &rng, 0.0f, 1.0f, true);
  Tensor b = Tensor::Randn({4, 2}, &rng, 0.0f, 1.0f, true);
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll(tensor::MatMul(a, b)); }, {a, b});
}

TEST(GradCheck, Transpose) {
  util::Rng rng(6);
  Tensor a = Tensor::Randn({3, 4}, &rng, 0.0f, 1.0f, true);
  testing::ExpectGradientsMatch(
      [&] {
        Tensor t = tensor::Transpose(a);
        return tensor::SumAll(tensor::Square(tensor::MatMul(t, a)));
      },
      {a});
}

TEST(GradCheck, Reductions) {
  util::Rng rng(7);
  Tensor a = Tensor::Randn({3, 4}, &rng, 0.0f, 1.0f, true);
  testing::ExpectGradientsMatch(
      [&] {
        Tensor s0 = tensor::Sum(a, 0);
        Tensor m1 = tensor::Mean(a, 1, /*keepdims=*/true);
        return tensor::SumAll(tensor::Square(s0)) + tensor::SumAll(a * m1);
      },
      {a});
}

TEST(GradCheck, Composites) {
  util::Rng rng(9);
  Tensor a = Tensor::Randn({4, 6}, &rng, 0.0f, 1.0f, true);
  Tensor b = Tensor::Randn({4, 6}, &rng, 0.0f, 1.0f, true);
  testing::ExpectGradientsMatch(
      [&] {
        return tensor::SumAll(tensor::CosineSimilarityRows(a, b)) +
               tensor::SumAll(tensor::Square(tensor::L2NormalizeRows(a)));
      },
      {a, b});
}

// --- Forward-value correctness for shape/reduction ops. ---------------------

TEST(Ops, SumAxisValues) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor s0 = tensor::Sum(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_EQ(s0.at(0), 5.0f);
  EXPECT_EQ(s0.at(2), 9.0f);
  Tensor s1 = tensor::Sum(a, 1, /*keepdims=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_EQ(s1.at(0), 6.0f);
  EXPECT_EQ(s1.at(1), 15.0f);
}

TEST(Ops, MeanAllAndNegativeAxis) {
  Tensor a = Tensor::FromVector({2, 4, 6, 8}, {2, 2});
  EXPECT_FLOAT_EQ(tensor::MeanAll(a).item(), 5.0f);
  Tensor m = tensor::Mean(a, -1);
  EXPECT_FLOAT_EQ(m.at(0), 3.0f);
  EXPECT_FLOAT_EQ(m.at(1), 7.0f);
}

TEST(Ops, L2NormalizeRowsUnitNorm) {
  util::Rng rng(12);
  Tensor a = Tensor::Randn({5, 7}, &rng);
  Tensor n = tensor::L2NormalizeRows(a);
  for (int64_t i = 0; i < 5; ++i) {
    float norm = 0.0f;
    for (int64_t j = 0; j < 7; ++j) norm += n.at(i, j) * n.at(i, j);
    EXPECT_NEAR(norm, 1.0f, 1e-4f);
  }
}

TEST(Ops, CosineSimilarityBounds) {
  Tensor a = Tensor::FromVector({1, 0, 0, 1}, {2, 2});
  Tensor b = Tensor::FromVector({1, 0, 0, -1}, {2, 2});
  Tensor c = tensor::CosineSimilarityRows(a, b);
  EXPECT_NEAR(c.at(0), 1.0f, 1e-5f);
  EXPECT_NEAR(c.at(1), -1.0f, 1e-5f);
}

TEST(Ops, TransposeValues) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor t = tensor::Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at(0, 1), 4.0f);
  EXPECT_EQ(t.at(2, 0), 3.0f);
}

TEST(Ops, MatMulValues) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, {2, 2});
  Tensor c = tensor::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

// Property sweep: broadcasting forward values agree with a naive
// per-element reference over many random shape pairs.
class BroadcastPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastPropertyTest, MatchesNaiveReference) {
  util::Rng rng(GetParam());
  // Random compatible shapes of up to 3 dims.
  int nd = static_cast<int>(rng.UniformInt(1, 3));
  Shape sa, sb;
  for (int d = 0; d < nd; ++d) {
    int64_t size = rng.UniformInt(1, 4);
    bool stretch_a = rng.Bernoulli(0.3f);
    bool stretch_b = !stretch_a && rng.Bernoulli(0.3f);
    sa.push_back(stretch_a ? 1 : size);
    sb.push_back(stretch_b ? 1 : size);
  }
  Tensor a = Tensor::Randn(sa, &rng);
  Tensor b = Tensor::Randn(sb, &rng);
  Tensor c = a * b;
  // Naive reference with explicit index math.
  for (int64_t i = 0; i < c.numel(); ++i) {
    std::vector<int64_t> idx(nd);
    int64_t rem = i;
    for (int d = nd - 1; d >= 0; --d) {
      idx[d] = rem % c.shape()[d];
      rem /= c.shape()[d];
    }
    int64_t ia = 0, ib = 0;
    for (int d = 0; d < nd; ++d) {
      ia = ia * sa[d] + (sa[d] == 1 ? 0 : idx[d]);
      ib = ib * sb[d] + (sb[d] == 1 ? 0 : idx[d]);
    }
    EXPECT_FLOAT_EQ(c.at(i), a.at(ia) * b.at(ib)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, BroadcastPropertyTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace edsr
