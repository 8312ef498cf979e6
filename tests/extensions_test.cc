// Tests for the extension tensor ops: LeakyRelu, Gelu, Clamp, ReduceMin and
// Dropout.
#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using tensor::Tensor;

// ---- New tensor ops ----------------------------------------------------

TEST(ExtOps, LeakyReluForwardAndGrad) {
  Tensor a = Tensor::FromVector({-2.0f, -0.5f, 0.5f, 2.0f}, {4}, true);
  Tensor y = tensor::LeakyRelu(a, 0.1f);
  EXPECT_FLOAT_EQ(y.at(0), -0.2f);
  EXPECT_FLOAT_EQ(y.at(2), 0.5f);
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll(tensor::Square(tensor::LeakyRelu(a, 0.1f))); },
      {a});
}

TEST(ExtOps, GeluValuesAndGrad) {
  Tensor a = Tensor::FromVector({-1.0f, 0.0f, 1.0f, 2.0f}, {4}, true);
  Tensor y = tensor::Gelu(a);
  EXPECT_NEAR(y.at(1), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(2), 0.8412f, 1e-3f);  // known GELU(1)
  EXPECT_NEAR(y.at(0), -0.1588f, 1e-3f);
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll(tensor::Gelu(a)); }, {a});
}

TEST(ExtOps, ClampForwardAndGradInsideOnly) {
  Tensor a = Tensor::FromVector({-3.0f, 0.5f, 3.0f}, {3}, true);
  Tensor y = tensor::Clamp(a, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(y.at(0), -1.0f);
  EXPECT_FLOAT_EQ(y.at(1), 0.5f);
  EXPECT_FLOAT_EQ(y.at(2), 1.0f);
  tensor::SumAll(y).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 0.0f);
}

TEST(ExtOps, ReduceMinMatchesNegatedMax) {
  Tensor a = Tensor::FromVector({3, 1, 2, -5, 0, 4}, {2, 3});
  Tensor m = tensor::ReduceMin(a, 1);
  EXPECT_FLOAT_EQ(m.at(0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(1), -5.0f);
}

TEST(ExtOps, DropoutStatistics) {
  util::Rng rng(1);
  Tensor a = Tensor::Ones({4000});
  Tensor y = tensor::Dropout(a, 0.25f, &rng);
  int64_t zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0f) ++zeros;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 4000, 0.25, 0.03);
  // Inverted scaling keeps the expectation.
  EXPECT_NEAR(sum / 4000, 1.0, 0.05);
  // p = 0 is the identity.
  Tensor id = tensor::Dropout(a, 0.0f, &rng);
  EXPECT_FLOAT_EQ(id.at(17), 1.0f);
}

}  // namespace
}  // namespace edsr
