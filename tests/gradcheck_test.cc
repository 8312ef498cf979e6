// Finite-difference gradient checks covering every public differentiable op
// in ops.h. tensor_test.cc exercises op semantics; this file is
// the systematic derivative audit (satellite of the kernels refactor, which
// rewrote every backward closure).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testing::ExpectGradientsMatch;
using testing::RandomTensor;

// Reduces `t` to a scalar through fixed random weights so every output
// element influences the loss (SumAll alone hides sign errors that cancel).
Tensor WeightedSum(const Tensor& t, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> w(t.numel());
  for (float& v : w) v = rng.Uniform(0.5f, 1.5f);
  return tensor::SumAll(t * Tensor::FromVector(std::move(w), t.shape()));
}

// ---- Binary arithmetic ----------------------------------------------------

TEST(Gradcheck, AddSubMulSameShape) {
  util::Rng rng(1);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor b = RandomTensor({2, 3}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(a + b, 10); }, {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(a - b, 11); }, {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(a * b, 12); }, {a, b});
}

TEST(Gradcheck, DivSameShapeAndBroadcast) {
  util::Rng rng(2);
  Tensor a = RandomTensor({2, 3}, &rng);
  // Denominator bounded away from zero.
  Tensor b = RandomTensor({2, 3}, &rng, /*margin=*/0.5f);
  ExpectGradientsMatch([&] { return WeightedSum(a / b, 13); }, {a, b});
  Tensor col = RandomTensor({2, 1}, &rng, /*margin=*/0.5f);
  ExpectGradientsMatch([&] { return WeightedSum(a / col, 14); }, {a, col});
}

TEST(Gradcheck, BroadcastRowColScalar) {
  util::Rng rng(3);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor row = RandomTensor({1, 4}, &rng);
  Tensor col = RandomTensor({3, 1}, &rng);
  Tensor scalar = RandomTensor({1}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(a + row, 15); }, {a, row});
  ExpectGradientsMatch([&] { return WeightedSum(a * col, 16); }, {a, col});
  ExpectGradientsMatch([&] { return WeightedSum(a * scalar, 17); },
                       {a, scalar});
}

TEST(Gradcheck, ScalarOperators) {
  util::Rng rng(4);
  Tensor a = RandomTensor({2, 3}, &rng, /*margin=*/0.5f);
  ExpectGradientsMatch([&] { return WeightedSum(a + 0.7f, 18); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(a - 0.7f, 19); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(a * 1.3f, 20); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(a / 1.3f, 21); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(2.0f * a, 22); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(0.5f + a, 23); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(-a, 24); }, {a});
}

// ---- Unary ----------------------------------------------------------------

TEST(Gradcheck, NegReluAbsLeakyRelu) {
  util::Rng rng(5);
  // Margin keeps inputs away from the kink at 0 (finite differences would
  // straddle it otherwise).
  Tensor a = RandomTensor({2, 5}, &rng, /*margin=*/0.3f);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Neg(a), 30); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Relu(a), 31); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Abs(a), 32); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::LeakyRelu(a, 0.1f), 33); }, {a});
}

TEST(Gradcheck, ExpLogSqrt) {
  util::Rng rng(6);
  Tensor a = RandomTensor({2, 4}, &rng);
  Tensor pos = RandomTensor({2, 4}, &rng, /*margin=*/0.5f, /*span=*/1.0f,
                            /*signed_values=*/false);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Exp(a), 34); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Log(pos), 35); },
                       {pos});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sqrt(pos), 36); },
                       {pos});
}

TEST(Gradcheck, TanhSigmoidGelu) {
  util::Rng rng(7);
  Tensor a = RandomTensor({3, 3}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Tanh(a), 37); }, {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sigmoid(a), 38); },
                       {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Gelu(a), 39); }, {a});
}

TEST(Gradcheck, PowScalarSquare) {
  util::Rng rng(8);
  Tensor pos = RandomTensor({2, 3}, &rng, /*margin=*/0.4f, /*span=*/1.0f,
                            /*signed_values=*/false);
  Tensor a = RandomTensor({2, 3}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::PowScalar(pos, 1.7f), 40); }, {pos});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Square(a), 41); },
                       {a});
}

TEST(Gradcheck, Clamp) {
  util::Rng rng(9);
  // |values| in [0.2, 1.2]; bounds at ±0.9 so some elements saturate (zero
  // grad) and some pass through (unit grad), none near the boundary kink.
  Tensor a = RandomTensor({3, 4}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Clamp(a, -0.9f, 0.9f), 42); }, {a});
}

TEST(Gradcheck, DropoutWithFixedMask) {
  util::Rng data_rng(10);
  Tensor a = RandomTensor({4, 4}, &data_rng);
  // Reseeding inside loss_fn fixes the mask across repeated forward passes,
  // which gradcheck requires.
  auto loss_fn = [&] {
    util::Rng mask_rng(123);
    return WeightedSum(tensor::Dropout(a, 0.3f, &mask_rng), 43);
  };
  ExpectGradientsMatch(loss_fn, {a});
}

// ---- Linear algebra and shape ops ----------------------------------------

TEST(Gradcheck, MatMulTranspose) {
  util::Rng rng(11);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({4, 2}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::MatMul(a, b), 50); },
                       {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Transpose(a), 51); },
                       {a});
}

TEST(Gradcheck, ReshapeNarrow) {
  util::Rng rng(12);
  Tensor a = RandomTensor({2, 6}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Reshape(a, {3, 4}), 52); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Reshape(a, {4, -1}), 53); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Narrow(a, 1, 2, 3), 54); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Narrow(a, 0, 1, 1), 55); }, {a});
}

TEST(Gradcheck, IndexSelectRowsWithDuplicates) {
  util::Rng rng(13);
  Tensor a = RandomTensor({4, 3}, &rng);
  // Row 2 twice: grads must scatter-add.
  std::vector<int64_t> picks = {2, 0, 2, 3};
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::IndexSelectRows(a, picks), 56); },
      {a});
}

TEST(Gradcheck, ConcatRows) {
  util::Rng rng(14);
  Tensor a = RandomTensor({2, 3}, &rng);
  Tensor b = RandomTensor({1, 3}, &rng);
  Tensor c = RandomTensor({3, 3}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::ConcatRows({a, b, c}), 57); },
      {a, b, c});
}

// ---- Reductions -----------------------------------------------------------

TEST(Gradcheck, SumMeanAll) {
  util::Rng rng(15);
  Tensor a = RandomTensor({3, 4}, &rng);
  ExpectGradientsMatch([&] { return tensor::SumAll(a); }, {a});
  ExpectGradientsMatch([&] { return tensor::MeanAll(a); }, {a});
}

TEST(Gradcheck, SumMeanAxis) {
  util::Rng rng(16);
  Tensor a = RandomTensor({2, 3, 4}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sum(a, 1), 60); },
                       {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::Sum(a, 2, /*keepdims=*/true), 61); },
      {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Mean(a, 0), 62); },
                       {a});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Mean(a, -1), 63); },
                       {a});
}

TEST(Gradcheck, ReduceMaxMin) {
  util::Rng rng(17);
  // Random draws are distinct with margin >> eps, so the argmax is stable
  // under the finite-difference perturbation.
  Tensor a = RandomTensor({3, 5}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::ReduceMax(a, 1), 64); }, {a});
  ExpectGradientsMatch(
      [&] {
        return WeightedSum(tensor::ReduceMax(a, 0, /*keepdims=*/true), 65);
      },
      {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::ReduceMin(a, 1), 66); }, {a});
}

// ---- Composites -----------------------------------------------------------

TEST(Gradcheck, L2NormalizeAndCosine) {
  util::Rng rng(18);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({3, 4}, &rng);
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::L2NormalizeRows(a), 70); }, {a});
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::CosineSimilarityRows(a, b), 71); },
      {a, b});
}

TEST(Gradcheck, SoftmaxAndCrossEntropy) {
  util::Rng rng(19);
  Tensor logits = RandomTensor({4, 3}, &rng);
  std::vector<int64_t> labels = {0, 2, 1, 2};
  ExpectGradientsMatch(
      [&] { return WeightedSum(tensor::SoftmaxRows(logits), 72); }, {logits});
  ExpectGradientsMatch(
      [&] { return tensor::CrossEntropyWithLogits(logits, labels); },
      {logits});
}

// ---- Normalization --------------------------------------------------------

TEST(Gradcheck, BatchNormTrainAndEval) {
  util::Rng rng(23);
  Tensor x = RandomTensor({5, 3}, &rng);
  Tensor gamma = RandomTensor({1, 3}, &rng);
  Tensor beta = RandomTensor({1, 3}, &rng);
  Tensor mean = RandomTensor({1, 3}, &rng, 0.2f, 1.0f, true, false);
  Tensor var = RandomTensor({1, 3}, &rng, 0.5f, 1.0f, false, false);
  ExpectGradientsMatch(
      [&] {
        float batch_mean[3], batch_var[3];
        return WeightedSum(tensor::BatchNormTrain(x, gamma, beta, 1e-5f,
                                                  batch_mean, batch_var),
                           84);
      },
      {x, gamma, beta});
  ExpectGradientsMatch(
      [&] {
        return WeightedSum(
            tensor::BatchNormEval(x, gamma, beta, mean, var, 1e-5f), 85);
      },
      {x, gamma, beta});
}

}  // namespace
}  // namespace edsr
