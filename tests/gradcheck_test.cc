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
}

// ---- Unary ----------------------------------------------------------------

TEST(Gradcheck, Relu) {
  util::Rng rng(5);
  // Margin keeps inputs away from the kink at 0 (finite differences would
  // straddle it otherwise).
  Tensor a = RandomTensor({2, 5}, &rng, /*margin=*/0.3f);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Relu(a), 31); }, {a});
}

TEST(Gradcheck, SqrtSquare) {
  util::Rng rng(6);
  Tensor a = RandomTensor({2, 4}, &rng);
  Tensor pos = RandomTensor({2, 4}, &rng, /*margin=*/0.5f, /*span=*/1.0f,
                            /*signed_values=*/false);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Sqrt(pos), 36); },
                       {pos});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Square(a), 41); },
                       {a});
}

// ---- Linear algebra -------------------------------------------------------

TEST(Gradcheck, MatMulTranspose) {
  util::Rng rng(11);
  Tensor a = RandomTensor({3, 4}, &rng);
  Tensor b = RandomTensor({4, 2}, &rng);
  ExpectGradientsMatch([&] { return WeightedSum(tensor::MatMul(a, b), 50); },
                       {a, b});
  ExpectGradientsMatch([&] { return WeightedSum(tensor::Transpose(a), 51); },
                       {a});
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

// ---- Normalization --------------------------------------------------------

// Batch normalization of x itself, and a hidden Mlp layer
// Relu(BatchNorm(x · W + b)), each with batch and with running statistics
// (the last layer's x · W + b is Linear's gradcheck).
TEST(Gradcheck, BatchNormTrainAndEval) {
  util::Rng rng(23);
  Tensor x = RandomTensor({5, 3}, &rng);
  Tensor gamma = RandomTensor({1, 3}, &rng);
  Tensor beta = RandomTensor({1, 3}, &rng);
  Tensor mean = RandomTensor({1, 3}, &rng, 0.2f, 1.0f, true, false);
  Tensor var = RandomTensor({1, 3}, &rng, 0.5f, 1.0f, false, false);
  Tensor w = RandomTensor({3, 3}, &rng);
  Tensor b = RandomTensor({3}, &rng);
  float batch_mean[3], batch_var[3];
  tensor::BatchNormArgs train;
  train.gamma = gamma;
  train.beta = beta;
  train.batch_mean = batch_mean;
  train.batch_var = batch_var;
  tensor::BatchNormArgs eval;
  eval.gamma = gamma;
  eval.beta = beta;
  eval.mean = mean;
  eval.var = var;
  uint64_t seed = 84;
  for (const tensor::BatchNormArgs* args : {&train, &eval}) {
    ExpectGradientsMatch(
        [&] {
          return WeightedSum(
              tensor::FusedLayer(x, Tensor(), Tensor(), args, false), seed);
        },
        {x, gamma, beta});
    ExpectGradientsMatch(
        [&] {
          return WeightedSum(tensor::FusedLayer(x, w, b, args, true),
                             seed + 2);
        },
        {x, w, b, gamma, beta});
    ++seed;
  }
}

}  // namespace
}  // namespace edsr
