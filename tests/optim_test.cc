// Tests for optimizers and gradient clipping.
#include "src/optim/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace edsr {
namespace {

using tensor::Tensor;

// Minimizes f(x) = (x - target)^2 for `steps` iterations.
float RunQuadratic(optim::Optimizer* opt, Tensor x, float target, int steps) {
  float loss_value = 0.0f;
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    Tensor loss = tensor::SumAll(tensor::Square(x - target));
    loss.Backward();
    opt->Step();
    loss_value = loss.item();
  }
  return loss_value;
}

TEST(Sgd, PlainGradientStep) {
  Tensor x = Tensor::FromVector({1.0f}, {1}, true);
  optim::SgdOptions options;
  options.lr = 0.1f;
  options.momentum = 0.0f;
  optim::Sgd sgd({x}, options);
  Tensor loss = tensor::SumAll(tensor::Square(x));  // grad = 2x = 2
  loss.Backward();
  sgd.Step();
  EXPECT_FLOAT_EQ(x.at(0), 1.0f - 0.1f * 2.0f);
}

TEST(Sgd, MomentumAccumulates) {
  Tensor x = Tensor::FromVector({0.0f}, {1}, true);
  optim::SgdOptions options;
  options.lr = 0.1f;
  options.momentum = 0.9f;
  optim::Sgd sgd({x}, options);
  // Constant gradient 1: velocity should build up as 1, 1.9, ...
  x.mutable_grad()[0] = 1.0f;
  sgd.Step();
  EXPECT_NEAR(x.at(0), -0.1f, 1e-6f);
  x.ZeroGrad();
  x.mutable_grad()[0] = 1.0f;
  sgd.Step();
  EXPECT_NEAR(x.at(0), -0.1f - 0.1f * 1.9f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Tensor x = Tensor::FromVector({10.0f}, {1}, true);
  optim::SgdOptions options;
  options.lr = 0.1f;
  options.momentum = 0.0f;
  options.weight_decay = 0.5f;
  optim::Sgd sgd({x}, options);
  x.mutable_grad()[0] = 0.0f;  // pure decay
  sgd.Step();
  EXPECT_FLOAT_EQ(x.at(0), 10.0f - 0.1f * 0.5f * 10.0f);
}

TEST(Sgd, ConvergesOnQuadratic) {
  Tensor x = Tensor::FromVector({5.0f}, {1}, true);
  optim::SgdOptions options;
  options.lr = 0.1f;
  optim::Sgd sgd({x}, options);
  float loss = RunQuadratic(&sgd, x, 3.0f, 100);
  EXPECT_LT(loss, 1e-4f);
  EXPECT_NEAR(x.at(0), 3.0f, 0.01f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Tensor x = Tensor::FromVector({-4.0f}, {1}, true);
  optim::AdamOptions options;
  options.lr = 0.1f;
  optim::Adam adam({x}, options);
  float loss = RunQuadratic(&adam, x, 2.0f, 300);
  EXPECT_LT(loss, 1e-3f);
  EXPECT_NEAR(x.at(0), 2.0f, 0.05f);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, the very first Adam update is ~lr * sign(grad).
  Tensor x = Tensor::FromVector({0.0f}, {1}, true);
  optim::AdamOptions options;
  options.lr = 0.01f;
  optim::Adam adam({x}, options);
  x.mutable_grad()[0] = 123.0f;
  adam.Step();
  EXPECT_NEAR(x.at(0), -0.01f, 1e-5f);
}

TEST(Optimizer, ZeroGradClears) {
  Tensor x = Tensor::FromVector({1.0f, 2.0f}, {2}, true);
  optim::SgdOptions options;
  optim::Sgd sgd({x}, options);
  x.mutable_grad()[0] = 3.0f;
  sgd.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Tensor x = Tensor::FromVector({0.0f, 0.0f}, {2}, true);
  x.mutable_grad()[0] = 3.0f;
  x.mutable_grad()[1] = 4.0f;  // norm 5
  double norm = optim::ClipGradNorm({x}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-5);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-4f);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-4f);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Tensor x = Tensor::FromVector({0.0f}, {1}, true);
  x.mutable_grad()[0] = 0.5f;
  optim::ClipGradNorm({x}, 1.0);
  EXPECT_FLOAT_EQ(x.grad()[0], 0.5f);
}

}  // namespace
}  // namespace edsr
