// Tests for Module registry, layers, networks, and state (de)serialization.
#include "src/nn/networks.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/init.h"
#include "src/optim/optimizer.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using nn::Mlp;
using tensor::Shape;
using tensor::Tensor;

TEST(Linear, ForwardShapeAndValue) {
  util::Rng rng(0);
  nn::Linear layer(3, 2, &rng);
  // Overwrite with known weights for a deterministic check.
  std::vector<nn::NamedTensor> state = layer.NamedState();
  ASSERT_EQ(state.size(), 2u);  // weight, bias
  state[0].value.mutable_data() = {1, 0, 0, 1, 1, 1};  // (3,2)
  state[1].value.mutable_data() = {10, 20};
  Tensor x = Tensor::FromVector({1, 2, 3}, {1, 3});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 3 + 20);
}

TEST(Linear, GradCheckThroughLayer) {
  util::Rng rng(1);
  nn::Linear layer(4, 3, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng, 0.0f, 1.0f, true);
  std::vector<Tensor> inputs = layer.Parameters();
  inputs.push_back(x);
  testing::ExpectGradientsMatch(
      [&] { return tensor::SumAll(tensor::Square(layer.Forward(x))); },
      inputs);
}

TEST(BatchNorm1d, NormalizesBatchInTraining) {
  util::Rng rng(2);
  nn::BatchNorm1d bn(4);
  bn.SetTraining(true);
  Tensor x = Tensor::Randn({32, 4}, &rng, 5.0f, 3.0f);
  Tensor y = bn.Forward(x);
  for (int64_t j = 0; j < 4; ++j) {
    double mean = 0.0, var = 0.0;
    for (int64_t i = 0; i < 32; ++i) mean += y.at(i, j);
    mean /= 32;
    for (int64_t i = 0; i < 32; ++i) {
      var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    }
    var /= 32;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm1d, EvalUsesRunningStats) {
  util::Rng rng(3);
  nn::BatchNorm1d bn(2);
  bn.SetTraining(true);
  // Feed many batches so running stats converge to (5, 9).
  for (int step = 0; step < 200; ++step) {
    Tensor x = Tensor::Randn({64, 2}, &rng, 5.0f, 3.0f);
    bn.Forward(x);
  }
  bn.SetTraining(false);
  Tensor probe = Tensor::FromVector({5.0f, 5.0f}, {1, 2});
  Tensor y = bn.Forward(probe);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 0.15f);
  EXPECT_NEAR(y.at(0, 1), 0.0f, 0.15f);
}

TEST(Mlp, OutputShapeAndParamCount) {
  util::Rng rng(5);
  Mlp mlp({10, 16, 8}, &rng);
  EXPECT_EQ(mlp.input_dim(), 10);
  EXPECT_EQ(mlp.output_dim(), 8);
  Tensor x = Tensor::Randn({4, 10}, &rng);
  EXPECT_EQ(mlp.Forward(x).shape(), (Shape{4, 8}));
  // linear1 (10*16 + 16) + bn (16+16) + linear2 (16*8 + 8)
  int64_t count = 0;
  for (const Tensor& p : mlp.Parameters()) count += p.numel();
  EXPECT_EQ(count, 10 * 16 + 16 + 32 + 16 * 8 + 8);
}

TEST(Mlp, TrainsOnToyRegression) {
  // Sanity: an MLP + SGD can fit y = 2x on a few points.
  util::Rng rng(6);
  Mlp mlp({1, 8, 1}, &rng, /*batch_norm=*/false);
  optim::SgdOptions opt;
  opt.lr = 0.05f;
  opt.momentum = 0.9f;
  optim::Sgd sgd(mlp.Parameters(), opt);
  Tensor x = Tensor::FromVector({-1, -0.5, 0, 0.5, 1}, {5, 1});
  Tensor target = Tensor::FromVector({-2, -1, 0, 1, 2}, {5, 1});
  float final_loss = 0.0f;
  for (int step = 0; step < 300; ++step) {
    sgd.ZeroGrad();
    Tensor loss = tensor::MeanAll(tensor::Square(mlp.Forward(x) - target));
    loss.Backward();
    sgd.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.01f);
}

TEST(Module, SetRequiresGradFreezes) {
  util::Rng rng(9);
  Mlp mlp({4, 6, 2}, &rng);
  mlp.SetRequiresGrad(false);
  Tensor x = Tensor::Randn({3, 4}, &rng);
  Tensor out = mlp.Forward(x);
  EXPECT_FALSE(out.requires_grad());
}

TEST(Module, CopyStateFromMakesOutputsEqual) {
  util::Rng rng1(10), rng2(11);
  Mlp a({4, 8, 3}, &rng1);
  Mlp b({4, 8, 3}, &rng2);
  Tensor x = Tensor::Randn({5, 4}, &rng1);
  a.SetTraining(false);
  b.SetTraining(false);
  b.CopyStateFrom(a);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
  }
}

TEST(Module, CopyStateIsByValueNotAliased) {
  util::Rng rng(12);
  Mlp a({2, 3}, &rng);
  Mlp b({2, 3}, &rng);
  b.CopyStateFrom(a);
  // Mutating a must not affect b.
  a.NamedState()[0].value.mutable_data()[0] += 100.0f;
  EXPECT_NE(a.NamedState()[0].value.at(0), b.NamedState()[0].value.at(0));
}

TEST(Module, SaveLoadRoundTrip) {
  // An Mlp with BatchNorm1d carries parameters and buffers. One training
  // forward moves a's running statistics off their initial values, so the
  // eval-mode outputs agree only if both kinds of state round-trip.
  util::Rng rng1(13), rng2(14);
  Mlp a({6, 8, 4}, &rng1);
  Mlp b({6, 8, 4}, &rng2);
  ASSERT_GT(a.NamedState().size(), a.Parameters().size());
  a.SetTraining(true);
  a.Forward(Tensor::Randn({16, 6}, &rng1, 1.0f, 2.0f));
  io::BufferWriter out;
  a.SerializeState(&out);
  io::BufferReader in(out.bytes());
  b.DeserializeState(&in).Check();
  EXPECT_TRUE(in.ExpectEnd().ok());
  a.SetTraining(false);
  b.SetTraining(false);
  Tensor x = Tensor::Randn({2, a.input_dim()}, &rng1);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
}

TEST(Module, DeserializeStateRejectsWrongArchitecture) {
  util::Rng rng(15);
  Mlp a({4, 8, 3}, &rng);
  Mlp b({4, 9, 3}, &rng);
  io::BufferWriter out;
  a.SerializeState(&out);
  io::BufferReader in(out.bytes());
  util::Status status = b.DeserializeState(&in);
  EXPECT_FALSE(status.ok());
}

TEST(Init, KaimingBoundsRespected) {
  util::Rng rng(16);
  Tensor w = nn::KaimingUniform({64, 64}, 64, &rng);
  float bound = std::sqrt(6.0f / 64.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

}  // namespace
}  // namespace edsr
