// Tests for encoders and CSSL losses.
#include "src/ssl/losses.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/optim/optimizer.h"
#include "src/ssl/encoder.h"
#include "src/tensor/ops.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using ssl::Encoder;
using ssl::EncoderConfig;
using tensor::Shape;
using tensor::Tensor;

EncoderConfig SmallMlpEncoderConfig() {
  EncoderConfig config;
  config.mlp_dims = {12, 16, 16};
  config.projector_hidden = 16;
  config.representation_dim = 8;
  return config;
}

TEST(Encoder, MlpForwardShape) {
  util::Rng rng(0);
  Encoder encoder(SmallMlpEncoderConfig(), &rng);
  Tensor x = Tensor::Randn({5, 12}, &rng);
  Tensor z = encoder.Forward(x);
  EXPECT_EQ(z.shape(), (Shape{5, 8}));
  EXPECT_EQ(encoder.representation_dim(), 8);
}

TEST(Encoder, InputHeadsUnifyDims) {
  util::Rng rng(2);
  EncoderConfig config = SmallMlpEncoderConfig();
  config.input_head_dims = {7, 20, 3};
  Encoder encoder(config, &rng);
  EXPECT_TRUE(encoder.has_input_heads());
  encoder.SetActiveHead(0);
  EXPECT_EQ(encoder.Forward(Tensor::Randn({4, 7}, &rng)).shape(),
            (Shape{4, 8}));
  encoder.SetActiveHead(1);
  EXPECT_EQ(encoder.Forward(Tensor::Randn({4, 20}, &rng)).shape(),
            (Shape{4, 8}));
  encoder.SetActiveHead(2);
  EXPECT_EQ(encoder.Forward(Tensor::Randn({4, 3}, &rng)).shape(),
            (Shape{4, 8}));
}

TEST(Encoder, HeadOutOfRangeDies) {
  util::Rng rng(3);
  EncoderConfig config = SmallMlpEncoderConfig();
  config.input_head_dims = {7};
  Encoder encoder(config, &rng);
  EXPECT_DEATH(encoder.SetActiveHead(1), "");
  Encoder no_heads(SmallMlpEncoderConfig(), &rng);
  EXPECT_DEATH(no_heads.SetActiveHead(0), "without input heads");
}

TEST(Encoder, TeacherTwinCopiesState) {
  util::Rng rng1(4), rng2(5);
  EncoderConfig config = SmallMlpEncoderConfig();
  auto student = Encoder::Make(config, &rng1);
  auto teacher = Encoder::Make(config, &rng2);
  teacher->CopyStateFrom(*student);
  teacher->SetRequiresGrad(false);
  teacher->SetTraining(false);
  student->SetTraining(false);
  Tensor x = Tensor::Randn({3, 12}, &rng1);
  Tensor zs = student->Forward(x);
  Tensor zt = teacher->Forward(x);
  for (int64_t i = 0; i < zs.numel(); ++i) EXPECT_FLOAT_EQ(zs.at(i), zt.at(i));
  EXPECT_FALSE(zt.requires_grad());
}

TEST(NegativeCosine, IdenticalInputsGiveMinusOne) {
  util::Rng rng(6);
  Tensor a = Tensor::Randn({4, 8}, &rng);
  EXPECT_NEAR(ssl::NegativeCosine(a, a).item(), -1.0f, 1e-5f);
}

TEST(SimSiamLoss, BoundedAndSymmetricStructure) {
  util::Rng rng(7);
  ssl::SimSiamLoss loss(8, 8, &rng);
  Tensor z1 = Tensor::Randn({6, 8}, &rng);
  Tensor z2 = Tensor::Randn({6, 8}, &rng);
  float v = loss.Loss(z1, z2).item();
  EXPECT_GE(v, -1.0f);
  EXPECT_LE(v, 1.0f);
  EXPECT_FALSE(loss.Parameters().empty());
}

TEST(SimSiamLoss, GradFlowsToInputsNotTargets) {
  util::Rng rng(8);
  ssl::SimSiamLoss loss(4, 4, &rng);
  Tensor z1 = Tensor::Randn({5, 4}, &rng, 0.0f, 1.0f, true);
  Tensor z2 = Tensor::Randn({5, 4}, &rng, 0.0f, 1.0f, true);
  loss.Loss(z1, z2).Backward();
  // Both get gradients (each side is a prediction input once).
  double g1 = 0.0, g2 = 0.0;
  for (float g : z1.grad()) g1 += std::fabs(g);
  for (float g : z2.grad()) g2 += std::fabs(g);
  EXPECT_GT(g1, 0.0);
  EXPECT_GT(g2, 0.0);
}

TEST(SimSiamLoss, AlignTargetIsConstant) {
  util::Rng rng(9);
  ssl::SimSiamLoss loss(4, 4, &rng);
  Tensor student = Tensor::Randn({5, 4}, &rng, 0.0f, 1.0f, true);
  Tensor target = Tensor::Randn({5, 4}, &rng, 0.0f, 1.0f, true);
  loss.Align(student, target).Backward();
  double gs = 0.0;
  for (float g : student.grad()) gs += std::fabs(g);
  EXPECT_GT(gs, 0.0);
  EXPECT_TRUE(target.grad().empty());  // detached: no grad buffer allocated
}

TEST(SimSiamLoss, TrainingReducesLoss) {
  // Optimizing an encoder + SimSiam on two noisy views of fixed anchors
  // should push the loss toward -1.
  util::Rng rng(10);
  Encoder encoder(SmallMlpEncoderConfig(), &rng);
  ssl::SimSiamLoss loss(8, 8, &rng);
  std::vector<Tensor> params = encoder.Parameters();
  for (const Tensor& p : loss.Parameters()) params.push_back(p);
  optim::SgdOptions opt;
  opt.lr = 0.05f;
  optim::Sgd sgd(params, opt);
  Tensor anchors = Tensor::Randn({16, 12}, &rng);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 60; ++step) {
    Tensor v1 = anchors + Tensor::Randn({16, 12}, &rng, 0.0f, 0.05f);
    Tensor v2 = anchors + Tensor::Randn({16, 12}, &rng, 0.0f, 0.05f);
    sgd.ZeroGrad();
    Tensor l = loss.Loss(encoder.Forward(v1), encoder.Forward(v2));
    l.Backward();
    sgd.Step();
    if (step == 0) first = l.item();
    last = l.item();
  }
  EXPECT_LT(last, first);
  EXPECT_LT(last, -0.5f);
}

TEST(BarlowTwinsLoss, ZeroForPerfectlyCorrelatedViews) {
  // Identical standardized views with exactly identity cross-correlation.
  util::Rng rng(11);
  ssl::BarlowTwinsLoss loss(5e-3f);
  // Build z with orthonormal-ish independent dims: large random batch.
  Tensor z = Tensor::Randn({256, 4}, &rng);
  float v = loss.Loss(z, z).item();
  // C_ii = 1 exactly; off-diagonals are small but nonzero for finite batch.
  EXPECT_LT(v, 0.1f);
}

TEST(BarlowTwinsLoss, PenalizesUncorrelatedViews) {
  util::Rng rng(12);
  ssl::BarlowTwinsLoss loss(5e-3f);
  Tensor z1 = Tensor::Randn({64, 4}, &rng);
  Tensor z2 = Tensor::Randn({64, 4}, &rng);  // independent
  float independent = loss.Loss(z1, z2).item();
  float correlated = loss.Loss(z1, z1).item();
  EXPECT_GT(independent, correlated + 0.5f);
}

TEST(BarlowTwinsLoss, GradCheck) {
  util::Rng rng(13);
  ssl::BarlowTwinsLoss loss(0.01f);
  Tensor z1 = Tensor::Randn({8, 3}, &rng, 0.0f, 1.0f, true);
  Tensor z2 = Tensor::Randn({8, 3}, &rng, 0.0f, 1.0f, true);
  testing::ExpectGradientsMatch([&] { return loss.Loss(z1, z2); }, {z1, z2},
                                1e-2f, 5e-2f);
}

TEST(MakeCsslLoss, FactoryKinds) {
  util::Rng rng(14);
  auto simsiam = ssl::MakeCsslLoss(ssl::CsslLossKind::kSimSiam, 8, &rng);
  auto barlow = ssl::MakeCsslLoss(ssl::CsslLossKind::kBarlowTwins, 8, &rng);
  EXPECT_EQ(simsiam->name(), "simsiam");
  EXPECT_EQ(barlow->name(), "barlowtwins");
  EXPECT_FALSE(simsiam->Parameters().empty());
  EXPECT_TRUE(barlow->Parameters().empty());
}

}  // namespace
}  // namespace edsr
