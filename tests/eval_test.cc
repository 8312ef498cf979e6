// Tests for KNN evaluation, representation extraction, and metrics.
#include "src/eval/knn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/cl/selection.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/representations.h"
#include "src/tensor/grad_mode.h"

namespace edsr {
namespace {

using eval::AccuracyMatrix;
using eval::KnnClassifier;
using eval::KnnOptions;
using eval::RepresentationMatrix;

RepresentationMatrix MakeMatrix(std::vector<float> values, int64_t n,
                                int64_t d) {
  RepresentationMatrix m;
  m.values = std::move(values);
  m.n = n;
  m.d = d;
  return m;
}

TEST(Knn, PerfectlySeparableClusters) {
  // Two clusters on orthogonal axes.
  RepresentationMatrix bank = MakeMatrix(
      {1, 0, 0.9f, 0.1f, 0, 1, 0.1f, 0.9f}, 4, 2);
  KnnOptions options;
  options.k = 2;
  options.num_classes = 2;
  KnnClassifier knn(bank, {0, 0, 1, 1}, options);
  float q0[] = {0.95f, 0.05f};
  float q1[] = {0.05f, 0.95f};
  EXPECT_EQ(knn.Predict(q0), 0);
  EXPECT_EQ(knn.Predict(q1), 1);
}

TEST(Knn, EvaluateComputesFraction) {
  RepresentationMatrix bank = MakeMatrix({1, 0, 0, 1}, 2, 2);
  KnnOptions options;
  options.k = 1;
  options.num_classes = 2;
  KnnClassifier knn(bank, {0, 1}, options);
  RepresentationMatrix queries =
      MakeMatrix({1, 0.1f, 0.1f, 1, 1, 0}, 3, 2);
  // Labels: correct, correct, wrong.
  double acc = knn.Evaluate(queries, {0, 1, 1});
  EXPECT_NEAR(acc, 2.0 / 3.0, 1e-9);
}

TEST(Knn, CosineNotEuclidean) {
  // A query aligned with class 0's direction but with a huge magnitude must
  // still match class 0 (cosine is scale invariant).
  RepresentationMatrix bank = MakeMatrix({1, 0, 0, 1}, 2, 2);
  KnnOptions options;
  options.k = 1;
  options.num_classes = 2;
  KnnClassifier knn(bank, {0, 1}, options);
  float q[] = {1000.0f, 1.0f};
  EXPECT_EQ(knn.Predict(q), 0);
}

TEST(Knn, KLargerThanBankIsClamped) {
  RepresentationMatrix bank = MakeMatrix({1, 0, 0, 1}, 2, 2);
  KnnOptions options;
  options.k = 50;
  options.num_classes = 2;
  KnnClassifier knn(bank, {0, 1}, options);
  float q[] = {1.0f, 0.0f};
  EXPECT_EQ(knn.Predict(q), 0);  // similarity weighting breaks the tie
}

TEST(ExtractRepresentations, ShapesAndDeterminism) {
  util::Rng rng(0);
  ssl::EncoderConfig config;
  config.mlp_dims = {10, 12, 12};
  config.representation_dim = 6;
  config.projector_hidden = 12;
  ssl::Encoder encoder(config, &rng);
  data::SyntheticTabularConfig data_config;
  data_config.num_features = 10;
  data_config.train_size = 37;
  data_config.seed = 1;
  auto pair = MakeSyntheticTabularData(data_config);
  auto reps1 = eval::ExtractRepresentations(&encoder, pair.train, 8);
  auto reps2 = eval::ExtractRepresentations(&encoder, pair.train, 16);
  EXPECT_EQ(reps1.n, 37);
  EXPECT_EQ(reps1.d, 6);
  // Eval-mode extraction is batch-size independent (running stats).
  for (size_t i = 0; i < reps1.values.size(); ++i) {
    EXPECT_NEAR(reps1.values[i], reps2.values[i], 1e-4f);
  }
}

TEST(ExtractRepresentations, RestoresTrainingMode) {
  util::Rng rng(1);
  ssl::EncoderConfig config;
  config.mlp_dims = {4, 6, 6};
  config.representation_dim = 4;
  ssl::Encoder encoder(config, &rng);
  encoder.SetTraining(true);
  data::SyntheticTabularConfig data_config;
  data_config.num_features = 4;
  data_config.train_size = 8;
  data_config.seed = 2;
  auto pair = MakeSyntheticTabularData(data_config);
  eval::ExtractRepresentations(&encoder, pair.train);
  EXPECT_TRUE(encoder.training());
}

TEST(ExtractRepresentations, HeadlessEncoderIgnoresHeadArgument) {
  // Regression: passing head >= 0 for an encoder without input heads used to
  // call SetActiveHead and abort.
  util::Rng rng(4);
  ssl::EncoderConfig config;
  config.mlp_dims = {6, 8, 8};
  config.representation_dim = 4;
  ssl::Encoder encoder(config, &rng);
  ASSERT_FALSE(encoder.has_input_heads());
  data::SyntheticTabularConfig data_config;
  data_config.num_features = 6;
  data_config.train_size = 9;
  data_config.seed = 5;
  auto pair = MakeSyntheticTabularData(data_config);
  auto reps = eval::ExtractRepresentations(&encoder, pair.train, 4,
                                           /*head=*/2);
  EXPECT_EQ(reps.n, 9);
  EXPECT_EQ(reps.d, 4);
}

TEST(ExtractRepresentations, HeadedEncoderSwitchesAndRestoresHead) {
  util::Rng rng(5);
  ssl::EncoderConfig config;
  config.mlp_dims = {6, 8, 8};
  config.representation_dim = 4;
  config.input_head_dims = {5, 6, 7};  // three per-increment heads
  ssl::Encoder encoder(config, &rng);
  encoder.SetActiveHead(2);
  data::SyntheticTabularConfig data_config;
  data_config.num_features = 6;  // matches head 1's input dim
  data_config.train_size = 6;
  data_config.seed = 6;
  auto pair = MakeSyntheticTabularData(data_config);
  eval::ExtractRepresentations(&encoder, pair.train, 4, /*head=*/1);
  EXPECT_EQ(encoder.active_head(), 2);  // restored after extraction
  // head = -1 means "leave the active head alone".
  data::SyntheticTabularConfig wide;
  wide.num_features = 7;  // head 2's input dim
  wide.train_size = 4;
  wide.seed = 7;
  auto pair2 = MakeSyntheticTabularData(wide);
  eval::ExtractRepresentations(&encoder, pair2.train, 4, /*head=*/-1);
  EXPECT_EQ(encoder.active_head(), 2);
}

TEST(ExtractRepresentations, InferencePathsBuildZeroAutogradNodes) {
  // Acceptance check for the GradMode tentpole: extraction and selection
  // scoring must not materialize any autograd graph.
  util::Rng rng(8);
  ssl::EncoderConfig config;
  config.mlp_dims = {6, 8, 8};
  config.representation_dim = 4;
  ssl::Encoder encoder(config, &rng);
  data::SyntheticTabularConfig data_config;
  data_config.num_features = 6;
  data_config.train_size = 20;
  data_config.seed = 9;
  auto pair = MakeSyntheticTabularData(data_config);

  tensor::ResetAutogradNodeCount();
  auto reps = eval::ExtractRepresentations(&encoder, pair.train, 8);
  cl::SelectionContext selection;
  selection.representations = &reps;
  cl::HighEntropySelector selector(cl::HighEntropySelector::Mode::kPcaLeverage,
                                   /*num_components=*/2);
  util::Rng select_rng(10);
  std::vector<int64_t> picks = selector.Select(selection, 5, &select_rng);
  EXPECT_EQ(picks.size(), 5u);
  EXPECT_EQ(tensor::AutogradNodesCreated(), 0);
}

TEST(AccuracyMatrix, AccAveragesRow) {
  AccuracyMatrix m(3);
  m.Set(0, 0, 0.9);
  m.Set(1, 0, 0.8);
  m.Set(1, 1, 0.6);
  EXPECT_NEAR(m.Acc(0), 0.9, 1e-9);
  EXPECT_NEAR(m.Acc(1), 0.7, 1e-9);
}

TEST(AccuracyMatrix, ForgettingIsMaxDrop) {
  AccuracyMatrix m(3);
  m.Set(0, 0, 0.9);
  m.Set(1, 0, 0.5);
  m.Set(1, 1, 0.8);
  m.Set(2, 0, 0.7);  // partial recovery: forgetting still vs the 0.9 peak
  m.Set(2, 1, 0.6);
  m.Set(2, 2, 0.9);
  EXPECT_NEAR(m.Forgetting(1, 0), 0.4, 1e-9);
  EXPECT_NEAR(m.Forgetting(2, 0), 0.2, 1e-9);
  EXPECT_NEAR(m.Forgetting(2, 1), 0.2, 1e-9);
  EXPECT_NEAR(m.Fgt(2), 0.2, 1e-9);
  EXPECT_NEAR(m.Fgt(0), 0.0, 1e-9);
}

TEST(AccuracyMatrix, NegativeForgettingWhenImproving) {
  // Backward transfer: accuracy on old task *improves*; forgetting is 0
  // relative to its own peak, which is the later value.
  AccuracyMatrix m(2);
  m.Set(0, 0, 0.5);
  m.Set(1, 0, 0.7);
  m.Set(1, 1, 0.8);
  EXPECT_NEAR(m.Forgetting(1, 0), 0.0, 1e-9);
}

TEST(AccuracyMatrix, InvalidAccessDies) {
  AccuracyMatrix m(2);
  m.Set(0, 0, 0.5);
  EXPECT_DEATH(m.Set(0, 1, 0.5), "j <= i");
  EXPECT_DEATH(m.Get(1, 0), "not recorded");
  EXPECT_DEATH(m.Set(0, 0, 42.0), "fraction");
}

TEST(AccuracyMatrix, FinalConvenienceMatchesLastRow) {
  AccuracyMatrix m(2);
  m.Set(0, 0, 1.0);
  m.Set(1, 0, 0.5);
  m.Set(1, 1, 0.7);
  EXPECT_NEAR(m.FinalAcc(), 0.6, 1e-9);
  EXPECT_NEAR(m.FinalFgt(), 0.5, 1e-9);
}

}  // namespace
}  // namespace edsr
