// Tests for KNN evaluation, representation extraction, and metrics.
#include "src/eval/knn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/cl/selection.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/representations.h"
#include "src/tensor/grad_mode.h"
#include "src/tensor/kernels.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

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

// ---- The top-k vote against a full-sort oracle ----------------------------

namespace simd = tensor::simd;

// Restores the dispatch tier and the pool size around a test.
class DispatchGuard {
 public:
  DispatchGuard()
      : tier_(simd::ActiveTier()),
        threads_(util::ThreadPool::Global().NumThreads()) {}
  ~DispatchGuard() {
    simd::SetTierForTesting(tier_);
    util::ThreadPool::Global().SetNumThreadsForTesting(threads_);
  }

 private:
  simd::Tier tier_;
  int threads_;
};

std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::SupportedTier() == simd::Tier::kAvx2) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

RepresentationMatrix RandomMatrix(int64_t n, int64_t d, util::Rng* rng) {
  std::vector<float> values(n * d);
  for (float& v : values) v = rng->Normal();
  return MakeMatrix(std::move(values), n, d);
}

// n bank rows drawn from about n / 3 distinct directions with random labels:
// copies of one row score bit-identical similarities against any query, so
// most similarity rows carry exact ties between rows of different labels,
// at the k-th place among others.
RepresentationMatrix TiedBank(int64_t n, int64_t d, int64_t num_classes,
                              util::Rng* rng, std::vector<int64_t>* labels) {
  RepresentationMatrix distinct =
      RandomMatrix(std::max<int64_t>(1, n / 3), d, rng);
  std::vector<float> values;
  labels->clear();
  for (int64_t i = 0; i < n; ++i) {
    int64_t src = rng->UniformInt(0, distinct.n - 1);
    values.insert(values.end(), distinct.values.begin() + src * d,
                  distinct.values.begin() + (src + 1) * d);
    labels->push_back(rng->UniformInt(0, num_classes - 1));
  }
  return MakeMatrix(std::move(values), n, d);
}

// The protocol by definition: the similarity of every bank row as the
// classifier computes it (unit rows, PairwiseSqDist, 1 - 0.5 d), a full
// stable sort by (similarity desc, bank row asc), then the vote over the
// first k in that order: double sums of the float exp(sim / T), first-max
// argmax. Sets *tie_at_k when the k-th and (k+1)-th similarities are equal
// and their labels differ.
int64_t OracleVote(const RepresentationMatrix& bank,
                   const std::vector<int64_t>& labels, const float* query,
                   const KnnOptions& options, bool* tie_at_k) {
  const int64_t n = bank.n;
  const int64_t d = bank.d;
  std::vector<float> unit_bank = bank.values;
  for (int64_t i = 0; i < n; ++i) {
    tensor::kernels::NormalizeL2(d, unit_bank.data() + i * d);
  }
  std::vector<float> q(query, query + d);
  tensor::kernels::NormalizeL2(d, q.data());
  std::vector<float> sims(n);
  tensor::kernels::PairwiseSqDist(q.data(), 1, unit_bank.data(), n, d,
                                  sims.data());
  for (float& s : sims) s = 1.0f - 0.5f * s;
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return sims[a] > sims[b];
  });
  const int64_t k = std::min(options.k, n);
  *tie_at_k = k < n && sims[order[k - 1]] == sims[order[k]] &&
              labels[order[k - 1]] != labels[order[k]];
  std::vector<double> votes(options.num_classes, 0.0);
  for (int64_t i = 0; i < k; ++i) {
    votes[labels[order[i]]] += std::exp(sims[order[i]] / options.temperature);
  }
  return std::max_element(votes.begin(), votes.end()) - votes.begin();
}

TEST(KnnVote, MatchesFullSortOracleWithTiesAtTheKthPlace) {
  DispatchGuard guard;
  constexpr int64_t kClasses = 40;
  constexpr int64_t kDim = 8;
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTierForTesting(tier);
    util::Rng rng(11);
    int64_t queries_with_ties = 0;
    int64_t queries_past_k = 0;
    for (int64_t k : {1, 10, 20}) {
      for (int64_t n : {k - 1, k, k + 1, int64_t{1200}, int64_t{1}}) {
        if (n < 1) continue;
        SCOPED_TRACE(::testing::Message()
                     << simd::TierName(tier) << " k=" << k << " n=" << n);
        std::vector<int64_t> labels;
        RepresentationMatrix bank = TiedBank(n, kDim, kClasses, &rng, &labels);
        KnnOptions options;
        options.k = k;
        options.num_classes = kClasses;
        KnnClassifier knn(bank, labels, options);
        // Bank rows as queries put the ties at the top; random directions
        // put them anywhere.
        RepresentationMatrix randoms = RandomMatrix(20, kDim, &rng);
        for (int64_t i = 0; i < 40; ++i) {
          const float* query =
              i < 20 ? bank.values.data() + (i % n) * kDim
                     : randoms.values.data() + (i - 20) * kDim;
          bool tie_at_k = false;
          EXPECT_EQ(knn.Predict(query),
                    OracleVote(bank, labels, query, options, &tie_at_k))
              << "query " << i;
          queries_past_k += n > k;
          queries_with_ties += tie_at_k;
        }
      }
    }
    // The planted ties reached the k-th place in a good share of the
    // queries, so the tie rule decided real votes.
    EXPECT_GT(queries_with_ties * 4, queries_past_k) << simd::TierName(tier);
  }
}

TEST(KnnVote, EvaluateIsTheFractionOfPredictHits) {
  DispatchGuard guard;
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTierForTesting(tier);
    util::Rng rng(12);
    std::vector<int64_t> bank_labels;
    RepresentationMatrix bank = TiedBank(1200, 16, 40, &rng, &bank_labels);
    KnnOptions options;
    options.num_classes = 40;
    KnnClassifier knn(bank, bank_labels, options);
    // More queries than one block of distances, so Evaluate scores them in
    // several blocks.
    RepresentationMatrix queries = RandomMatrix(700, 16, &rng);
    std::vector<int64_t> labels(queries.n);
    int64_t hits = 0;
    for (int64_t i = 0; i < queries.n; ++i) {
      int64_t predicted = knn.Predict(queries.values.data() + i * queries.d);
      // Label a third of the queries with their prediction, the rest at
      // random.
      labels[i] = i % 3 == 0 ? predicted : rng.UniformInt(0, 39);
      hits += labels[i] == predicted;
    }
    EXPECT_EQ(knn.Evaluate(queries, labels),
              static_cast<double>(hits) / static_cast<double>(queries.n))
        << simd::TierName(tier);
  }
}

TEST(KnnVote, EvaluateIsTheSameAtOneAndFourThreads) {
  DispatchGuard guard;
  util::Rng rng(13);
  std::vector<int64_t> bank_labels;
  RepresentationMatrix bank = TiedBank(1200, 16, 40, &rng, &bank_labels);
  KnnOptions options;
  options.num_classes = 40;
  KnnClassifier knn(bank, bank_labels, options);
  RepresentationMatrix queries = RandomMatrix(1000, 16, &rng);
  std::vector<int64_t> labels(queries.n);
  for (int64_t& l : labels) l = rng.UniformInt(0, 39);
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTierForTesting(tier);
    util::ThreadPool::Global().SetNumThreadsForTesting(1);
    const double one = knn.Evaluate(queries, labels);
    util::ThreadPool::Global().SetNumThreadsForTesting(4);
    const double four = knn.Evaluate(queries, labels);
    EXPECT_EQ(one, four) << simd::TierName(tier);
  }
}

TEST(KnnVote, LabelOutsideTheClassRangeDies) {
  RepresentationMatrix bank = MakeMatrix({1, 0, 0, 1}, 2, 2);
  KnnOptions options;
  options.num_classes = 2;
  EXPECT_DEATH(KnnClassifier(bank, {0, 2}, options), "outside");
  EXPECT_DEATH(KnnClassifier(bank, {-1, 0}, options), "outside");
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
