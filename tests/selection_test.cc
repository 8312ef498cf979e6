// Tests for data selection methods (§III-A and the Table V baselines).
#include "src/cl/selection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/linalg/eigen.h"

namespace edsr {
namespace {

using cl::DataSelector;
using cl::HighEntropySelector;
using cl::SelectionContext;
using eval::RepresentationMatrix;

RepresentationMatrix MakeReps(std::vector<float> values, int64_t n,
                              int64_t d) {
  RepresentationMatrix m;
  m.values = std::move(values);
  m.n = n;
  m.d = d;
  return m;
}

// Two tight clusters plus two far outlier-ish high-norm points.
RepresentationMatrix ClusteredReps() {
  std::vector<float> values;
  util::Rng rng(0);
  auto push = [&](float x, float y) {
    values.push_back(x);
    values.push_back(y);
  };
  for (int i = 0; i < 10; ++i) push(1.0f + rng.Normal(0, 0.05f), 0.0f);
  for (int i = 0; i < 10; ++i) push(0.0f, 1.0f + rng.Normal(0, 0.05f));
  push(5.0f, 0.0f);   // index 20
  push(0.0f, 5.0f);   // index 21
  return MakeReps(std::move(values), 22, 2);
}

TEST(RandomSelector, RespectsBudgetAndDistinct) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}};
  cl::RandomSelector selector;
  util::Rng rng(1);
  std::vector<int64_t> picks = selector.Select(context, 5, &rng);
  EXPECT_EQ(picks.size(), 5u);
  std::set<int64_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RandomSelector, BudgetLargerThanDataIsClamped) {
  RepresentationMatrix reps = MakeReps({1, 2, 3, 4}, 2, 2);
  SelectionContext context{&reps, {}};
  cl::RandomSelector selector;
  util::Rng rng(2);
  EXPECT_EQ(selector.Select(context, 10, &rng).size(), 2u);
}

TEST(DistantSelector, PicksSpreadPoints) {
  // Three tight groups: a budget of 3 should take one from each.
  std::vector<float> values;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 8; ++i) {
      values.push_back(static_cast<float>(g * 10));
      values.push_back(static_cast<float>(i) * 0.01f);
    }
  }
  RepresentationMatrix reps = MakeReps(std::move(values), 24, 2);
  SelectionContext context{&reps, {}};
  cl::DistantSelector selector;
  util::Rng rng(3);
  std::vector<int64_t> picks = selector.Select(context, 3, &rng);
  std::set<int64_t> groups;
  for (int64_t p : picks) groups.insert(p / 8);
  EXPECT_EQ(groups.size(), 3u) << "distant selection must span the clusters";
}

TEST(KMeansSelector, OnePickPerCluster) {
  std::vector<float> values;
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 6; ++i) {
      values.push_back(static_cast<float>(g * 20));
      values.push_back(static_cast<float>(i) * 0.02f);
    }
  }
  RepresentationMatrix reps = MakeReps(std::move(values), 24, 2);
  SelectionContext context{&reps, {}};
  cl::KMeansSelector selector;
  util::Rng rng(4);
  std::vector<int64_t> picks = selector.Select(context, 4, &rng);
  EXPECT_EQ(picks.size(), 4u);
  std::set<int64_t> groups;
  for (int64_t p : picks) groups.insert(p / 6);
  EXPECT_EQ(groups.size(), 4u);
  std::set<int64_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 4u) << "picks must be distinct samples";
}

TEST(MinVarSelector, PrefersLowVarianceSamples) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}};
  context.augmentation_variance.assign(22, 1.0);
  // Mark a handful of samples as very stable under augmentation.
  context.augmentation_variance[3] = 0.01;
  context.augmentation_variance[13] = 0.01;
  cl::MinVarSelector selector(/*num_clusters=*/2);
  util::Rng rng(5);
  std::vector<int64_t> picks = selector.Select(context, 2, &rng);
  std::set<int64_t> set(picks.begin(), picks.end());
  EXPECT_TRUE(set.count(3) == 1 || set.count(13) == 1)
      << "low-variance samples should be kept first";
}

TEST(MinVarSelector, RequiresVarianceScores) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}};
  cl::MinVarSelector selector;
  EXPECT_TRUE(selector.needs_augmentation_variance());
  util::Rng rng(6);
  EXPECT_DEATH(selector.Select(context, 2, &rng), "variance");
}

TEST(HighEntropyNorm, SelectsLargestNorms) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}};
  HighEntropySelector selector(HighEntropySelector::Mode::kNorm);
  util::Rng rng(7);
  std::vector<int64_t> picks = selector.Select(context, 2, &rng);
  std::set<int64_t> set(picks.begin(), picks.end());
  EXPECT_TRUE(set.count(20) == 1 && set.count(21) == 1)
      << "norm mode must take the two highest-norm points";
}

TEST(HighEntropyNorm, ExactlyMaximizesTrace) {
  // Paper oracle for Eq. 15: over small instances, the norm mode run through
  // RunSelection attains the maximal Tr(Cov(M)) among all subsets of the
  // budget's size (brute force), and a budget >= n keeps every index.
  util::Rng rng(8);
  for (int64_t n = 1; n <= 9; ++n) {
    for (int64_t d : {1, 2, 4}) {
      for (bool tied : {false, true}) {
        // Tied instances pair rows with their negations: equal norms, bit
        // for bit.
        std::vector<float> values(n * d);
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < d; ++j) {
            values[i * d + j] =
                tied && i % 2 == 1 ? -values[(i - 1) * d + j] : rng.Normal();
          }
        }
        RepresentationMatrix reps = MakeReps(values, n, d);
        SelectionContext context{&reps, {}};
        HighEntropySelector selector(HighEntropySelector::Mode::kNorm);
        auto subset_trace = [&](const std::vector<int64_t>& subset) {
          std::vector<float> rows;
          for (int64_t i : subset) {
            rows.insert(rows.end(), reps.Row(i), reps.Row(i) + d);
          }
          return linalg::Trace(
              linalg::CovarianceGram(rows,
                                     static_cast<int64_t>(subset.size()), d),
              d);
        };
        for (int64_t budget = 1; budget <= n + 1; ++budget) {
          SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d) +
                       " tied=" + std::to_string(tied) +
                       " budget=" + std::to_string(budget));
          std::vector<int64_t> picks =
              cl::RunSelection(&selector, context, budget, &rng);
          const int64_t k = std::min(budget, n);
          ASSERT_EQ(static_cast<int64_t>(picks.size()), k);
          std::vector<int64_t> sorted = picks;
          std::sort(sorted.begin(), sorted.end());
          ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                      sorted.end())
              << "picks must be distinct";
          if (budget >= n) {
            std::vector<int64_t> all(n);
            std::iota(all.begin(), all.end(), 0);
            EXPECT_EQ(sorted, all);
          }
          double best = 0.0;
          for (uint32_t mask = 0; mask < (1u << n); ++mask) {
            if (std::popcount(mask) != k) continue;
            std::vector<int64_t> subset;
            for (int64_t i = 0; i < n; ++i) {
              if (mask & (1u << i)) subset.push_back(i);
            }
            best = std::max(best, subset_trace(subset));
          }
          EXPECT_NEAR(subset_trace(picks), best, 1e-5 * best);
        }
      }
    }
  }
}

TEST(HighEntropyPca, SelectionIsDeterministic) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}};
  HighEntropySelector selector(HighEntropySelector::Mode::kPcaLeverage, 2);
  util::Rng rng_a(9), rng_b(10);
  EXPECT_EQ(selector.Select(context, 4, &rng_a),
            selector.Select(context, 4, &rng_b));
}

TEST(HighEntropyPca, PrefersPrincipalSubspaceOverNoiseDirections) {
  // Data spread along dim 0 (principal); one sample has a huge component in
  // dim 2, which carries almost no variance elsewhere. With 1 component,
  // PCA-leverage should keep extreme principal-direction samples and not be
  // seduced by the noise-direction outlier relative to norm scoring.
  std::vector<float> values = {
      4, 0, 0,
      -4, 0, 0,
      3.5f, 0, 0,
      -3.5f, 0, 0,
      0.1f, 0, 3.9f,  // big norm, but off-principal (index 4)
      0.2f, 0, 0,
      0.1f, 0, 0,
  };
  RepresentationMatrix reps = MakeReps(values, 7, 3);
  SelectionContext context{&reps, {}};
  HighEntropySelector pca(HighEntropySelector::Mode::kPcaLeverage, 1);
  util::Rng rng(11);
  std::vector<int64_t> picks = pca.Select(context, 4, &rng);
  std::set<int64_t> set(picks.begin(), picks.end());
  EXPECT_EQ(set.count(4), 0u)
      << "with one principal component the noise-direction point loses";
  EXPECT_EQ(set, (std::set<int64_t>{0, 1, 2, 3}));
}

TEST(HighEntropyLogDet, CoversDirectionsNotJustNorms) {
  // Greedy log-det favors *diverse* directions: given two colinear huge
  // points and one orthogonal medium point, budget 2 must include the
  // orthogonal one (norm mode would take the two colinear giants).
  std::vector<float> values = {
      10, 0,
      9.5f, 0,
      0, 2,
  };
  RepresentationMatrix reps = MakeReps(values, 3, 2);
  SelectionContext context{&reps, {}};
  HighEntropySelector logdet(HighEntropySelector::Mode::kGreedyLogDet);
  util::Rng rng(12);
  std::vector<int64_t> picks = logdet.Select(context, 2, &rng);
  std::set<int64_t> set(picks.begin(), picks.end());
  EXPECT_EQ(set.count(2), 1u);
  HighEntropySelector norm(HighEntropySelector::Mode::kNorm);
  std::vector<int64_t> norm_picks = norm.Select(context, 2, &rng);
  std::set<int64_t> norm_set(norm_picks.begin(), norm_picks.end());
  EXPECT_EQ(norm_set, (std::set<int64_t>{0, 1}));
}

// ---- Registry + shared-contract property suite ----------------------------

// A context carrying every optional signal, so the suite below can drive any
// registered selector regardless of what it declares it needs.
SelectionContext FullContext(const RepresentationMatrix& reps,
                             const RepresentationMatrix& grads) {
  SelectionContext context;
  context.representations = &reps;
  context.augmentation_variance.resize(reps.n);
  for (int64_t i = 0; i < reps.n; ++i) {
    context.augmentation_variance[i] = 0.1 + 0.01 * static_cast<double>(i);
  }
  context.gradient_features = &grads;
  return context;
}

std::unique_ptr<DataSelector> MustCreate(const std::string& spec) {
  util::Result<std::unique_ptr<DataSelector>> selector =
      cl::SelectorRegistry::Global().Create(spec);
  EXPECT_TRUE(selector.ok()) << spec << ": " << selector.status().message();
  return std::move(selector).ValueOrDie();
}

TEST(SelectorRegistry, EveryBuiltinConstructsByName) {
  std::vector<std::string> names = cl::SelectorRegistry::Global().Names();
  ASSERT_GE(names.size(), 7u);
  for (const std::string& name : names) {
    EXPECT_EQ(MustCreate(name)->name(), name);
  }
}

TEST(SelectorRegistry, UnknownNameListsRegisteredEntries) {
  util::Result<std::unique_ptr<DataSelector>> result =
      cl::SelectorRegistry::Global().Create("no-such-selector");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("no-such-selector"),
            std::string::npos);
  for (const std::string& name : cl::SelectorRegistry::Global().Names()) {
    EXPECT_NE(result.status().message().find(name), std::string::npos)
        << "error must list " << name;
  }
}

TEST(SelectorRegistry, ParameterizedSpecsConstruct) {
  EXPECT_EQ(MustCreate("kmeans:iters=3")->name(), "kmeans");
  EXPECT_EQ(MustCreate("high-entropy:mode=logdet,components=4")->name(),
            "high-entropy");
  EXPECT_EQ(MustCreate("gradient-affinity:tau=0.5,kappa=0.1")->name(),
            "gradient-affinity");
}

TEST(SelectorRegistry, RejectsUnknownParameter) {
  util::Result<std::unique_ptr<DataSelector>> result =
      cl::SelectorRegistry::Global().Create("random:foo=1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown parameter"),
            std::string::npos);
}

TEST(SelectorRegistry, RejectsMalformedSpecs) {
  EXPECT_FALSE(cl::SelectorRegistry::Global().Create("").ok());
  EXPECT_FALSE(cl::SelectorRegistry::Global().Create("kmeans:iters").ok());
  EXPECT_FALSE(cl::SelectorRegistry::Global().Create("kmeans:iters=abc").ok());
  EXPECT_FALSE(
      cl::SelectorRegistry::Global().Create("high-entropy:mode=bogus").ok());
}

TEST(SelectorRegistry, PropertyExactUniqueInRangeForEveryBudget) {
  RepresentationMatrix reps = ClusteredReps();
  RepresentationMatrix grads = ClusteredReps();
  for (const std::string& name : cl::SelectorRegistry::Global().Names()) {
    std::unique_ptr<DataSelector> selector = MustCreate(name);
    SelectionContext context = FullContext(reps, grads);
    for (int64_t budget : {int64_t{0}, int64_t{5}, reps.n, int64_t{100}}) {
      util::Rng rng(17);
      std::vector<int64_t> picks =
          cl::RunSelection(selector.get(), context, budget, &rng);
      int64_t expected = std::min<int64_t>(std::max<int64_t>(budget, 0),
                                           reps.n);
      EXPECT_EQ(static_cast<int64_t>(picks.size()), expected)
          << name << " at budget " << budget;
      std::set<int64_t> unique(picks.begin(), picks.end());
      EXPECT_EQ(unique.size(), picks.size()) << name << " returned duplicates";
      for (int64_t pick : picks) {
        EXPECT_GE(pick, 0) << name;
        EXPECT_LT(pick, reps.n) << name;
      }
    }
  }
}

TEST(SelectorRegistry, PropertyDeterministicUnderFixedSeed) {
  RepresentationMatrix reps = ClusteredReps();
  RepresentationMatrix grads = ClusteredReps();
  for (const std::string& name : cl::SelectorRegistry::Global().Names()) {
    std::unique_ptr<DataSelector> a = MustCreate(name);
    std::unique_ptr<DataSelector> b = MustCreate(name);
    SelectionContext context = FullContext(reps, grads);
    util::Rng rng_a(21), rng_b(21);
    EXPECT_EQ(cl::RunSelection(a.get(), context, 6, &rng_a),
              cl::RunSelection(b.get(), context, 6, &rng_b))
        << name << " must be deterministic under a fixed seed";
  }
}

// ---- RunSelection edge-case contract --------------------------------------

class StubSelector : public DataSelector {
 public:
  explicit StubSelector(std::vector<int64_t> raw) : raw_(std::move(raw)) {}
  std::vector<int64_t> Select(const SelectionContext&, int64_t,
                              util::Rng*) override {
    return raw_;
  }
  std::string name() const override { return "stub"; }

 private:
  std::vector<int64_t> raw_;
};

TEST(RunSelection, DropsDuplicatesAndPadsShortReturns) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}, nullptr};
  StubSelector stub({2, 2, 5});
  util::Rng rng(30);
  EXPECT_EQ(cl::RunSelection(&stub, context, 4, &rng),
            (std::vector<int64_t>{2, 5, 0, 1}));
}

TEST(RunSelection, BudgetCoveringDataSkipsTheSelector) {
  RepresentationMatrix reps = MakeReps({1, 2, 3, 4}, 2, 2);
  SelectionContext context{&reps, {}, nullptr};
  // Out-of-range stub: would abort if RunSelection consulted it.
  StubSelector stub({-1});
  util::Rng rng(31);
  EXPECT_EQ(cl::RunSelection(&stub, context, 2, &rng),
            (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(cl::RunSelection(&stub, context, 9, &rng),
            (std::vector<int64_t>{0, 1}));
}

TEST(RunSelection, NonPositiveBudgetIsEmpty) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}, nullptr};
  StubSelector stub({0});
  util::Rng rng(32);
  EXPECT_TRUE(cl::RunSelection(&stub, context, 0, &rng).empty());
  EXPECT_TRUE(cl::RunSelection(&stub, context, -3, &rng).empty());
}

TEST(RunSelection, OutOfRangePickAborts) {
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}, nullptr};
  StubSelector stub({99});
  util::Rng rng(33);
  EXPECT_DEATH(cl::RunSelection(&stub, context, 2, &rng), "out-of-range");
}

// ---- Stateful-selector checkpointing --------------------------------------

TEST(GradientAffinitySelector, StateRoundTripsThroughSerialize) {
  RepresentationMatrix reps = ClusteredReps();
  RepresentationMatrix grads = ClusteredReps();
  SelectionContext context = FullContext(reps, grads);

  cl::GradientAffinitySelector original;
  util::Rng rng(40);
  cl::RunSelection(&original, context, 5, &rng);
  ASSERT_GT(original.reference_count(), 0);

  io::BufferWriter out;
  io::SaveNamedState(original, &out);
  cl::GradientAffinitySelector restored;
  io::BufferReader in(out.bytes());
  ASSERT_TRUE(io::LoadNamedState(&restored, &in).ok());
  ASSERT_TRUE(in.ExpectEnd().ok());
  EXPECT_EQ(restored.reference_count(), original.reference_count());

  // The restored selector must continue exactly like the original.
  util::Rng rng_a(41), rng_b(41);
  EXPECT_EQ(cl::RunSelection(&original, context, 5, &rng_a),
            cl::RunSelection(&restored, context, 5, &rng_b));
}

TEST(SelectorState, NameMismatchIsRejected) {
  cl::RandomSelector random;
  io::BufferWriter out;
  io::SaveNamedState(random, &out);
  cl::KMeansSelector kmeans;
  io::BufferReader in(out.bytes());
  util::Status status = io::LoadNamedState(&kmeans, &in);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("random"), std::string::npos);
  EXPECT_NE(status.message().find("kmeans"), std::string::npos);
}

// ---- New selectors --------------------------------------------------------

TEST(GradientAffinitySelector, RequiresGradientFeatures) {
  cl::GradientAffinitySelector selector;
  EXPECT_TRUE(selector.needs_gradient_features());
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}, nullptr};
  util::Rng rng(50);
  EXPECT_DEATH(selector.Select(context, 2, &rng), "gradient");
}

TEST(ComplementarySelector, SpansClustersInsteadOfStackingOne) {
  // Facility-location coverage: with two tight clusters and budget 2, the
  // picks must come from different clusters.
  RepresentationMatrix reps = ClusteredReps();
  SelectionContext context{&reps, {}, nullptr};
  cl::ComplementarySelector selector;
  util::Rng rng(51);
  std::vector<int64_t> picks = selector.Select(context, 2, &rng);
  ASSERT_EQ(picks.size(), 2u);
  auto cluster = [](int64_t i) { return (i == 20 || i < 10) ? 0 : 1; };
  EXPECT_NE(cluster(picks[0]), cluster(picks[1]))
      << "complementary picks must cover both clusters";
}

}  // namespace
}  // namespace edsr
