// Tests for the core EDSR strategy: entropy-based selection stage,
// noise calculation, and the three replay-loss modes.
#include "src/core/edsr.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/trainer.h"
#include "src/core/noise.h"
#include "src/data/synthetic.h"
#include "src/io/container.h"
#include "src/tensor/grad_mode.h"
#include "tests/testing_util.h"

namespace edsr {
namespace {

using cl::StrategyContext;
using core::Edsr;
using core::EdsrOptions;
using core::ReplayLossMode;
using data::TaskSequence;

StrategyContext TinyContext(uint64_t seed = 0) {
  StrategyContext context;
  context.encoder.mlp_dims = {48, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.epochs = 3;
  context.batch_size = 16;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.seed = seed;
  return context;
}

TaskSequence TinySequence(uint64_t seed, int64_t tasks = 2) {
  data::SyntheticImageConfig config;
  config.name = "tiny";
  config.num_classes = 2 * tasks;
  config.train_per_class = 16;
  config.test_per_class = 8;
  config.geometry = {3, 4, 4};
  config.latent_dim = 6;
  config.class_separation = 3.5f;
  config.seed = seed;
  auto pair = MakeSyntheticImageData(config);
  return TaskSequence::SplitByClasses(pair.train, pair.test, tasks, nullptr);
}

// ---- Noise calculator -------------------------------------------------

TEST(KnnNoise, NeighborsAreNearest) {
  eval::RepresentationMatrix reps;
  reps.values = {0, 0, 1, 0, 5, 0, 1.2f, 0};
  reps.n = 4;
  reps.d = 2;
  std::vector<int64_t> nn = core::NearestNeighbors(reps, 0, 2);
  std::set<int64_t> set(nn.begin(), nn.end());
  EXPECT_EQ(set, (std::set<int64_t>{1, 3}));
}

TEST(KnnNoise, ScaleIsPerDimensionStd) {
  // Neighbors of index 0 are rows 1 and 2: dim0 values {1, 3} (std 1),
  // dim1 values {0, 0} (std 0).
  eval::RepresentationMatrix reps;
  reps.values = {0, 0, 1, 0, 3, 0, 100, 100};
  reps.n = 4;
  reps.d = 2;
  std::vector<float> scale = core::KnnNoiseScale(reps, 0, 2);
  EXPECT_NEAR(scale[0], 1.0f, 1e-5f);
  EXPECT_NEAR(scale[1], 0.0f, 1e-6f);
}

TEST(KnnNoise, ZeroNeighborsGivesZeroScale) {
  eval::RepresentationMatrix reps;
  reps.values = {1, 2, 3, 4};
  reps.n = 2;
  reps.d = 2;
  std::vector<float> scale = core::KnnNoiseScale(reps, 0, 0);
  EXPECT_EQ(scale, (std::vector<float>{0.0f, 0.0f}));
}

TEST(KnnNoise, KClampedToAvailable) {
  eval::RepresentationMatrix reps;
  reps.values = {0, 0, 1, 1, 2, 2};
  reps.n = 3;
  reps.d = 2;
  EXPECT_EQ(core::NearestNeighbors(reps, 0, 50).size(), 2u);
}

// ---- EDSR strategy ------------------------------------------------------

TEST(EdsrStrategy, SelectionStageFillsMemoryWithNoise) {
  StrategyContext context = TinyContext(1);
  Edsr strategy(context);
  TaskSequence seq = TinySequence(31);
  strategy.LearnIncrement(seq.task(0));
  ASSERT_EQ(strategy.memory().size(), context.memory_per_task);
  const cl::MemoryEntry& entry = strategy.memory().entry(0);
  EXPECT_EQ(static_cast<int64_t>(entry.noise_scale.size()),
            context.encoder.representation_dim);
  double total_scale = 0.0;
  for (const cl::MemoryEntry& e : strategy.memory().entries()) {
    for (float s : e.noise_scale) total_scale += s;
  }
  EXPECT_GT(total_scale, 0.0) << "kNN noise scales should not all be zero";
}

TEST(EdsrStrategy, DisModeStoresNoNoise) {
  StrategyContext context = TinyContext(2);
  EdsrOptions options;
  options.replay_mode = ReplayLossMode::kDis;
  Edsr strategy(context, options);
  TaskSequence seq = TinySequence(32);
  strategy.LearnIncrement(seq.task(0));
  EXPECT_TRUE(strategy.memory().entry(0).noise_scale.empty());
}

class ReplayModeTest : public ::testing::TestWithParam<ReplayLossMode> {};

TEST_P(ReplayModeTest, TwoIncrementsRunAndStayAboveChance) {
  StrategyContext context = TinyContext(3);
  EdsrOptions options;
  options.replay_mode = GetParam();
  Edsr strategy(context, options);
  TaskSequence seq = TinySequence(33);
  cl::ContinualRunResult result = cl::RunContinual(&strategy, seq, {});
  EXPECT_GT(result.matrix.FinalAcc(), 0.45);
  EXPECT_EQ(strategy.memory().size(), 2 * context.memory_per_task);
}

INSTANTIATE_TEST_SUITE_P(Modes, ReplayModeTest,
                         ::testing::Values(ReplayLossMode::kCss,
                                           ReplayLossMode::kDis,
                                           ReplayLossMode::kRpl));

TEST(EdsrStrategy, SelectedSamplesSpanHighEntropySubset) {
  // The stored subset should have a larger representation-space trace than
  // a random subset of the same size, by construction.
  StrategyContext context = TinyContext(4);
  context.epochs = 4;
  Edsr strategy(context);
  TaskSequence seq = TinySequence(34);
  strategy.LearnIncrement(seq.task(0));

  eval::RepresentationMatrix reps = eval::ExtractRepresentations(
      strategy.encoder(), seq.task(0).train);
  auto subset_norm = [&](const std::vector<int64_t>& subset) {
    double total = 0.0;
    for (int64_t i : subset) {
      for (int64_t j = 0; j < reps.d; ++j) {
        total += static_cast<double>(reps.Row(i)[j]) * reps.Row(i)[j];
      }
    }
    return total;
  };
  std::vector<int64_t> stored;
  for (const cl::MemoryEntry& e : strategy.memory().entries()) {
    stored.push_back(e.source_index);
  }
  util::Rng rng(99);
  double random_avg = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    random_avg += subset_norm(rng.SampleWithoutReplacement(
        seq.task(0).train.size(), static_cast<int64_t>(stored.size())));
  }
  random_avg /= 20.0;
  EXPECT_GE(subset_norm(stored), random_avg);
}

TEST(EdsrStrategy, CustomSelectorIsUsed) {
  StrategyContext context = TinyContext(5);
  EdsrOptions options;
  Edsr strategy(context, options, std::make_unique<cl::RandomSelector>(),
                "edsr-random");
  EXPECT_EQ(strategy.selector().name(), "random");
  EXPECT_EQ(strategy.name(), "edsr-random");
  TaskSequence seq = TinySequence(35);
  strategy.LearnIncrement(seq.task(0));
  EXPECT_EQ(strategy.memory().size(), context.memory_per_task);
}

TEST(EdsrStrategy, MinVarSelectorComputesVariance) {
  StrategyContext context = TinyContext(6);
  context.epochs = 2;
  EdsrOptions options;
  Edsr strategy(context, options, std::make_unique<cl::MinVarSelector>(),
                "edsr-minvar");
  TaskSequence seq = TinySequence(36);
  strategy.LearnIncrement(seq.task(0));
  EXPECT_EQ(strategy.memory().size(), context.memory_per_task);
}

TEST(EdsrStrategy, ForgetsLessThanFinetune) {
  // The headline qualitative claim (Table III shape): EDSR's forgetting is
  // no worse than plain finetuning on the same sequence. Averaged over
  // seeds to damp noise at this tiny scale.
  double finetune_fgt = 0.0;
  double edsr_fgt = 0.0;
  for (uint64_t seed = 0; seed < 2; ++seed) {
    StrategyContext context = TinyContext(seed);
    context.epochs = 4;
    TaskSequence seq = TinySequence(40 + seed, 3);
    cl::Finetune finetune(context);
    Edsr edsr_strategy(context);
    finetune_fgt += cl::RunContinual(&finetune, seq, {}).matrix.FinalFgt();
    edsr_fgt += cl::RunContinual(&edsr_strategy, seq, {}).matrix.FinalFgt();
  }
  EXPECT_LE(edsr_fgt, finetune_fgt + 0.05);
}

// Every "strategy/*" section of a run checkpoint, by name.
std::map<std::string, std::vector<uint8_t>> StrategySections(
    const std::string& path) {
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::map<std::string, std::vector<uint8_t>> sections;
  if (!reader.ok()) return sections;
  for (const std::string& name : (*reader).SectionNames()) {
    if (name.rfind("strategy/", 0) != 0) continue;
    EXPECT_TRUE((*reader).ReadSection(name, &sections[name]).ok()) << name;
  }
  return sections;
}

// One EDSR train step with the teacher and the replay active builds 36
// autograd nodes: one per Mlp layer (the encoder's four for each view and
// for the replay batch, the predictor's two for each view, p_dis's two for
// each of the three distillation targets), one per negative cosine
// (SimSiam's two, L_dis's two, L_rpl's one), and nine for the sums and
// weights that combine the terms.
TEST(EdsrStrategy, OneTrainStepWithTeacherAndReplayBuildsThirtySixNodes) {
  const StrategyContext context = TinyContext(5);
  const TaskSequence seq = TinySequence(21);
  Edsr strategy(context);
  strategy.LearnIncrement(seq.task(0));
  const data::Task& task = seq.task(1);
  strategy.StreamBeginCycle(task);
  ASSERT_TRUE(strategy.has_teacher());
  ASSERT_FALSE(strategy.memory().empty());
  const int64_t before = tensor::AutogradNodesCreated();
  strategy.StreamTrainBatch(task);
  EXPECT_EQ(tensor::AutogradNodesCreated() - before, 36);
  strategy.StreamEndCycle(task);
}

// Opens CaSSLe's L_dis to a test: Eq. 16's L_rpl is DistillLoss on the
// noisy target z~ + r(x) * sigma.
class DistillProbe : public cl::Cassle {
 public:
  using cl::Cassle::Cassle;
  using cl::Cassle::DistillLoss;
  using cl::Cassle::ExtraParameters;
};

// L_rpl(z, z~ | r) = L_css(p_dis(z), sg(z~ + r * sigma)) (Eq. 16) through the
// fused p_dis layers and the fused cosine: the analytic gradient into the
// student side (z and p_dis's parameters) matches central differences, and
// the target, built as EDSR builds it and marked as wanting a gradient,
// gets none: the stop-gradient holds.
TEST(EdsrStrategy, ReplayLossGradcheckHonoursTheStopGradient) {
  const StrategyContext context = TinyContext(9);
  const TaskSequence seq = TinySequence(23);
  DistillProbe probe(context);
  probe.LearnIncrement(seq.task(0));
  probe.StreamBeginCycle(seq.task(1));  // the teacher and p_dis exist now
  ASSERT_TRUE(probe.has_teacher());

  util::Rng rng(4);
  const int64_t n = 6;
  const int64_t d = context.encoder.representation_dim;
  tensor::Tensor z = testing::RandomTensor({n, d}, &rng);
  // z~ + r(x) * sigma, sigma ~ N(0, I), as Edsr::GroupReplayLoss draws it.
  std::vector<float> noisy(n * d);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      const float teacher = rng.Uniform(-1.0f, 1.0f);
      const float scale = rng.Uniform(0.05f, 0.5f);
      noisy[i * d + j] = teacher + scale * rng.Normal();
    }
  }
  tensor::Tensor target =
      tensor::Tensor::FromVector(noisy, {n, d}, /*requires_grad=*/true);
  std::vector<tensor::Tensor> inputs = {z};
  for (const tensor::Tensor& p : probe.ExtraParameters()) inputs.push_back(p);
  ASSERT_GT(inputs.size(), 1u) << "p_dis has parameters";
  testing::ExpectGradientsMatch(
      [&] { return probe.DistillLoss(z, target); }, inputs);
  EXPECT_TRUE(target.grad().empty()) << "the target took a gradient";
  probe.StreamEndCycle(seq.task(1));
}

TEST(EdsrStrategy, ZeroNeighbourReplayEqualsDistillationReplay) {
  // Eq. 16 with k = 0: r(x) is empty, so L_rpl's target z~ + r(x) * sigma is
  // z~ and no noise is drawn. The run must then be L_dis replay to the bit:
  // the same accuracy matrix and the same strategy checkpoint bytes (weights,
  // optimizer, rng, memory). run/meta holds wall-clock seconds, so only the
  // strategy/* sections are compared.
  const StrategyContext context = TinyContext(11);
  const TaskSequence seq = TinySequence(34, 3);
  auto run = [&](ReplayLossMode mode, int64_t neighbors,
                 const std::string& name) {
    EdsrOptions options;
    options.replay_mode = mode;
    options.noise_neighbors = neighbors;
    Edsr strategy(context, options);
    cl::CheckpointOptions checkpoint;
    checkpoint.directory = ::testing::TempDir() + "/edsr_k0_" + name;
    std::filesystem::remove_all(checkpoint.directory);
    cl::ContinualRunResult result =
        cl::RunContinual(&strategy, seq, {}, checkpoint);
    return std::make_pair(
        result.matrix,
        StrategySections(checkpoint.directory + "/run.ckpt"));
  };
  auto [rpl0_matrix, rpl0] = run(ReplayLossMode::kRpl, 0, "rpl0");
  auto [dis_matrix, dis] = run(ReplayLossMode::kDis, 0, "dis");
  auto rpl10 = run(ReplayLossMode::kRpl, 10, "rpl10").second;

  ASSERT_EQ(rpl0_matrix.num_tasks(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      ASSERT_TRUE(rpl0_matrix.IsSet(i, j));
      EXPECT_EQ(rpl0_matrix.Get(i, j), dis_matrix.Get(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }
  ASSERT_FALSE(rpl0.empty());
  ASSERT_EQ(rpl0.size(), dis.size());
  for (const auto& [name, bytes] : rpl0) {
    ASSERT_EQ(dis.count(name), 1u) << name;
    EXPECT_TRUE(bytes == dis.at(name)) << name << " differs";
  }
  // The comparison can fail: with k = 10 the noise reaches the weights and
  // the stored r(x), so the checkpoint differs.
  EXPECT_NE(rpl10, dis);
}

TEST(EdsrStrategy, TabularHeterogeneousReplay) {
  // EDSR end-to-end on two tabular increments with different dims: replay
  // must route memory through the correct input head.
  data::SyntheticTabularConfig a, b;
  a.name = "a";
  a.num_features = 5;
  a.train_size = 40;
  a.test_size = 16;
  a.seed = 41;
  b.name = "b";
  b.num_features = 9;
  b.train_size = 40;
  b.test_size = 16;
  b.seed = 42;
  auto pa = MakeSyntheticTabularData(a);
  auto pb = MakeSyntheticTabularData(b);
  TaskSequence seq = TaskSequence::FromDatasets(
      {{pa.train, pa.test}, {pb.train, pb.test}});

  StrategyContext context;
  context.encoder.mlp_dims = {12, 24, 24};
  context.encoder.projector_hidden = 24;
  context.encoder.representation_dim = 12;
  context.encoder.input_head_dims = {5, 9};
  context.epochs = 3;
  context.batch_size = 16;
  context.use_adam = true;
  context.memory_per_task = 6;
  context.replay_batch_size = 8;
  context.seed = 43;

  Edsr strategy(context);
  cl::ContinualRunResult result = cl::RunContinual(&strategy, seq, {});
  EXPECT_EQ(strategy.memory().size(), 12);
  // Entries from different increments have different feature dims.
  EXPECT_EQ(strategy.memory().entry(0).features.size(), 5u);
  EXPECT_EQ(strategy.memory().entry(6).features.size(), 9u);
  EXPECT_GE(result.matrix.FinalAcc(), 0.3);
}

}  // namespace
}  // namespace edsr
