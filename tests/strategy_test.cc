// Tests for the strategy base loop and the baseline methods
// (Finetune, SI, DER, LUMP, CaSSLe).
#include "src/cl/strategy.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/cl/cassle.h"
#include "src/cl/der.h"
#include "src/cl/factory.h"
#include "src/cl/lump.h"
#include "src/cl/si.h"
#include "src/cl/trainer.h"
#include "src/data/synthetic.h"
#include "src/tensor/grad_mode.h"

namespace edsr {
namespace {

using cl::StrategyContext;
using data::TaskSequence;

// Small but learnable image workload: 4 classes -> 2 tasks x 2 classes.
data::SyntheticImagePair TinyImages(uint64_t seed) {
  data::SyntheticImageConfig config;
  config.name = "tiny";
  config.num_classes = 4;
  config.train_per_class = 16;
  config.test_per_class = 8;
  config.geometry = {3, 4, 4};
  config.latent_dim = 6;
  config.class_separation = 3.5f;
  config.seed = seed;
  return MakeSyntheticImageData(config);
}

StrategyContext TinyContext(uint64_t seed = 0) {
  StrategyContext context;
  context.encoder.mlp_dims = {48, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.epochs = 3;
  context.batch_size = 16;
  context.lr = 0.05f;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.seed = seed;
  return context;
}

TaskSequence TinySequence(uint64_t seed) {
  data::SyntheticImagePair pair = TinyImages(seed);
  return TaskSequence::SplitByClasses(pair.train, pair.test, 2, nullptr);
}

TEST(Finetune, LearnsAboveChance) {
  StrategyContext context = TinyContext(1);
  context.epochs = 6;
  cl::Finetune strategy(context);
  TaskSequence seq = TinySequence(11);
  strategy.LearnIncrement(seq.task(0));
  double acc = cl::EvaluateTask(strategy.encoder(), seq.task(0), {});
  // Two classes in the task: chance is 0.5.
  EXPECT_GT(acc, 0.6) << "finetune failed to learn a single increment";
}

TEST(Finetune, TrainingReducesSimSiamLoss) {
  // The encoder should produce more view-invariant representations after
  // training: directly check the loss trend via two manual increments.
  StrategyContext context = TinyContext(2);
  context.epochs = 1;
  cl::Finetune strategy(context);
  TaskSequence seq = TinySequence(12);
  strategy.LearnIncrement(seq.task(0));
  EXPECT_EQ(strategy.increments_seen(), 1);
  strategy.LearnIncrement(seq.task(1));
  EXPECT_EQ(strategy.increments_seen(), 2);
}

TEST(Si, AccumulatesImportanceAcrossIncrements) {
  cl::Si strategy(TinyContext(3));
  TaskSequence seq = TinySequence(13);
  EXPECT_DOUBLE_EQ(strategy.TotalImportance(), 0.0);
  strategy.LearnIncrement(seq.task(0));
  double after_first = strategy.TotalImportance();
  EXPECT_GT(after_first, 0.0);
  strategy.LearnIncrement(seq.task(1));
  EXPECT_GT(strategy.TotalImportance(), after_first);
}

TEST(Der, StoresDataWithBackboneOutputs) {
  StrategyContext context = TinyContext(4);
  cl::Der strategy(context);
  TaskSequence seq = TinySequence(14);
  strategy.LearnIncrement(seq.task(0));
  EXPECT_EQ(strategy.memory().size(), context.memory_per_task);
  const cl::MemoryEntry& entry = strategy.memory().entry(0);
  EXPECT_EQ(entry.task_id, 0);
  EXPECT_EQ(static_cast<int64_t>(entry.features.size()), 48);
  EXPECT_FALSE(entry.stored_output.empty());
  // Second increment replays without error and stores its own quota.
  strategy.LearnIncrement(seq.task(1));
  EXPECT_EQ(strategy.memory().size(), 2 * context.memory_per_task);
}

TEST(Lump, StoresAndMixes) {
  StrategyContext context = TinyContext(5);
  cl::Lump strategy(context);
  TaskSequence seq = TinySequence(15);
  strategy.LearnIncrement(seq.task(0));
  EXPECT_EQ(strategy.memory().size(), context.memory_per_task);
  EXPECT_TRUE(strategy.memory().entry(0).stored_output.empty());
  strategy.LearnIncrement(seq.task(1));  // exercises the mixup path
  EXPECT_EQ(strategy.memory().size(), 2 * context.memory_per_task);
}

TEST(Cassle, TeacherAppearsAtSecondIncrement) {
  cl::Cassle strategy(TinyContext(6));
  TaskSequence seq = TinySequence(16);
  EXPECT_FALSE(strategy.has_teacher());
  strategy.LearnIncrement(seq.task(0));
  EXPECT_FALSE(strategy.has_teacher()) << "no teacher for the first increment";
  strategy.LearnIncrement(seq.task(1));
  EXPECT_TRUE(strategy.has_teacher());
}

TEST(Cassle, DistillationRestrainsDrift) {
  // After learning task 1, the CaSSLe encoder should stay closer to its
  // pre-increment representation of task 0 than a plain finetuned encoder
  // (relative drift in representation space).
  StrategyContext context = TinyContext(7);
  context.epochs = 4;
  TaskSequence seq = TinySequence(17);

  auto drift = [&](cl::ContinualStrategy* strategy) {
    strategy->LearnIncrement(seq.task(0));
    eval::RepresentationMatrix before =
        eval::ExtractRepresentations(strategy->encoder(), seq.task(0).train);
    strategy->LearnIncrement(seq.task(1));
    eval::RepresentationMatrix after =
        eval::ExtractRepresentations(strategy->encoder(), seq.task(0).train);
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < before.values.size(); ++i) {
      double diff = after.values[i] - before.values[i];
      num += diff * diff;
      den += static_cast<double>(before.values[i]) * before.values[i];
    }
    return num / (den + 1e-9);
  };
  cl::Finetune finetune(context);
  cl::Cassle cassle(context);
  double finetune_drift = drift(&finetune);
  double cassle_drift = drift(&cassle);
  EXPECT_LT(cassle_drift, finetune_drift)
      << "distillation should reduce representation drift";
}

TEST(Factory, ConstructsEveryStrategy) {
  StrategyContext context = TinyContext(8);
  for (const char* name :
       {"finetune", "si", "der", "lump", "cassle", "edsr", "edsr-css",
        "edsr-dis", "edsr-random", "edsr-distant", "edsr-kmeans",
        "edsr-minvar", "edsr-norm", "edsr-logdet"}) {
    auto strategy = cl::MakeStrategy(name, context);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
  EXPECT_EQ(cl::MakeStrategy("nope", context), nullptr);
}

TEST(Trainer, RunContinualFillsMatrix) {
  StrategyContext context = TinyContext(9);
  context.epochs = 2;
  cl::Finetune strategy(context);
  TaskSequence seq = TinySequence(19);
  cl::ContinualRunResult result = cl::RunContinual(&strategy, seq, {});
  EXPECT_TRUE(result.matrix.IsSet(0, 0));
  EXPECT_TRUE(result.matrix.IsSet(1, 0));
  EXPECT_TRUE(result.matrix.IsSet(1, 1));
  EXPECT_GT(result.train_seconds, 0.0);
  double acc = result.matrix.FinalAcc();
  EXPECT_GT(acc, 0.4);
  EXPECT_LE(acc, 1.0);
}

TEST(Trainer, MultitaskRunsOnImages) {
  StrategyContext context = TinyContext(10);
  context.epochs = 2;
  TaskSequence seq = TinySequence(20);
  double acc = cl::MultitaskAccuracy(context, seq, {});
  EXPECT_GT(acc, 0.4);
  EXPECT_LE(acc, 1.0);
}

TEST(Trainer, HeterogeneousTabularSequenceTrains) {
  // Two tabular increments with different dims through input heads.
  data::SyntheticTabularConfig a, b;
  a.name = "a";
  a.num_features = 6;
  a.train_size = 40;
  a.test_size = 16;
  a.seed = 21;
  b.name = "b";
  b.num_features = 11;
  b.train_size = 40;
  b.test_size = 16;
  b.seed = 22;
  auto pa = MakeSyntheticTabularData(a);
  auto pb = MakeSyntheticTabularData(b);
  TaskSequence seq = TaskSequence::FromDatasets(
      {{pa.train, pa.test}, {pb.train, pb.test}});

  StrategyContext context;
  context.encoder.mlp_dims = {16, 24, 24};
  context.encoder.projector_hidden = 24;
  context.encoder.representation_dim = 12;
  context.encoder.input_head_dims = {6, 11};
  context.epochs = 3;
  context.batch_size = 16;
  context.use_adam = true;
  context.memory_per_task = 6;
  context.replay_batch_size = 6;
  context.seed = 23;

  cl::Cassle strategy(context);
  cl::ContinualRunResult result = cl::RunContinual(&strategy, seq, {});
  EXPECT_TRUE(result.matrix.IsSet(1, 0));
  EXPECT_GE(result.matrix.FinalAcc(), 0.3);
}

// A buffer of several increments (sizes that straddle the 64-row chunks of
// MemoryRepresentations), each entry's features `dims[task]` wide.
cl::MemoryBuffer MultiIncrementBuffer(const std::vector<int64_t>& dims,
                                      const std::vector<int64_t>& sizes) {
  cl::MemoryBuffer memory(/*per_task_budget=*/64);
  util::Rng rng(31);
  for (size_t task = 0; task < sizes.size(); ++task) {
    std::vector<cl::MemoryEntry> entries(sizes[task]);
    for (cl::MemoryEntry& e : entries) {
      e.features.resize(dims[task]);
      for (float& v : e.features) v = rng.Uniform(-1.0f, 1.0f);
      e.task_id = static_cast<int64_t>(task);
    }
    memory.AddIncrement(std::move(entries));
  }
  return memory;
}

// Every row of MemoryRepresentations equals a forward of that row alone, in
// eval mode through its increment's head: the grouping and chunking of the
// buffer move no bit.
void ExpectPerRowForwards(cl::ContinualStrategy* strategy,
                          const cl::MemoryBuffer& memory) {
  ssl::Encoder* encoder = strategy->encoder();
  encoder->SetTraining(true);  // MemoryRepresentations switches to eval
  eval::RepresentationMatrix reps = strategy->MemoryRepresentations(memory);
  EXPECT_TRUE(encoder->training());
  ASSERT_EQ(reps.n, memory.size());
  tensor::NoGradGuard no_grad;
  encoder->SetTraining(false);
  for (int64_t i = 0; i < memory.size(); ++i) {
    if (encoder->has_input_heads()) {
      encoder->SetActiveHead(memory.entry(i).task_id);
    }
    tensor::Tensor row = encoder->Forward(memory.GatherFeatures({i}));
    ASSERT_EQ(row.numel(), reps.d);
    EXPECT_EQ(std::memcmp(row.data().data(), reps.values.data() + i * reps.d,
                          reps.d * sizeof(float)),
              0)
        << "row " << i;
  }
}

TEST(MemoryRepresentations, HeadlessWholeBufferMatchesPerRowForwards) {
  StrategyContext context = TinyContext(11);
  cl::Finetune strategy(context);
  ExpectPerRowForwards(&strategy,
                       MultiIncrementBuffer({48, 48, 48}, {37, 50, 20}));
}

TEST(MemoryRepresentations, InputHeadsMatchPerRowForwards) {
  StrategyContext context = TinyContext(12);
  context.encoder.mlp_dims = {16, 24, 24};
  context.encoder.input_head_dims = {6, 11, 6};
  cl::Finetune strategy(context);
  ExpectPerRowForwards(&strategy,
                       MultiIncrementBuffer({6, 11, 6}, {37, 50, 20}));
}

}  // namespace
}  // namespace edsr
