// Streaming subsystem tests: dirty-data transforms (determinism, noise
// rates, power-law imbalance), spec-chain parsing, cycle triggers, source
// state round-trips, and the headline driver guarantee — a boundary-free
// run killed mid-stream and resumed from its checkpoint produces the
// bit-identical cycle records of an uninterrupted run.
#include "src/stream/driver.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/factory.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/stream/source.h"
#include "src/stream/transform.h"
#include "src/stream/trigger.h"

namespace edsr {
namespace {

using stream::StreamRegistry;
using stream::StreamSample;
using stream::StreamSource;
using stream::StreamTransform;
using stream::TriggerContext;
using stream::TriggerRegistry;

data::SyntheticImageConfig TinyConfig(int64_t num_classes = 4) {
  data::SyntheticImageConfig config;
  config.name = "tiny";
  config.num_classes = num_classes;
  config.train_per_class = 16;
  config.test_per_class = 8;
  config.geometry = {3, 4, 4};
  config.latent_dim = 6;
  config.class_separation = 3.5f;
  config.seed = 9;
  return config;
}

data::Dataset TinyTrain(int64_t num_classes = 4) {
  return MakeSyntheticImageData(TinyConfig(num_classes)).train;
}

std::vector<std::unique_ptr<StreamTransform>> Chain(
    const std::vector<std::string>& specs) {
  std::vector<std::unique_ptr<StreamTransform>> transforms;
  for (const std::string& spec : specs) {
    transforms.push_back(
        std::move(StreamRegistry::Global().Create(spec)).ValueOrDie());
  }
  return transforms;
}

std::string TestDir(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// A drift probe that must never run (count triggers, pre-min drift gates).
double ForbiddenProbe() {
  ADD_FAILURE() << "drift probe invoked by a trigger that must not need it";
  return 0.0;
}

TEST(StreamTransforms, RegistryHasBuiltins) {
  EXPECT_EQ(StreamRegistry::Global().Names(),
            (std::vector<std::string>{"imbalance", "label_noise", "corrupt"}));
}

TEST(StreamTransforms, UnknownNameListsRegistered) {
  auto result = StreamRegistry::Global().Create("bogus:x=1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("imbalance"), std::string::npos);
  EXPECT_NE(result.status().message().find("label_noise"), std::string::npos);
}

TEST(StreamTransforms, ParameterValidation) {
  EXPECT_FALSE(StreamRegistry::Global().Create("label_noise:p=1.5").ok());
  EXPECT_FALSE(StreamRegistry::Global().Create("imbalance:alpha=-1").ok());
  EXPECT_FALSE(StreamRegistry::Global().Create("corrupt:burst=0").ok());
  // Unknown parameters fail via SpecParams::Finish.
  EXPECT_FALSE(StreamRegistry::Global().Create("imbalance:beta=1").ok());
  EXPECT_TRUE(StreamRegistry::Global().Create("imbalance:alpha=2").ok());
  // Non-finite values would pass every range test above.
  EXPECT_FALSE(StreamRegistry::Global().Create("imbalance:alpha=nan").ok());
  EXPECT_FALSE(StreamRegistry::Global().Create("corrupt:strength=inf").ok());
}

TEST(StreamSourceTest, DeterministicUnderFixedSeed) {
  StreamSource a(TinyTrain(),
                 Chain({"imbalance:alpha=1.0", "label_noise:p=0.3",
                        "corrupt:p=0.2,strength=0.5"}),
                 /*seed=*/42);
  StreamSource b(TinyTrain(),
                 Chain({"imbalance:alpha=1.0", "label_noise:p=0.3",
                        "corrupt:p=0.2,strength=0.5"}),
                 /*seed=*/42);
  std::vector<StreamSample> batch_a = a.NextBatch(64);
  std::vector<StreamSample> batch_b = b.NextBatch(64);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_EQ(batch_a[i].source_index, batch_b[i].source_index);
    EXPECT_EQ(batch_a[i].label, batch_b[i].label);
    EXPECT_EQ(batch_a[i].observed_label, batch_b[i].observed_label);
    EXPECT_EQ(batch_a[i].features, batch_b[i].features);
  }
}

TEST(StreamSourceTest, LabelNoiseRateMatchesP) {
  const double p = 0.3;
  StreamSource source(TinyTrain(), Chain({"label_noise:p=0.3"}), /*seed=*/7);
  const int64_t n = 4000;
  std::vector<StreamSample> batch = source.NextBatch(n);
  int64_t flipped = 0;
  for (const StreamSample& sample : batch) {
    if (sample.observed_label != sample.label) {
      ++flipped;
      // A flip always lands on a *different* valid class.
      EXPECT_GE(sample.observed_label, 0);
      EXPECT_LT(sample.observed_label, 4);
    }
  }
  double rate = static_cast<double>(flipped) / static_cast<double>(n);
  // Binomial stddev at n=4000 is ~0.007; 0.04 is a > 5-sigma tolerance.
  EXPECT_NEAR(rate, p, 0.04);
}

TEST(StreamSourceTest, ImbalanceHistogramMatchesPowerLaw) {
  const double alpha = 1.0;
  const int64_t num_classes = 4;
  StreamSource source(TinyTrain(num_classes), Chain({"imbalance:alpha=1.0"}),
                      /*seed=*/11);
  const int64_t n = 8000;
  std::vector<StreamSample> batch = source.NextBatch(n);
  std::vector<int64_t> histogram(num_classes, 0);
  for (const StreamSample& sample : batch) ++histogram[sample.label];
  double norm = 0.0;
  for (int64_t c = 0; c < num_classes; ++c) {
    norm += std::pow(static_cast<double>(c + 1), -alpha);
  }
  for (int64_t c = 0; c < num_classes; ++c) {
    double expected = std::pow(static_cast<double>(c + 1), -alpha) / norm;
    double observed =
        static_cast<double>(histogram[c]) / static_cast<double>(n);
    EXPECT_NEAR(observed, expected, 0.03)
        << "class " << c << " frequency off the power law";
  }
  // The head class dominates the tail.
  EXPECT_GT(histogram[0], histogram[num_classes - 1] * 2);
}

TEST(StreamSourceTest, SerializeRoundTripContinuesIdentically) {
  auto chain_specs = std::vector<std::string>{
      "imbalance:alpha=1.5", "label_noise:p=0.2",
      "corrupt:p=1.0,burst=3,strength=0.4"};
  StreamSource a(TinyTrain(), Chain(chain_specs), /*seed=*/13);
  a.NextBatch(37);  // p=1 guarantees a burst is open mid-stream

  io::BufferWriter writer;
  a.Serialize(&writer);
  StreamSource b(TinyTrain(), Chain(chain_specs), /*seed=*/999);
  io::BufferReader reader(writer.bytes());
  ASSERT_TRUE(b.Deserialize(&reader).ok());
  EXPECT_EQ(b.emitted(), 37);

  std::vector<StreamSample> next_a = a.NextBatch(20);
  std::vector<StreamSample> next_b = b.NextBatch(20);
  for (size_t i = 0; i < next_a.size(); ++i) {
    EXPECT_EQ(next_a[i].source_index, next_b[i].source_index);
    EXPECT_EQ(next_a[i].observed_label, next_b[i].observed_label);
    EXPECT_EQ(next_a[i].features, next_b[i].features);
  }
}

TEST(StreamSourceTest, DeserializeRejectsMismatchedChain) {
  StreamSource a(TinyTrain(), Chain({"label_noise:p=0.2"}), /*seed=*/1);
  io::BufferWriter writer;
  a.Serialize(&writer);
  // Different stage count.
  StreamSource b(TinyTrain(), Chain({}), /*seed=*/1);
  io::BufferReader reader_b(writer.bytes());
  EXPECT_FALSE(b.Deserialize(&reader_b).ok());
  // Same count, different stage name.
  StreamSource c(TinyTrain(), Chain({"imbalance:alpha=1"}), /*seed=*/1);
  io::BufferReader reader_c(writer.bytes());
  util::Status status = c.Deserialize(&reader_c);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("label_noise"), std::string::npos);
}

TEST(StreamSpecTest, ParsesPresetAndStages) {
  auto result = stream::ParseStreamSpec(
      "SynthCifar10|imbalance:alpha=1.5|label_noise:p=0.2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result).preset, "SynthCifar10");
  ASSERT_EQ((*result).stages.size(), 2u);
  EXPECT_EQ((*result).stages[0], "imbalance:alpha=1.5");
}

TEST(StreamSpecTest, RejectsUnknownStageListingRegistered) {
  auto result = stream::ParseStreamSpec("SynthCifar10|warp:x=1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("imbalance"), std::string::npos);
  EXPECT_NE(result.status().message().find("corrupt"), std::string::npos);
}

TEST(StreamSpecTest, RejectsUnknownPresetListingPresets) {
  auto result = stream::ParseStreamSpec("Cifar10|imbalance:alpha=1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("SynthCifar10"), std::string::npos);
  EXPECT_FALSE(stream::ParseStreamSpec("").ok());
  EXPECT_FALSE(stream::ParseStreamSpec("SynthCifar10||corrupt").ok());
}

TEST(TriggerTest, RegistryAndValidation) {
  EXPECT_EQ(TriggerRegistry::Global().Names(),
            (std::vector<std::string>{"count", "drift"}));
  auto unknown = TriggerRegistry::Global().Create("cadence");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("count"), std::string::npos);
  EXPECT_FALSE(TriggerRegistry::Global().Create("count:n=0").ok());
  EXPECT_FALSE(TriggerRegistry::Global().Create("drift:threshold=0").ok());
  EXPECT_FALSE(
      TriggerRegistry::Global().Create("drift:min=100,max=50").ok());
  EXPECT_FALSE(TriggerRegistry::Global().Create("drift:threshold=nan").ok());
}

TEST(TriggerTest, CountFiresOnCadenceWithoutProbing) {
  auto trigger =
      std::move(TriggerRegistry::Global().Create("count:n=32")).ValueOrDie();
  TriggerContext context;
  context.samples_in_cycle = 31;
  EXPECT_EQ(trigger->ShouldFire(context, ForbiddenProbe), "");
  context.samples_in_cycle = 32;
  EXPECT_EQ(trigger->ShouldFire(context, ForbiddenProbe), "count");
}

TEST(TriggerTest, DriftGatesProbesAndFires) {
  auto trigger = std::move(TriggerRegistry::Global().Create(
                               "drift:threshold=0.5,min=16,max=64,check=2"))
                     .ValueOrDie();
  TriggerContext context;
  // Below min: never probes.
  context.samples_in_cycle = 8;
  context.micro_batches_in_cycle = 2;
  EXPECT_EQ(trigger->ShouldFire(context, ForbiddenProbe), "");
  // Past min but off the check cadence: never probes.
  context.samples_in_cycle = 24;
  context.micro_batches_in_cycle = 3;
  EXPECT_EQ(trigger->ShouldFire(context, ForbiddenProbe), "");
  // On cadence, cold start (negative probe): keeps streaming.
  context.micro_batches_in_cycle = 4;
  EXPECT_EQ(trigger->ShouldFire(context, [] { return -1.0; }), "");
  // On cadence, below threshold: keeps streaming.
  EXPECT_EQ(trigger->ShouldFire(context, [] { return 0.4; }), "");
  // On cadence, at threshold: fires with cause "drift".
  EXPECT_EQ(trigger->ShouldFire(context, [] { return 0.5; }), "drift");
  // At the ceiling: forces a fire without probing.
  context.samples_in_cycle = 64;
  EXPECT_EQ(trigger->ShouldFire(context, ForbiddenProbe), "max");
}

cl::StrategyContext TinyContext(uint64_t seed = 0) {
  cl::StrategyContext context;
  // SynthCifar10 geometry is {3, 8, 8} = 192 input features.
  context.encoder.mlp_dims = {192, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.batch_size = 8;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.seed = seed;
  return context;
}

struct StreamFixture {
  std::unique_ptr<cl::ContinualStrategy> strategy;
  const core::Edsr* edsr = nullptr;
  stream::StreamBundle bundle;
  std::unique_ptr<stream::CycleTrigger> trigger;
  data::Task id_task;
};

StreamFixture MakeFixture(const std::string& trigger_spec) {
  StreamFixture fixture;
  fixture.strategy = cl::MakeStrategy("edsr", TinyContext());
  fixture.edsr = dynamic_cast<const core::Edsr*>(fixture.strategy.get());
  fixture.bundle = std::move(stream::MakeStreamBundle(
                                 "SynthCifar10|imbalance:alpha=1.2|"
                                 "label_noise:p=0.2",
                                 /*seed=*/3))
                       .ValueOrDie();
  fixture.trigger =
      std::move(TriggerRegistry::Global().Create(trigger_spec)).ValueOrDie();
  fixture.id_task.train = fixture.bundle.id_train;
  fixture.id_task.test = fixture.bundle.id_test;
  fixture.id_task.task_id = 0;
  return fixture;
}

stream::StreamRunOptions TinyOptions(const StreamFixture& fixture) {
  stream::StreamRunOptions options;
  options.micro_batch = 8;
  options.total_samples = 48;
  options.id_probe = &fixture.id_task;
  options.memory = &fixture.edsr->memory();
  options.stream_spec = "SynthCifar10|imbalance:alpha=1.2|label_noise:p=0.2";
  options.trigger_spec = "count:n=16";
  return options;
}

void ExpectSameCycles(const stream::StreamRunResult& a,
                      const stream::StreamRunResult& b) {
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  EXPECT_EQ(a.total_samples, b.total_samples);
  for (size_t i = 0; i < a.cycles.size(); ++i) {
    const stream::StreamCycleResult& x = a.cycles[i];
    const stream::StreamCycleResult& y = b.cycles[i];
    EXPECT_EQ(x.cycle, y.cycle);
    EXPECT_EQ(x.cause, y.cause);
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.micro_batches, y.micro_batches);
    EXPECT_EQ(x.total_samples, y.total_samples);
    EXPECT_EQ(x.loss, y.loss);  // bit-identical, not approximately equal
    EXPECT_EQ(x.drift, y.drift);
    EXPECT_EQ(x.buffer_size, y.buffer_size);
    EXPECT_EQ(x.buffer_entropy, y.buffer_entropy);
    EXPECT_EQ(x.id_accuracy, y.id_accuracy);
    EXPECT_EQ(x.ood_accuracy, y.ood_accuracy);
  }
}

TEST(StreamDriverTest, RejectsBadOptions) {
  StreamFixture fixture = MakeFixture("count:n=16");
  stream::StreamRunOptions options = TinyOptions(fixture);
  options.micro_batch = 1;
  EXPECT_FALSE(stream::RunStream(fixture.strategy.get(),
                                 fixture.bundle.source.get(),
                                 fixture.trigger.get(), options)
                   .ok());
  options = TinyOptions(fixture);
  options.id_probe = nullptr;
  EXPECT_FALSE(stream::RunStream(fixture.strategy.get(),
                                 fixture.bundle.source.get(),
                                 fixture.trigger.get(), options)
                   .ok());
}

TEST(StreamDriverTest, CountTriggerDrivesWholeStream) {
  StreamFixture fixture = MakeFixture("count:n=16");
  stream::StreamRunOptions options = TinyOptions(fixture);
  auto result = stream::RunStream(fixture.strategy.get(),
                                  fixture.bundle.source.get(),
                                  fixture.trigger.get(), options);
  ASSERT_TRUE(result.ok());
  const stream::StreamRunResult& run = *result;
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.total_samples, 48);
  ASSERT_EQ(run.cycles.size(), 3u);
  for (const stream::StreamCycleResult& cycle : run.cycles) {
    EXPECT_EQ(cycle.cause, "count");
    EXPECT_EQ(cycle.samples, 16);
    EXPECT_EQ(cycle.micro_batches, 2);
    EXPECT_GE(cycle.id_accuracy, 0.0);
    EXPECT_LE(cycle.id_accuracy, 1.0);
    EXPECT_EQ(cycle.ood_accuracy, -1.0);  // no OOD probe configured
    EXPECT_GE(cycle.buffer_entropy, 0.0);
  }
  // The buffer grows cycle over cycle (memory_per_task entries per cycle).
  EXPECT_GT(run.cycles.back().buffer_size, run.cycles.front().buffer_size);
}

TEST(StreamDriverTest, DriftTriggerColdStartsAtMax) {
  StreamFixture fixture =
      MakeFixture("drift:threshold=0.000001,min=8,max=24,check=1");
  stream::StreamRunOptions options = TinyOptions(fixture);
  options.trigger_spec = "drift:threshold=0.000001,min=8,max=24,check=1";
  options.total_samples = 64;
  auto result = stream::RunStream(fixture.strategy.get(),
                                  fixture.bundle.source.get(),
                                  fixture.trigger.get(), options);
  ASSERT_TRUE(result.ok());
  const stream::StreamRunResult& run = *result;
  ASSERT_GE(run.cycles.size(), 2u);
  // Cycle 0 has no buffer anchors — the ceiling carries it.
  EXPECT_EQ(run.cycles[0].cause, "max");
  EXPECT_LT(run.cycles[0].drift, 0.0);
  // Once anchors exist, the (tiny) threshold fires on real drift.
  EXPECT_EQ(run.cycles[1].cause, "drift");
  EXPECT_GT(run.cycles[1].drift, 0.0);
}

TEST(StreamDriverTest, ResumeAfterKillIsBitIdentical) {
  // Straight run.
  StreamFixture straight = MakeFixture("count:n=16");
  stream::StreamRunOptions options = TinyOptions(straight);
  options.checkpoint_directory = TestDir("stream_straight");
  auto full = stream::RunStream(straight.strategy.get(),
                                straight.bundle.source.get(),
                                straight.trigger.get(), options);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ((*full).cycles.size(), 3u);

  // Killed run: stop (still checkpointed) after cycle 0.
  StreamFixture killed = MakeFixture("count:n=16");
  stream::StreamRunOptions killed_options = TinyOptions(killed);
  killed_options.checkpoint_directory = TestDir("stream_killed");
  killed_options.stop_after_cycle = 0;
  auto partial = stream::RunStream(killed.strategy.get(),
                                   killed.bundle.source.get(),
                                   killed.trigger.get(), killed_options);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE((*partial).finished);
  EXPECT_EQ((*partial).cycles.size(), 1u);

  // Resume into freshly constructed strategy/source/trigger.
  StreamFixture resumed = MakeFixture("count:n=16");
  stream::StreamRunOptions resume_options = TinyOptions(resumed);
  resume_options.checkpoint_directory = TestDir("stream_killed");
  stream::StreamRunResult resumed_result;
  ASSERT_TRUE(stream::ResumeStream(resumed.strategy.get(),
                                   resumed.bundle.source.get(),
                                   resumed.trigger.get(), resume_options,
                                   &resumed_result)
                  .ok());
  EXPECT_TRUE(resumed_result.finished);
  ExpectSameCycles(*full, resumed_result);
}

TEST(StreamDriverTest, ResumeRejectsSpecMismatch) {
  StreamFixture fixture = MakeFixture("count:n=16");
  stream::StreamRunOptions options = TinyOptions(fixture);
  options.checkpoint_directory = TestDir("stream_mismatch");
  options.stop_after_cycle = 0;
  ASSERT_TRUE(stream::RunStream(fixture.strategy.get(),
                                fixture.bundle.source.get(),
                                fixture.trigger.get(), options)
                  .ok());

  StreamFixture other = MakeFixture("count:n=16");
  stream::StreamRunOptions other_options = TinyOptions(other);
  other_options.checkpoint_directory = TestDir("stream_mismatch");
  other_options.trigger_spec = "count:n=32";  // not what was checkpointed
  stream::StreamRunResult result;
  util::Status status = stream::ResumeStream(other.strategy.get(),
                                             other.bundle.source.get(),
                                             other.trigger.get(),
                                             other_options, &result);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("count:n=32"), std::string::npos);
}

TEST(StreamDriverTest, ResumeFailsCleanlyOnMissingCheckpoint) {
  StreamFixture fixture = MakeFixture("count:n=16");
  stream::StreamRunOptions options = TinyOptions(fixture);
  options.checkpoint_directory = TestDir("stream_nowhere");
  stream::StreamRunResult result;
  EXPECT_FALSE(stream::ResumeStream(fixture.strategy.get(),
                                    fixture.bundle.source.get(),
                                    fixture.trigger.get(), options, &result)
                   .ok());
}

TEST(StreamDriverTest, BufferCompositionEntropyBounds) {
  StreamFixture fixture = MakeFixture("count:n=16");
  // Empty buffer: zero entropy.
  EXPECT_EQ(stream::BufferCompositionEntropy(&fixture.edsr->memory()), 0.0);
  EXPECT_EQ(stream::BufferCompositionEntropy(nullptr), 0.0);
  stream::StreamRunOptions options = TinyOptions(fixture);
  ASSERT_TRUE(stream::RunStream(fixture.strategy.get(),
                                fixture.bundle.source.get(),
                                fixture.trigger.get(), options)
                  .ok());
  double entropy = stream::BufferCompositionEntropy(&fixture.edsr->memory());
  EXPECT_GE(entropy, 0.0);
  // Entropy over the preset's 20 classes is bounded by ln(20).
  EXPECT_LE(entropy, std::log(20.0) + 1e-9);
}

}  // namespace
}  // namespace edsr
