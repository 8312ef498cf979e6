// CycleEngine suites: both boundary-free front-ends (the stream driver and
// the learn-serve daemon) run one numeric path, and the engine's boundary
// checkpoint restores into a fresh engine that continues in lockstep.
#include "src/stream/cycle.h"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/factory.h"
#include "src/core/edsr.h"
#include "src/daemon/daemon.h"
#include "src/io/container.h"
#include "src/stream/driver.h"
#include "src/stream/source.h"
#include "src/stream/trigger.h"

namespace edsr {
namespace {

constexpr char kStreamSpec[] = "SynthCifar10|label_noise:p=0.1";

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<stream::CycleTrigger> MakeTrigger(const std::string& spec) {
  return std::move(stream::TriggerRegistry::Global().Create(spec))
      .ValueOrDie();
}

// Every section of a checkpoint whose name starts with "strategy/".
std::vector<std::pair<std::string, std::vector<uint8_t>>> StrategySections(
    const std::string& path) {
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<std::pair<std::string, std::vector<uint8_t>>> sections;
  if (!reader.ok()) return sections;
  for (const std::string& name : (*reader).SectionNames()) {
    if (name.rfind("strategy/", 0) != 0) continue;
    std::vector<uint8_t> bytes;
    EXPECT_TRUE((*reader).ReadSection(name, &bytes).ok()) << name;
    sections.emplace_back(name, std::move(bytes));
  }
  return sections;
}

// ---- the stream driver and the daemon share one numeric path ------------

daemon::DaemonOptions DaemonTinyOptions(const std::string& dir,
                                        const std::string& trigger_spec) {
  daemon::DaemonOptions options;
  options.directory = dir;
  options.preset = "SynthCifar10";
  options.trigger_spec = trigger_spec;
  options.micro_batch = 4;
  options.memory_per_task = 4;
  options.replay_batch_size = 4;
  options.fsync_journal = false;
  return options;
}

// The strategy context the daemon builds for DaemonTinyOptions.
cl::StrategyContext DaemonContext() {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {192, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.batch_size = 4;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 4;
  context.replay_batch_size = 4;
  context.seed = 0;
  return context;
}

void ExpectSharedNumericPath(const std::string& trigger_spec,
                             const std::string& name) {
  // Stream side: 32 samples in micro-batches of 4, checkpointed.
  auto strategy = cl::MakeStrategy("edsr", DaemonContext());
  const auto* edsr = dynamic_cast<const core::Edsr*>(strategy.get());
  auto bundle =
      std::move(stream::MakeStreamBundle(kStreamSpec, 7)).ValueOrDie();
  auto trigger = MakeTrigger(trigger_spec);
  data::Task id_task;
  id_task.train = bundle.id_train;
  id_task.test = bundle.id_test;
  stream::StreamRunOptions options;
  options.micro_batch = 4;
  options.total_samples = 32;
  options.id_probe = &id_task;
  options.memory = &edsr->memory();
  options.stream_spec = kStreamSpec;
  options.trigger_spec = trigger_spec;
  options.checkpoint_directory = TestDir(name + "_stream");
  auto run = stream::RunStream(strategy.get(), bundle.source.get(),
                               trigger.get(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<stream::StreamCycleResult>& streamed = (*run).cycles;
  ASSERT_FALSE(streamed.empty());
  // The daemon only closes trigger-fired cycles.
  ASSERT_NE(streamed.back().cause, "end");

  // Daemon side: the same 32 samples, in the same order.
  const std::string dir = TestDir(name + "_daemon");
  daemon::LearnServeDaemon daemon(DaemonTinyOptions(dir, trigger_spec));
  ASSERT_TRUE(daemon.Start().ok());
  auto feed = std::move(stream::MakeStreamBundle(kStreamSpec, 7)).ValueOrDie();
  for (const stream::StreamSample& sample : feed.source->NextBatch(32)) {
    ASSERT_TRUE(
        daemon.Ingest(sample.observed_label, sample.features).status.ok());
  }
  const int64_t expected = static_cast<int64_t>(streamed.size());
  ASSERT_TRUE(daemon.WaitForCycles(expected, 30000));
  daemon.Stop();
  const auto served = daemon.cycles();
  ASSERT_EQ(static_cast<int64_t>(served.size()), expected);

  for (size_t i = 0; i < streamed.size(); ++i) {
    SCOPED_TRACE("cycle " + std::to_string(i));
    EXPECT_EQ(served[i].cycle, streamed[i].cycle);
    EXPECT_EQ(served[i].cause, streamed[i].cause);
    EXPECT_EQ(served[i].samples, streamed[i].samples);
    EXPECT_EQ(served[i].micro_batches, streamed[i].micro_batches);
    EXPECT_EQ(served[i].total_samples, streamed[i].total_samples);
    EXPECT_EQ(served[i].loss, streamed[i].loss);  // bit-identical
    EXPECT_EQ(served[i].drift, streamed[i].drift);
    EXPECT_EQ(served[i].buffer_size, streamed[i].buffer_size);
    EXPECT_EQ(served[i].buffer_entropy, streamed[i].buffer_entropy);
  }
  const auto stream_sections =
      StrategySections(options.checkpoint_directory + "/stream.ckpt");
  ASSERT_FALSE(stream_sections.empty());
  EXPECT_TRUE(stream_sections == StrategySections(daemon.checkpoint_path()));
}

TEST(SharedCyclePath, CountTriggerStreamEqualsDaemon) {
  ExpectSharedNumericPath("count:n=8", "shared_count");
}

TEST(SharedCyclePath, DriftTriggerStreamEqualsDaemon) {
  ExpectSharedNumericPath("drift:threshold=0.000001,min=8,max=16,check=1",
                          "shared_drift");
}

// ---- boundary save/restore ---------------------------------------------

struct EngineFixture {
  std::unique_ptr<cl::ContinualStrategy> strategy;
  std::unique_ptr<stream::CycleTrigger> trigger;
  std::unique_ptr<stream::CycleEngine> engine;
};

EngineFixture MakeEngine(const std::string& trigger_spec,
                         const std::string& checkpoint_path) {
  EngineFixture fixture;
  cl::StrategyContext context = DaemonContext();
  context.encoder.mlp_dims = {192, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  fixture.strategy = cl::MakeStrategy("edsr", context);
  fixture.trigger = MakeTrigger(trigger_spec);
  stream::CycleEngineConfig config;
  config.strategy = fixture.strategy.get();
  config.trigger = fixture.trigger.get();
  config.memory =
      &dynamic_cast<const core::Edsr*>(fixture.strategy.get())->memory();
  config.dim = 192;
  config.num_classes = 20;
  config.geometry = {3, 8, 8};
  config.mode = "test";
  config.source = kStreamSpec;
  config.trigger_spec = trigger_spec;
  config.checkpoint_path = checkpoint_path;
  fixture.engine = std::make_unique<stream::CycleEngine>(std::move(config));
  return fixture;
}

std::vector<std::vector<stream::StreamSample>> Batches(int64_t count) {
  auto bundle =
      std::move(stream::MakeStreamBundle(kStreamSpec, 3)).ValueOrDie();
  std::vector<std::vector<stream::StreamSample>> batches;
  for (int64_t i = 0; i < count; ++i) {
    batches.push_back(bundle.source->NextBatch(4));
  }
  return batches;
}

TEST(CycleEngine, BoundaryRestoreContinuesInLockstep) {
  const std::string path = TestDir("engine_lockstep") + "/cycle.ckpt";
  std::vector<std::vector<stream::StreamSample>> batches = Batches(6);
  EngineFixture straight = MakeEngine("count:n=12", path);
  EXPECT_EQ(straight.engine->Feed(batches[0]), "");
  EXPECT_EQ(straight.engine->Feed(batches[1]), "");
  ASSERT_EQ(straight.engine->Feed(batches[2]), "count");
  ASSERT_TRUE(straight.engine->Close("count").ok());

  EngineFixture restored = MakeEngine("count:n=12", path);
  ASSERT_TRUE(restored.engine->LoadCheckpoint().ok());
  EXPECT_EQ(restored.engine->cycles_completed(), 1);
  EXPECT_EQ(restored.engine->consumed(), 12);
  EXPECT_EQ(restored.engine->total_samples(), 12);

  // Both fire on the same micro-batch and close identical cycles.
  for (size_t i = 3; i < batches.size(); ++i) {
    EXPECT_EQ(straight.engine->Feed(batches[i]),
              restored.engine->Feed(batches[i]));
  }
  ASSERT_TRUE(straight.engine->Close("count").ok());
  ASSERT_TRUE(restored.engine->Close("count").ok());
  const stream::StreamCycleResult a = straight.engine->history().back();
  const stream::StreamCycleResult b = restored.engine->history().back();
  EXPECT_EQ(a.cycle, 1);
  EXPECT_EQ(b.cycle, 1);
  EXPECT_EQ(b.total_samples, 24);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.buffer_size, b.buffer_size);
  EXPECT_EQ(a.buffer_entropy, b.buffer_entropy);
}

TEST(CycleEngine, RestoreRejectsDifferentTrigger) {
  const std::string path = TestDir("engine_trigger") + "/cycle.ckpt";
  std::vector<std::vector<stream::StreamSample>> batches = Batches(2);
  EngineFixture count = MakeEngine("count:n=8", path);
  EXPECT_EQ(count.engine->Feed(batches[0]), "");
  ASSERT_EQ(count.engine->Feed(batches[1]), "count");
  ASSERT_TRUE(count.engine->Close("count").ok());

  EngineFixture drift =
      MakeEngine("drift:threshold=0.5,min=4,max=64,check=1", path);
  util::Status status = drift.engine->LoadCheckpoint();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("trigger"), std::string::npos);
}

TEST(CycleEngine, RejectsEncoderWithInputHeads) {
  // A stream has no fixed task count to size per-task input heads by.
  cl::StrategyContext context;
  context.encoder.mlp_dims = {12, 24, 24};
  context.encoder.projector_hidden = 24;
  context.encoder.representation_dim = 12;
  context.encoder.input_head_dims = {5, 9};
  auto strategy = cl::MakeStrategy("finetune", context);
  auto trigger = MakeTrigger("count:n=8");
  stream::CycleEngineConfig config;
  config.strategy = strategy.get();
  config.trigger = trigger.get();
  config.dim = 5;
  config.num_classes = 2;
  EXPECT_DEATH(stream::CycleEngine engine(std::move(config)),
               "homogeneous encoder");
}

}  // namespace
}  // namespace edsr
