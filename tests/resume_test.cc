// Run-level checkpoint/resume tests: strategy SaveTo/LoadFrom round trips
// and the headline guarantee — a run interrupted at an increment boundary
// and resumed from its checkpoint produces the bit-identical accuracy
// matrix, memory contents, and encoder weights of an uninterrupted run.
#include "src/cl/trainer.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/der.h"
#include "src/cl/si.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/run_record.h"

namespace edsr {
namespace {

using cl::CheckpointOptions;
using cl::ContinualRunResult;
using cl::EvalOptions;
using cl::StrategyContext;
using data::TaskSequence;

StrategyContext TinyContext(uint64_t seed = 0) {
  StrategyContext context;
  context.encoder.mlp_dims = {48, 32, 32};
  context.encoder.projector_hidden = 32;
  context.encoder.representation_dim = 16;
  context.epochs = 2;
  context.batch_size = 16;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.seed = seed;
  return context;
}

TaskSequence TinySequence(uint64_t seed, int64_t tasks) {
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

std::string TestDir(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::vector<float>> StateValues(const nn::Module& module) {
  std::vector<std::vector<float>> values;
  for (const nn::NamedTensor& entry : module.NamedState()) {
    values.push_back(entry.value.data());
  }
  return values;
}

void ExpectSameMatrix(const eval::AccuracyMatrix& actual,
                      const eval::AccuracyMatrix& expected) {
  ASSERT_EQ(actual.num_tasks(), expected.num_tasks());
  for (int64_t i = 0; i < expected.num_tasks(); ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      ASSERT_EQ(actual.IsSet(i, j), expected.IsSet(i, j))
          << "cell (" << i << ", " << j << ")";
      if (!expected.IsSet(i, j)) continue;
      // Bit-for-bit, not approximate: resume must replay the exact
      // trajectory of an uninterrupted run.
      EXPECT_EQ(actual.Get(i, j), expected.Get(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

void ExpectSameMemory(const cl::MemoryBuffer& actual,
                      const cl::MemoryBuffer& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (int64_t i = 0; i < expected.size(); ++i) {
    const cl::MemoryEntry& x = expected.entry(i);
    const cl::MemoryEntry& y = actual.entry(i);
    EXPECT_EQ(y.features, x.features) << "entry " << i;
    EXPECT_EQ(y.task_id, x.task_id) << "entry " << i;
    EXPECT_EQ(y.source_index, x.source_index) << "entry " << i;
    EXPECT_EQ(y.label, x.label) << "entry " << i;
    EXPECT_EQ(y.noise_scale, x.noise_scale) << "entry " << i;
    EXPECT_EQ(y.stored_output, x.stored_output) << "entry " << i;
    EXPECT_EQ(y.stored_representation, x.stored_representation)
        << "entry " << i;
  }
}

// ---- Strategy SaveTo / LoadFrom ---------------------------------------

TEST(StrategyCheckpoint, SiRoundTripRestoresEverything) {
  TaskSequence sequence = TinySequence(11, 2);
  cl::Si trained(TinyContext(5));
  trained.LearnIncrement(sequence.task(0));

  std::string path = TestDir("si_strategy.ckpt");
  io::ContainerWriter writer(path);
  trained.SaveTo(&writer).Check();
  writer.Finish().Check();

  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  cl::Si restored(TinyContext(5));
  restored.LoadFrom(*reader).Check();

  EXPECT_EQ(restored.increments_seen(), trained.increments_seen());
  EXPECT_EQ(StateValues(*restored.encoder()), StateValues(*trained.encoder()));
  EXPECT_EQ(restored.TotalImportance(), trained.TotalImportance());
  EXPECT_EQ(restored.rng()->SerializeState(), trained.rng()->SerializeState());

  // The restored strategy must *continue* identically, not merely look
  // identical at rest.
  trained.LearnIncrement(sequence.task(1));
  restored.LearnIncrement(sequence.task(1));
  EXPECT_EQ(StateValues(*restored.encoder()), StateValues(*trained.encoder()));
  std::remove(path.c_str());
}

TEST(StrategyCheckpoint, RejectsStrategyKindMismatch) {
  cl::Finetune finetune(TinyContext(1));
  std::string path = TestDir("kind_mismatch.ckpt");
  io::ContainerWriter writer(path);
  finetune.SaveTo(&writer).Check();
  writer.Finish().Check();

  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok());
  cl::Si si(TinyContext(1));
  util::Status status = si.LoadFrom(*reader);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---- Exact resume -----------------------------------------------------

TEST(Resume, EdsrResumesBitIdenticalToStraightRun) {
  const int64_t kTasks = 4;
  const EvalOptions eval_options;

  // The uninterrupted reference run.
  TaskSequence straight_seq = TinySequence(21, kTasks);
  core::Edsr straight(TinyContext(9));
  ContinualRunResult reference =
      RunContinual(&straight, straight_seq, eval_options);

  // The same run, killed after increment 2 (index 1) and resumed from the
  // checkpoint by a *fresh* strategy object — i.e. a new process.
  TaskSequence resumed_seq = TinySequence(21, kTasks);
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("edsr_resume");
  {
    core::Edsr interrupted(TinyContext(9));
    CheckpointOptions until_kill = checkpoint;
    until_kill.stop_after_increment = 1;
    RunContinual(&interrupted, resumed_seq, eval_options, until_kill);
  }
  core::Edsr resumed(TinyContext(9));
  ContinualRunResult continued{eval::AccuracyMatrix(kTasks)};
  ResumeContinual(&resumed, resumed_seq, eval_options, checkpoint, &continued)
      .Check();

  ExpectSameMatrix(continued.matrix, reference.matrix);
  ExpectSameMemory(resumed.memory(), straight.memory());
  EXPECT_EQ(StateValues(*resumed.encoder()), StateValues(*straight.encoder()));
  std::remove((checkpoint.directory + "/run.ckpt").c_str());
}

TEST(Resume, StatefulSelectorAndPolicyResumeBitIdentical) {
  // The gradient-affinity selector carries a cross-increment reference
  // gradient and max-loss retrieval ranks by representation drift: both
  // read state through SaveExtra/LoadExtra, so an interrupted run only
  // matches the straight one if that state round-trips exactly.
  const int64_t kTasks = 4;
  const EvalOptions eval_options;
  StrategyContext context = TinyContext(9);
  context.selector_spec = "gradient-affinity";
  context.retrieval_spec = "max-loss";

  TaskSequence straight_seq = TinySequence(21, kTasks);
  core::Edsr straight(context);
  ContinualRunResult reference =
      RunContinual(&straight, straight_seq, eval_options);

  TaskSequence resumed_seq = TinySequence(21, kTasks);
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("edsr_stateful_resume");
  {
    core::Edsr interrupted(context);
    CheckpointOptions until_kill = checkpoint;
    until_kill.stop_after_increment = 1;
    RunContinual(&interrupted, resumed_seq, eval_options, until_kill);
  }
  core::Edsr resumed(context);
  ContinualRunResult continued{eval::AccuracyMatrix(kTasks)};
  ResumeContinual(&resumed, resumed_seq, eval_options, checkpoint, &continued)
      .Check();

  ExpectSameMatrix(continued.matrix, reference.matrix);
  ExpectSameMemory(resumed.memory(), straight.memory());
  EXPECT_EQ(StateValues(*resumed.encoder()), StateValues(*straight.encoder()));
  std::remove((checkpoint.directory + "/run.ckpt").c_str());
}

// Run records minus the volatile "perf" object, which writers append as the
// LAST key precisely so this truncation works (see run_record.h).
std::vector<std::string> DeterministicRecordLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    size_t perf = line.find(",\"perf\"");
    if (perf != std::string::npos) line = line.substr(0, perf) + "}";
    lines.push_back(line);
  }
  return lines;
}

TEST(Resume, RunRecordsConcatenateToTheStraightRunsRecords) {
  const int64_t kTasks = 3;
  const EvalOptions eval_options;

  // Straight run, logging to one file.
  std::string straight_path = TestDir("records_straight.jsonl");
  std::remove(straight_path.c_str());
  TaskSequence straight_seq = TinySequence(33, kTasks);
  core::Edsr straight(TinyContext(7));
  {
    obs::RunLogger logger(straight_path);
    ASSERT_TRUE(logger.ok());
    straight.SetRunLogger(&logger);
    RunContinual(&straight, straight_seq, eval_options);
    straight.SetRunLogger(nullptr);
  }

  // The same run killed after increment 1 and resumed by a fresh process,
  // both halves appending to the same record file.
  std::string resumed_path = TestDir("records_resumed.jsonl");
  std::remove(resumed_path.c_str());
  TaskSequence resumed_seq = TinySequence(33, kTasks);
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("records_resume_ckpt");
  {
    core::Edsr interrupted(TinyContext(7));
    obs::RunLogger logger(resumed_path);
    ASSERT_TRUE(logger.ok());
    interrupted.SetRunLogger(&logger);
    CheckpointOptions until_kill = checkpoint;
    until_kill.stop_after_increment = 0;
    RunContinual(&interrupted, resumed_seq, eval_options, until_kill);
  }
  {
    core::Edsr resumed(TinyContext(7));
    obs::RunLogger logger(resumed_path);
    ASSERT_TRUE(logger.ok());
    resumed.SetRunLogger(&logger);
    ContinualRunResult continued{eval::AccuracyMatrix(kTasks)};
    ResumeContinual(&resumed, resumed_seq, eval_options, checkpoint,
                    &continued)
        .Check();
  }

  // Every deterministic field — losses, selection stats, accuracy cells —
  // must be byte-identical; only "perf" may differ between the runs.
  std::vector<std::string> straight_lines =
      DeterministicRecordLines(straight_path);
  std::vector<std::string> resumed_lines =
      DeterministicRecordLines(resumed_path);
  ASSERT_EQ(straight_lines.size(), resumed_lines.size());
  for (size_t i = 0; i < straight_lines.size(); ++i) {
    EXPECT_EQ(resumed_lines[i], straight_lines[i]) << "record " << i;
  }
  std::remove(straight_path.c_str());
  std::remove(resumed_path.c_str());
  std::remove((checkpoint.directory + "/run.ckpt").c_str());
}

TEST(Resume, MissingCheckpointIsCleanError) {
  TaskSequence sequence = TinySequence(3, 2);
  core::Edsr strategy(TinyContext(3));
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("resume_missing");
  ContinualRunResult result{eval::AccuracyMatrix(2)};
  util::Status status =
      ResumeContinual(&strategy, sequence, EvalOptions{}, checkpoint, &result);
  EXPECT_FALSE(status.ok());
}

TEST(Resume, CorruptCheckpointIsCleanError) {
  TaskSequence sequence = TinySequence(13, 2);
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("resume_corrupt");
  {
    core::Edsr strategy(TinyContext(13));
    CheckpointOptions one = checkpoint;
    one.stop_after_increment = 0;
    RunContinual(&strategy, sequence, EvalOptions{}, one);
  }
  std::string path = checkpoint.directory + "/run.ckpt";
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  auto expect_unloadable = [&](const std::vector<uint8_t>& corrupt) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(corrupt.data()),
              static_cast<std::streamsize>(corrupt.size()));
    out.close();
    core::Edsr fresh(TinyContext(13));
    ContinualRunResult result{eval::AccuracyMatrix(2)};
    util::Status status = ResumeContinual(&fresh, sequence, EvalOptions{},
                                          checkpoint, &result);
    EXPECT_FALSE(status.ok());
  };

  // Truncation (lost tail) and a payload bit flip (silent disk corruption).
  expect_unloadable(
      std::vector<uint8_t>(bytes.begin(), bytes.begin() + bytes.size() / 2));
  std::vector<uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  expect_unloadable(flipped);
  std::remove(path.c_str());
}

TEST(Resume, CheckpointCoveringDifferentSequenceIsRejected) {
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("resume_wrong_tasks");
  TaskSequence two_tasks = TinySequence(17, 2);
  {
    core::Edsr strategy(TinyContext(17));
    CheckpointOptions one = checkpoint;
    one.stop_after_increment = 0;
    RunContinual(&strategy, two_tasks, EvalOptions{}, one);
  }
  TaskSequence three_tasks = TinySequence(17, 3);
  core::Edsr fresh(TinyContext(17));
  ContinualRunResult result{eval::AccuracyMatrix(3)};
  util::Status status = ResumeContinual(&fresh, three_tasks, EvalOptions{},
                                        checkpoint, &result);
  EXPECT_FALSE(status.ok());
  std::remove((checkpoint.directory + "/run.ckpt").c_str());
}

// ---- A restored memory must fit the encoder ----------------------------

// Three tabular increments of widths 5, 9 and 7.
TaskSequence TabularSequence() {
  std::vector<std::pair<data::Dataset, data::Dataset>> increments;
  for (int64_t width : {5, 9, 7}) {
    data::SyntheticTabularConfig config;
    config.name = "tabular" + std::to_string(width);
    config.num_features = width;
    config.train_size = 40;
    config.test_size = 16;
    config.seed = 60 + static_cast<uint64_t>(width);
    data::SyntheticTabularPair pair = MakeSyntheticTabularData(config);
    increments.emplace_back(pair.train, pair.test);
  }
  return TaskSequence::FromDatasets(increments);
}

// An encoder with one input head per TabularSequence increment, with Adam.
StrategyContext TabularContext() {
  StrategyContext context;
  context.encoder.mlp_dims = {12, 24, 24};
  context.encoder.projector_hidden = 24;
  context.encoder.representation_dim = 12;
  context.encoder.input_head_dims = {5, 9, 7};
  context.epochs = 2;
  context.batch_size = 16;
  context.use_adam = true;
  context.memory_per_task = 6;
  context.replay_batch_size = 8;
  context.seed = 43;
  return context;
}

// Rewrites a checkpoint through `edit`, which sees each section's name and
// bytes and returns false to drop the section. The container stays
// CRC-valid, so only the load's own checks can reject the edit.
void RewriteCheckpoint(
    const std::string& path,
    const std::function<bool(const std::string&, std::vector<uint8_t>*)>&
        edit) {
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  io::ContainerWriter writer(path);
  for (const std::string& name : (*reader).SectionNames()) {
    std::vector<uint8_t> bytes;
    ASSERT_TRUE((*reader).ReadSection(name, &bytes).ok()) << name;
    if (edit(name, &bytes)) writer.AddSection(name, std::move(bytes));
  }
  ASSERT_TRUE(writer.Finish().ok());
}

// Passes every entry of a checkpoint's strategy/memory through `edit`.
void EditMemory(const std::string& path,
                const std::function<void(cl::MemoryEntry*)>& edit) {
  RewriteCheckpoint(path, [&](const std::string& name,
                              std::vector<uint8_t>* bytes) {
    if (name != "strategy/memory") return true;
    io::BufferReader in(*bytes);
    const cl::MemoryBuffer memory =
        cl::MemoryBuffer::Read(&in).ValueOrDie();
    cl::MemoryBuffer edited(memory.per_task_budget());
    // One AddIncrement per run of entries with one task id.
    std::vector<cl::MemoryEntry> increment;
    for (int64_t i = 0; i < memory.size(); ++i) {
      increment.push_back(memory.entry(i));
      edit(&increment.back());
      if (i + 1 == memory.size() ||
          memory.entry(i + 1).task_id != memory.entry(i).task_id) {
        edited.AddIncrement(std::move(increment));
        increment.clear();
      }
    }
    io::BufferWriter out;
    edited.Serialize(&out);
    *bytes = out.TakeBytes();
    return true;
  });
}

// A DER checkpoint stopped after increment 0 of TinySequence(19, 2).
std::string DerCheckpoint(const std::string& name) {
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir(name);
  cl::Der strategy(TinyContext(19));
  checkpoint.stop_after_increment = 0;
  RunContinual(&strategy, TinySequence(19, 2), EvalOptions{}, checkpoint);
  return checkpoint.directory + "/run.ckpt";
}

TEST(Resume, CheckpointWithoutMemorySectionIsRejected) {
  // A strategy that keeps a buffer requires strategy/memory, so a checkpoint
  // whose buffer lives elsewhere fails by naming the section.
  const std::string path = DerCheckpoint("resume_no_memory");
  RewriteCheckpoint(path, [](const std::string& name, std::vector<uint8_t>*) {
    return name != "strategy/memory";
  });
  cl::Der fresh(TinyContext(19));
  ContinualRunResult result{eval::AccuracyMatrix(2)};
  int64_t next_increment = 0;
  util::Status status =
      cl::LoadRunCheckpoint(path, &fresh, &result, &next_increment);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("strategy/memory"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(Resume, MemoryRowsOfTheWrongWidthAreRejected) {
  // One float cut from every memory row: the first replay of the resumed run
  // could not view those rows.
  const std::string path = DerCheckpoint("resume_short_rows");
  EditMemory(path, [](cl::MemoryEntry* entry) { entry->features.pop_back(); });

  cl::Der fresh(TinyContext(19));
  ContinualRunResult result{eval::AccuracyMatrix(2)};
  int64_t next_increment = 0;
  util::Status status =
      cl::LoadRunCheckpoint(path, &fresh, &result, &next_increment);
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
  std::remove(path.c_str());
}

TEST(Resume, MemoryTaskIdOfAnUnlearnedIncrementIsRejected) {
  // A checkpoint after increment 0 whose memory rows claim increment 1: the
  // resumed run would store increment 1 a second time at its end.
  const std::string path = DerCheckpoint("resume_future_task");
  EditMemory(path, [](cl::MemoryEntry* entry) { entry->task_id = 1; });

  cl::Der fresh(TinyContext(19));
  ContinualRunResult result{eval::AccuracyMatrix(2)};
  int64_t next_increment = 0;
  util::Status status =
      cl::LoadRunCheckpoint(path, &fresh, &result, &next_increment);
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
  EXPECT_NE(status.ToString().find("memory entry 0"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(Resume, MemoryTaskIdPastTheLastInputHeadIsRejected) {
  // An EDSR checkpoint after increment 0 whose memory rows name task 3 of an
  // encoder with heads 0-2: the heterogeneous replay would select no head.
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("resume_task_past_heads");
  {
    core::Edsr strategy(TabularContext());
    CheckpointOptions one = checkpoint;
    one.stop_after_increment = 0;
    RunContinual(&strategy, TabularSequence(), EvalOptions{}, one);
  }
  const std::string path = checkpoint.directory + "/run.ckpt";
  EditMemory(path, [](cl::MemoryEntry* entry) { entry->task_id = 3; });

  core::Edsr fresh(TabularContext());
  ContinualRunResult result{eval::AccuracyMatrix(3)};
  int64_t next_increment = 0;
  util::Status status =
      cl::LoadRunCheckpoint(path, &fresh, &result, &next_increment);
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
  std::remove(path.c_str());
}

TEST(Resume, InputHeadMemoryOfSeveralWidthsResumesBitIdentical) {
  // Stopped after increment 1, the memory holds rows of widths 5 and 9; the
  // load must accept them, and the resumed run must match the straight one.
  const EvalOptions eval_options;
  core::Edsr straight(TabularContext());
  ContinualRunResult reference =
      RunContinual(&straight, TabularSequence(), eval_options);

  TaskSequence resumed_seq = TabularSequence();
  CheckpointOptions checkpoint;
  checkpoint.directory = TestDir("resume_input_heads");
  {
    core::Edsr interrupted(TabularContext());
    CheckpointOptions until_kill = checkpoint;
    until_kill.stop_after_increment = 1;
    RunContinual(&interrupted, resumed_seq, eval_options, until_kill);
    ASSERT_EQ(interrupted.memory().entry(0).features.size(), 5u);
    ASSERT_EQ(interrupted.memory().entries().back().features.size(), 9u);
  }
  core::Edsr resumed(TabularContext());
  ContinualRunResult continued{eval::AccuracyMatrix(3)};
  ResumeContinual(&resumed, resumed_seq, eval_options, checkpoint, &continued)
      .Check();

  ExpectSameMatrix(continued.matrix, reference.matrix);
  ExpectSameMemory(resumed.memory(), straight.memory());
  EXPECT_EQ(StateValues(*resumed.encoder()), StateValues(*straight.encoder()));
  std::remove((checkpoint.directory + "/run.ckpt").c_str());
}

}  // namespace
}  // namespace edsr
