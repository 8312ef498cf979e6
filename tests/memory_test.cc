// Tests for the memory buffer.
#include "src/cl/memory.h"

#include <gtest/gtest.h>

namespace edsr {
namespace {

using cl::MemoryBuffer;
using cl::MemoryEntry;

MemoryEntry MakeEntry(int64_t task, float value, int64_t dim = 3) {
  MemoryEntry e;
  e.features.assign(dim, value);
  e.task_id = task;
  e.label = task;
  return e;
}

TEST(MemoryBuffer, AddAndQuery) {
  MemoryBuffer buffer(2);
  buffer.AddIncrement({MakeEntry(0, 1.0f), MakeEntry(0, 2.0f)});
  buffer.AddIncrement({MakeEntry(1, 3.0f)});
  EXPECT_EQ(buffer.size(), 3);
  EXPECT_EQ(buffer.entry(2).task_id, 1);
  EXPECT_FLOAT_EQ(buffer.entry(1).features[0], 2.0f);
}

TEST(MemoryBuffer, BudgetEnforced) {
  MemoryBuffer buffer(1);
  EXPECT_DEATH(buffer.AddIncrement({MakeEntry(0, 1.0f), MakeEntry(0, 2.0f)}),
               "budget");
}

TEST(MemoryBuffer, RejectsMixedTaskIncrement) {
  MemoryBuffer buffer(4);
  EXPECT_DEATH(buffer.AddIncrement({MakeEntry(0, 1.0f), MakeEntry(1, 2.0f)}),
               "share a task id");
}

TEST(MemoryBuffer, RejectsDuplicateTask) {
  MemoryBuffer buffer(4);
  buffer.AddIncrement({MakeEntry(0, 1.0f)});
  EXPECT_DEATH(buffer.AddIncrement({MakeEntry(0, 2.0f)}), "already stored");
}

TEST(MemoryBuffer, GatherFeaturesShape) {
  MemoryBuffer buffer(3);
  buffer.AddIncrement({MakeEntry(0, 1.5f), MakeEntry(0, 2.5f)});
  tensor::Tensor batch = buffer.GatherFeatures({1, 0});
  EXPECT_EQ(batch.shape(), (tensor::Shape{2, 3}));
  EXPECT_FLOAT_EQ(batch.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(batch.at(1, 2), 1.5f);
}

TEST(MemoryBuffer, DeserializeRejectsNegativeTaskId) {
  // One entry in the Serialize layout, written by hand with task id -1:
  // GroupByTask would index groups[-1] on the input-head replay path.
  io::BufferWriter out;
  out.WriteI64(2);  // per-task budget
  out.WriteU64(1);  // entries
  out.WriteFloats({1.0f, 2.0f, 3.0f});
  out.WriteI64(-1);  // task id
  out.WriteI64(0);   // source index
  out.WriteI64(0);   // label
  out.WriteFloats({});
  out.WriteFloats({});
  out.WriteFloats({});
  MemoryBuffer restored(2);
  restored.AddIncrement({MakeEntry(0, 5.0f)});
  io::BufferReader in(out.bytes());
  util::Status status = restored.Deserialize(&in);
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
  // The buffer is untouched.
  ASSERT_EQ(restored.size(), 1);
  EXPECT_EQ(restored.entry(0).task_id, 0);
}

TEST(MemoryBuffer, SerializeRoundTripsEverySideChannel) {
  MemoryBuffer buffer(2);
  MemoryEntry a = MakeEntry(0, 1.0f);
  a.source_index = 7;
  a.noise_scale = {0.5f, 0.25f, 0.125f};
  a.stored_output = {1.0f, -1.0f};
  a.stored_representation = {0.3f, -0.6f, 0.9f, 1.2f};
  MemoryEntry b = MakeEntry(0, 2.0f);
  buffer.AddIncrement({a, b});

  io::BufferWriter out;
  buffer.Serialize(&out);
  MemoryBuffer restored(2);
  io::BufferReader in(out.bytes());
  ASSERT_TRUE(restored.Deserialize(&in).ok());
  ASSERT_TRUE(in.ExpectEnd().ok());

  ASSERT_EQ(restored.size(), buffer.size());
  for (int64_t i = 0; i < buffer.size(); ++i) {
    const MemoryEntry& x = buffer.entry(i);
    const MemoryEntry& y = restored.entry(i);
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

TEST(MemoryBuffer, GroupByTaskPartitions) {
  MemoryBuffer buffer(2);
  buffer.AddIncrement({MakeEntry(0, 1, 2), MakeEntry(0, 2, 2)});
  buffer.AddIncrement({MakeEntry(1, 3, 5)});  // different dim: fine per task
  auto groups = buffer.GroupByTask({0, 1, 2});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[1].size(), 1u);
  // Gathering across heterogeneous dims dies.
  EXPECT_DEATH(buffer.GatherFeatures({0, 2}), "homogeneous");
}

}  // namespace
}  // namespace edsr
