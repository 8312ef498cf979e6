// Tests for the per-component checkpoint hooks: Module state (bounds-checked
// staged parsing), optimizer moments, Rng engine state, and MemoryBuffer
// entries. The run-level resume protocol is in resume_test.cc.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/memory.h"
#include "src/io/serialize.h"
#include "src/nn/networks.h"
#include "src/optim/optimizer.h"
#include "src/util/rng.h"

namespace edsr {
namespace {

using tensor::Tensor;

std::vector<std::vector<float>> StateValues(const nn::Module& module) {
  std::vector<std::vector<float>> values;
  for (const nn::NamedTensor& entry : module.NamedState()) {
    values.push_back(entry.value.data());
  }
  return values;
}

// ---- Module state -----------------------------------------------------
// Every checkpoint load runs Module::DeserializeState on a section payload;
// these cases feed it corrupt payloads directly.

TEST(ModuleCheckpoint, HugeNameLengthIsRejectedWithoutAllocating) {
  // A corrupt entry-name length used to be passed straight to resize(),
  // turning a flipped bit into a multi-gigabyte allocation. It must now be
  // a clean IoError.
  util::Rng rng(5);
  nn::Mlp module({6, 5, 4}, &rng);

  io::BufferWriter payload;
  payload.WriteU64(module.NamedState().size());
  payload.WriteU64(uint64_t{1} << 60);  // absurd length for the first name
  io::BufferReader in(payload.bytes());
  util::Status status = module.DeserializeState(&in);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

TEST(ModuleCheckpoint, HugeRankIsRejected) {
  util::Rng rng(6);
  nn::Mlp module({6, 5, 4}, &rng);

  io::BufferWriter payload;
  payload.WriteU64(module.NamedState().size());
  payload.WriteString(module.NamedState()[0].name);
  payload.WriteU64(uint64_t{1} << 50);  // absurd rank
  io::BufferReader in(payload.bytes());
  util::Status status = module.DeserializeState(&in);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

TEST(ModuleCheckpoint, PartialPayloadLeavesModuleUntouched) {
  // Deserialization stages the full state and only then swaps it in: a
  // payload that parses for the first N tensors but dies later must leave
  // every parameter and buffer bit-identical, not half-overwritten.
  util::Rng rng_a(7);
  util::Rng rng_b(8);
  nn::Mlp a({6, 5, 4}, &rng_a);
  nn::Mlp b({6, 5, 4}, &rng_b);

  io::BufferWriter payload;
  a.SerializeState(&payload);
  std::vector<uint8_t> bytes = payload.bytes();
  bytes.resize(bytes.size() - 3);  // kill the tail of the last tensor

  std::vector<std::vector<float>> before = StateValues(b);
  io::BufferReader in(bytes);
  EXPECT_FALSE(b.DeserializeState(&in).ok());
  EXPECT_EQ(StateValues(b), before);
}

// ---- Optimizers -------------------------------------------------------

std::vector<Tensor> MakeParams(float fill) {
  std::vector<Tensor> params;
  params.push_back(Tensor::Full({3}, fill, /*requires_grad=*/true));
  params.push_back(Tensor::Full({2, 2}, -fill, /*requires_grad=*/true));
  return params;
}

void SetGrads(std::vector<Tensor>* params, float base) {
  for (size_t i = 0; i < params->size(); ++i) {
    std::vector<float>& grad = (*params)[i].mutable_grad();
    for (size_t j = 0; j < grad.size(); ++j) {
      grad[j] = base + 0.1f * static_cast<float>(i + j);
    }
  }
}

template <typename Optim, typename Options>
void ExpectOptimizerRoundTrip(const Options& options) {
  std::vector<Tensor> params_a = MakeParams(0.5f);
  Optim a(params_a, options);
  SetGrads(&params_a, 1.0f);
  a.Step();
  SetGrads(&params_a, -0.5f);
  a.Step();

  io::BufferWriter out;
  a.Serialize(&out);

  // Restore into an optimizer whose parameters hold the same values, then
  // drive both with identical gradients: bit-equal trajectories prove the
  // moment buffers (and Adam's step counter) round-tripped exactly.
  std::vector<Tensor> params_b = MakeParams(0.5f);
  for (size_t i = 0; i < params_a.size(); ++i) {
    params_b[i].mutable_data() = params_a[i].data();
  }
  Optim b(params_b, options);
  io::BufferReader in(out.bytes());
  b.Deserialize(&in).Check();
  EXPECT_TRUE(in.ExpectEnd().ok());

  SetGrads(&params_a, 0.25f);
  SetGrads(&params_b, 0.25f);
  a.Step();
  b.Step();
  for (size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(params_b[i].data(), params_a[i].data()) << "parameter " << i;
  }
}

TEST(OptimizerCheckpoint, SgdRoundTrip) {
  optim::SgdOptions options;
  options.momentum = 0.9f;
  options.weight_decay = 1e-4f;
  ExpectOptimizerRoundTrip<optim::Sgd>(options);
}

TEST(OptimizerCheckpoint, AdamRoundTrip) {
  optim::AdamOptions options;
  ExpectOptimizerRoundTrip<optim::Adam>(options);
}

TEST(OptimizerCheckpoint, RejectsKindMismatch) {
  std::vector<Tensor> params = MakeParams(1.0f);
  optim::Sgd sgd(params, optim::SgdOptions{});
  io::BufferWriter out;
  sgd.Serialize(&out);

  optim::Adam adam(MakeParams(1.0f), optim::AdamOptions{});
  io::BufferReader in(out.bytes());
  EXPECT_FALSE(adam.Deserialize(&in).ok());
}

TEST(OptimizerCheckpoint, RejectsParameterCountMismatch) {
  optim::Sgd two(MakeParams(1.0f), optim::SgdOptions{});
  io::BufferWriter out;
  two.Serialize(&out);

  std::vector<Tensor> one;
  one.push_back(Tensor::Full({3}, 1.0f, /*requires_grad=*/true));
  optim::Sgd narrow(one, optim::SgdOptions{});
  io::BufferReader in(out.bytes());
  EXPECT_FALSE(narrow.Deserialize(&in).ok());
}

TEST(OptimizerCheckpoint, RejectsTruncatedMoments) {
  std::vector<Tensor> params = MakeParams(1.0f);
  optim::Sgd a(params, optim::SgdOptions{});
  SetGrads(&params, 1.0f);
  a.Step();
  io::BufferWriter out;
  a.Serialize(&out);

  std::vector<uint8_t> bytes = out.bytes();
  bytes.resize(bytes.size() - 5);
  optim::Sgd b(MakeParams(1.0f), optim::SgdOptions{});
  io::BufferReader in(bytes);
  EXPECT_FALSE(b.Deserialize(&in).ok());
}

// ---- Rng --------------------------------------------------------------

TEST(RngCheckpoint, RestoredEngineContinuesIdenticalStream) {
  util::Rng original(123);
  for (int i = 0; i < 5; ++i) original.Uniform();  // advance past the seed

  std::string state = original.SerializeState();
  util::Rng restored(999);  // different seed: state must fully overwrite it
  restored.DeserializeState(state).Check();

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(restored.engine()(), original.engine()()) << "draw " << i;
  }
}

TEST(RngCheckpoint, RejectsGarbageState) {
  util::Rng rng(1);
  util::Status status = rng.DeserializeState("definitely not an engine");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

// ---- MemoryBuffer -----------------------------------------------------

std::vector<cl::MemoryEntry> SampleEntries(int64_t task_id, float base) {
  std::vector<cl::MemoryEntry> entries(2);
  for (size_t i = 0; i < entries.size(); ++i) {
    cl::MemoryEntry& e = entries[i];
    e.features = {base + static_cast<float>(i), base * 2.0f, -base};
    e.task_id = task_id;
    e.source_index = static_cast<int64_t>(10 * task_id + i);
    e.label = static_cast<int64_t>(i);
    e.noise_scale = {0.1f * base, 0.2f * base, 0.3f * base};
    e.stored_output = {base, base + 0.5f};
  }
  return entries;
}

TEST(MemoryCheckpoint, RoundTripsAllSideData) {
  cl::MemoryBuffer a(4);
  a.AddIncrement(SampleEntries(0, 1.0f));
  a.AddIncrement(SampleEntries(1, -2.5f));

  io::BufferWriter out;
  a.Serialize(&out);
  cl::MemoryBuffer b(4);
  io::BufferReader in(out.bytes());
  b.Deserialize(&in).Check();
  EXPECT_TRUE(in.ExpectEnd().ok());

  ASSERT_EQ(b.size(), a.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    const cl::MemoryEntry& x = a.entry(i);
    const cl::MemoryEntry& y = b.entry(i);
    EXPECT_EQ(y.features, x.features);
    EXPECT_EQ(y.task_id, x.task_id);
    EXPECT_EQ(y.source_index, x.source_index);
    EXPECT_EQ(y.label, x.label);
    EXPECT_EQ(y.noise_scale, x.noise_scale);
    EXPECT_EQ(y.stored_output, x.stored_output);
  }
}

TEST(MemoryCheckpoint, RejectsBudgetMismatch) {
  cl::MemoryBuffer a(4);
  a.AddIncrement(SampleEntries(0, 1.0f));
  io::BufferWriter out;
  a.Serialize(&out);

  cl::MemoryBuffer b(8);  // a different experiment configuration
  io::BufferReader in(out.bytes());
  EXPECT_EQ(b.Deserialize(&in).code(), util::StatusCode::kInvalidArgument);
}

TEST(MemoryCheckpoint, EveryTruncationLeavesBufferUntouched) {
  cl::MemoryBuffer source(4);
  source.AddIncrement(SampleEntries(0, 1.0f));
  source.AddIncrement(SampleEntries(1, 3.0f));
  io::BufferWriter out;
  source.Serialize(&out);
  const std::vector<uint8_t>& full = out.bytes();

  for (size_t len = 0; len < full.size(); ++len) {
    cl::MemoryBuffer target(4);
    target.AddIncrement(SampleEntries(0, -9.0f));
    io::BufferReader in(full.data(), len);
    EXPECT_FALSE(target.Deserialize(&in).ok()) << "length " << len;
    // Failed restores must not leave a half-replaced buffer behind.
    ASSERT_EQ(target.size(), 2);
    EXPECT_EQ(target.entry(0).features, SampleEntries(0, -9.0f)[0].features);
  }
}

}  // namespace
}  // namespace edsr
