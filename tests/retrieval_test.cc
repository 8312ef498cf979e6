// Tests for retrieval policies (the replay read side) and their registry —
// the mirror of the selector suite in selection_test.cc.
#include "src/cl/retrieval.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace edsr {
namespace {

using cl::MemoryBuffer;
using cl::MemoryEntry;
using cl::RetrievalContext;
using cl::RetrievalPolicy;
using eval::RepresentationMatrix;

RepresentationMatrix MakeReps(std::vector<float> values, int64_t n,
                              int64_t d) {
  RepresentationMatrix m;
  m.values = std::move(values);
  m.n = n;
  m.d = d;
  return m;
}

// A buffer of n entries whose stored (write-time) representation is the
// 2-d point (i, 0).
MemoryBuffer MakeBuffer(int64_t n) {
  MemoryBuffer memory(n);
  std::vector<MemoryEntry> entries(n);
  for (int64_t i = 0; i < n; ++i) {
    entries[i].task_id = 0;
    entries[i].source_index = i;
    entries[i].features = {static_cast<float>(i), 0.0f};
    entries[i].stored_representation = {static_cast<float>(i), 0.0f};
  }
  memory.AddIncrement(std::move(entries));
  return memory;
}

// Current view = stored view: zero drift everywhere.
RepresentationMatrix UndriftedCurrent(const MemoryBuffer& memory) {
  std::vector<float> values;
  for (int64_t i = 0; i < memory.size(); ++i) {
    const std::vector<float>& stored =
        memory.entry(i).stored_representation;
    values.insert(values.end(), stored.begin(), stored.end());
  }
  return MakeReps(std::move(values), memory.size(), 2);
}

std::unique_ptr<RetrievalPolicy> MustCreate(const std::string& spec) {
  util::Result<std::unique_ptr<RetrievalPolicy>> policy =
      cl::RetrievalRegistry::Global().Create(spec);
  EXPECT_TRUE(policy.ok()) << spec << ": " << policy.status().message();
  return std::move(policy).ValueOrDie();
}

// ---- Registry + shared-contract property suite ----------------------------

TEST(RetrievalRegistry, EveryBuiltinConstructsByName) {
  std::vector<std::string> names = cl::RetrievalRegistry::Global().Names();
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    EXPECT_EQ(MustCreate(name)->name(), name);
  }
}

TEST(RetrievalRegistry, UnknownNameListsRegisteredEntries) {
  util::Result<std::unique_ptr<RetrievalPolicy>> result =
      cl::RetrievalRegistry::Global().Create("no-such-policy");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("no-such-policy"),
            std::string::npos);
  for (const std::string& name : cl::RetrievalRegistry::Global().Names()) {
    EXPECT_NE(result.status().message().find(name), std::string::npos)
        << "error must list " << name;
  }
}

TEST(RetrievalRegistry, ParameterizedSpecsConstruct) {
  EXPECT_EQ(MustCreate("entropy:order=least")->name(), "entropy");
}

TEST(RetrievalRegistry, RejectsUnknownOrMalformedSpecs) {
  EXPECT_FALSE(cl::RetrievalRegistry::Global().Create("").ok());
  EXPECT_FALSE(cl::RetrievalRegistry::Global().Create("uniform:foo=1").ok());
  EXPECT_FALSE(
      cl::RetrievalRegistry::Global().Create("entropy:order=bogus").ok());
}

TEST(RetrievalRegistry, PropertyExactUniqueInRangeForEveryK) {
  MemoryBuffer memory = MakeBuffer(12);
  RepresentationMatrix current = UndriftedCurrent(memory);
  RetrievalContext context;
  context.memory = &memory;
  context.current = &current;
  for (const std::string& name : cl::RetrievalRegistry::Global().Names()) {
    std::unique_ptr<RetrievalPolicy> policy = MustCreate(name);
    for (int64_t k : {int64_t{0}, int64_t{5}, memory.size(), int64_t{100}}) {
      util::Rng rng(17);
      std::vector<int64_t> draw =
          cl::DrawRetrieval(policy.get(), context, k, &rng);
      int64_t expected =
          std::min<int64_t>(std::max<int64_t>(k, 0), memory.size());
      EXPECT_EQ(static_cast<int64_t>(draw.size()), expected)
          << name << " at k " << k;
      std::set<int64_t> unique(draw.begin(), draw.end());
      EXPECT_EQ(unique.size(), draw.size()) << name << " drew duplicates";
      for (int64_t index : draw) {
        EXPECT_GE(index, 0) << name;
        EXPECT_LT(index, memory.size()) << name;
      }
    }
  }
}

TEST(RetrievalRegistry, PropertyDeterministicUnderFixedSeed) {
  MemoryBuffer memory = MakeBuffer(12);
  RepresentationMatrix current = UndriftedCurrent(memory);
  RetrievalContext context;
  context.memory = &memory;
  context.current = &current;
  for (const std::string& name : cl::RetrievalRegistry::Global().Names()) {
    std::unique_ptr<RetrievalPolicy> a = MustCreate(name);
    std::unique_ptr<RetrievalPolicy> b = MustCreate(name);
    util::Rng rng_a(21), rng_b(21);
    EXPECT_EQ(cl::DrawRetrieval(a.get(), context, 6, &rng_a),
              cl::DrawRetrieval(b.get(), context, 6, &rng_b))
        << name << " must be deterministic under a fixed seed";
  }
}

TEST(MakeRetrievalOrDie, EmptySpecFallsBackToUniform) {
  EXPECT_EQ(cl::MakeRetrievalOrDie("")->name(), "uniform");
  EXPECT_EQ(cl::MakeRetrievalOrDie("margin")->name(), "margin");
}

// ---- DrawRetrieval edge-case contract -------------------------------------

class StubPolicy : public RetrievalPolicy {
 public:
  explicit StubPolicy(std::vector<int64_t> raw) : raw_(std::move(raw)) {}
  std::vector<int64_t> Draw(const RetrievalContext&, int64_t,
                            util::Rng*) override {
    return raw_;
  }
  std::string name() const override { return "stub"; }

 private:
  std::vector<int64_t> raw_;
};

TEST(DrawRetrieval, DropsDuplicatesAndPadsShortDraws) {
  MemoryBuffer memory = MakeBuffer(8);
  RetrievalContext context;
  context.memory = &memory;
  StubPolicy stub({3, 3, 6});
  util::Rng rng(30);
  EXPECT_EQ(cl::DrawRetrieval(&stub, context, 4, &rng),
            (std::vector<int64_t>{3, 6, 0, 1}));
}

TEST(DrawRetrieval, KCoveringBufferSkipsThePolicy) {
  MemoryBuffer memory = MakeBuffer(3);
  RetrievalContext context;
  context.memory = &memory;
  // Out-of-range stub: would abort if DrawRetrieval consulted it.
  StubPolicy stub({-1});
  util::Rng rng(31);
  EXPECT_EQ(cl::DrawRetrieval(&stub, context, 3, &rng),
            (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(cl::DrawRetrieval(&stub, context, 9, &rng),
            (std::vector<int64_t>{0, 1, 2}));
}

TEST(DrawRetrieval, NonPositiveKOrEmptyBufferIsEmpty) {
  MemoryBuffer memory = MakeBuffer(4);
  RetrievalContext context;
  context.memory = &memory;
  StubPolicy stub({0});
  util::Rng rng(32);
  EXPECT_TRUE(cl::DrawRetrieval(&stub, context, 0, &rng).empty());
  EXPECT_TRUE(cl::DrawRetrieval(&stub, context, -3, &rng).empty());
  MemoryBuffer empty(4);
  RetrievalContext empty_context;
  empty_context.memory = &empty;
  EXPECT_TRUE(cl::DrawRetrieval(&stub, empty_context, 2, &rng).empty());
}

TEST(DrawRetrieval, OutOfRangeDrawAborts) {
  MemoryBuffer memory = MakeBuffer(4);
  RetrievalContext context;
  context.memory = &memory;
  StubPolicy stub({99});
  util::Rng rng(33);
  EXPECT_DEATH(cl::DrawRetrieval(&stub, context, 2, &rng), "out-of-range");
}

// ---- Policy behavior -------------------------------------------------------

TEST(MaxLossRetrieval, RanksByDriftFromStoredRepresentation) {
  MemoryBuffer memory = MakeBuffer(6);
  // Drift entries 2 and 4 far from their stored anchors; everyone else is
  // exactly where they were written.
  RepresentationMatrix current = UndriftedCurrent(memory);
  current.values[2 * 2 + 1] = 10.0f;  // entry 2 moved by 10
  current.values[4 * 2 + 1] = 5.0f;   // entry 4 moved by 5
  RetrievalContext context;
  context.memory = &memory;
  context.current = &current;
  cl::MaxLossRetrieval policy;
  EXPECT_TRUE(policy.needs_current_representations());
  util::Rng rng(40);
  EXPECT_EQ(cl::DrawRetrieval(&policy, context, 2, &rng),
            (std::vector<int64_t>{2, 4}));
}

TEST(MaxLossRetrieval, MissingAnchorFallsBackToCurrentNorm) {
  // Legacy entries without stored_representation rank by current norm: the
  // stored anchors are (i, 0), so stripping them makes the largest-index
  // entries (largest norms) replay first.
  MemoryBuffer raw(6);
  std::vector<MemoryEntry> entries(6);
  for (int64_t i = 0; i < 6; ++i) {
    entries[i].task_id = 0;
    entries[i].features = {static_cast<float>(i), 0.0f};
  }
  raw.AddIncrement(std::move(entries));
  std::vector<float> values;
  for (int64_t i = 0; i < 6; ++i) {
    values.push_back(static_cast<float>(i));
    values.push_back(0.0f);
  }
  RepresentationMatrix current = MakeReps(std::move(values), 6, 2);
  RetrievalContext context;
  context.memory = &raw;
  context.current = &current;
  cl::MaxLossRetrieval policy;
  util::Rng rng(41);
  EXPECT_EQ(cl::DrawRetrieval(&policy, context, 2, &rng),
            (std::vector<int64_t>{5, 4}));
}

TEST(EntropyRetrieval, OrderParameterFlipsTheRanking) {
  MemoryBuffer memory = MakeBuffer(5);
  RepresentationMatrix current = UndriftedCurrent(memory);  // norms 0..4
  RetrievalContext context;
  context.memory = &memory;
  context.current = &current;
  util::Rng rng(42);
  std::unique_ptr<RetrievalPolicy> largest = MustCreate("entropy");
  EXPECT_EQ(cl::DrawRetrieval(largest.get(), context, 2, &rng),
            (std::vector<int64_t>{4, 3}));
  std::unique_ptr<RetrievalPolicy> least = MustCreate("entropy:order=least");
  EXPECT_EQ(cl::DrawRetrieval(least.get(), context, 2, &rng),
            (std::vector<int64_t>{0, 1}));
}

TEST(MarginRetrieval, PicksBoundaryEntriesFirst)  {
  // Two tight pairs far apart plus a midpoint equidistant from both: paired
  // points have best ~0 and second = far (huge margin), the midpoint has
  // best == second (margin ~0) — the boundary entry replays first.
  std::vector<float> values = {
      0.0f, 0.0f,   // pair A
      0.1f, 0.0f,
      10.0f, 0.0f,  // pair B
      10.1f, 0.0f,
      5.05f, 0.0f,  // midpoint, equidistant from both pairs (index 4)
  };
  MemoryBuffer memory(5);
  std::vector<MemoryEntry> entries(5);
  for (int64_t i = 0; i < 5; ++i) {
    entries[i].task_id = 0;
    entries[i].features = {values[i * 2], values[i * 2 + 1]};
    entries[i].stored_representation = entries[i].features;
  }
  memory.AddIncrement(std::move(entries));
  RepresentationMatrix current = MakeReps(std::move(values), 5, 2);
  RetrievalContext context;
  context.memory = &memory;
  context.current = &current;
  cl::MarginRetrieval policy;
  util::Rng rng(43);
  std::vector<int64_t> draw = cl::DrawRetrieval(&policy, context, 1, &rng);
  EXPECT_EQ(draw, (std::vector<int64_t>{4}))
      << "the boundary entry must replay first";
}

TEST(UniformRetrieval, MatchesRngSampleWithoutReplacement) {
  // Uniform retrieval must consume the rng exactly like the classic ER draw,
  // one SampleWithoutReplacement(size, k) (bit-identical resumed runs depend
  // on this).
  MemoryBuffer memory = MakeBuffer(10);
  RetrievalContext context;
  context.memory = &memory;
  cl::UniformRetrieval policy;
  util::Rng rng_a(44), rng_b(44);
  EXPECT_EQ(cl::DrawRetrieval(&policy, context, 4, &rng_a),
            rng_b.SampleWithoutReplacement(10, 4));
}

// ---- Policy state ----------------------------------------------------------

TEST(PolicyState, RoundTripsAndSkipsAsLengthPrefixed) {
  cl::MaxLossRetrieval policy;
  io::BufferWriter out;
  io::SaveNamedState(policy, &out);
  cl::MaxLossRetrieval restored;
  io::BufferReader in(out.bytes());
  ASSERT_TRUE(io::LoadNamedState(&restored, &in).ok());
  EXPECT_TRUE(in.ExpectEnd().ok());
}

TEST(PolicyState, NameMismatchIsRejected) {
  cl::UniformRetrieval uniform;
  io::BufferWriter out;
  io::SaveNamedState(uniform, &out);
  cl::MarginRetrieval margin;
  io::BufferReader in(out.bytes());
  util::Status status = io::LoadNamedState(&margin, &in);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("uniform"), std::string::npos);
  EXPECT_NE(status.message().find("margin"), std::string::npos);
}

}  // namespace
}  // namespace edsr
