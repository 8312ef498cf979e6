// Tests for the thread-local scratch arena: bump allocation + scope rewind,
// the recycled-vector pool, stats counters, and the headline guarantee that
// a steady-state train step performs zero tensor-scratch heap allocations.
#include "src/tensor/arena.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace edsr {
namespace {

namespace arena = tensor::arena;

bool Aligned64(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % 64 == 0;
}

TEST(Arena, BumpAllocationsAre64ByteAligned) {
  arena::Scope scope;
  // Odd sizes on purpose: alignment must hold regardless of request size.
  EXPECT_TRUE(Aligned64(arena::AllocFloats(3)));
  EXPECT_TRUE(Aligned64(arena::AllocFloats(1)));
  EXPECT_TRUE(Aligned64(arena::AllocDoubles(7)));
}

TEST(Arena, ScopeRewindReusesTheSameMemory) {
  float* first = nullptr;
  {
    arena::Scope scope;
    first = arena::AllocFloats(100);
    first[0] = 1.0f;
  }
  {
    arena::Scope scope;
    float* second = arena::AllocFloats(100);
    // After the outer scope rewound, the same carve position serves again.
    EXPECT_EQ(first, second);
  }
}

TEST(Arena, NestedScopesRewindIndependently) {
  arena::Scope outer;
  float* a = arena::AllocFloats(10);
  float* inner_ptr = nullptr;
  {
    arena::Scope inner;
    inner_ptr = arena::AllocFloats(10);
    EXPECT_NE(a, inner_ptr);
  }
  // The inner scope's rewind must not release the outer allocation.
  arena::Scope probe;
  float* again = arena::AllocFloats(10);
  EXPECT_EQ(again, inner_ptr);  // inner position was released
  a[0] = 42.0f;                 // outer allocation still writable
  EXPECT_EQ(a[0], 42.0f);
}

TEST(Arena, LargeAllocationGetsDedicatedBlock) {
  arena::Scope scope;
  // Far larger than the 1 MiB bump block: must still succeed and align.
  float* big = arena::AllocFloats(3 * (int64_t{1} << 20));
  EXPECT_TRUE(Aligned64(big));
  big[0] = 1.0f;
  big[3 * (int64_t{1} << 20) - 1] = 2.0f;
}

TEST(Arena, AcquireZeroedVectorIsZeroed) {
  // Dirty a vector, recycle it, and re-acquire the same capacity class.
  std::vector<float> v = arena::AcquireVector(64);
  for (float& x : v) x = 13.0f;
  arena::RecycleVector(std::move(v));
  std::vector<float> z = arena::AcquireZeroedVector(64);
  ASSERT_EQ(z.size(), 64u);
  for (float x : z) EXPECT_EQ(x, 0.0f);
}

TEST(Arena, RecycledVectorIsReusedWithoutReallocation) {
  arena::ResetStats();
  std::vector<float> v = arena::AcquireVector(100);
  const float* buffer = v.data();
  arena::RecycleVector(std::move(v));
  ASSERT_GE(arena::Stats().pool_returns, 1);

  // Re-acquiring a smaller size from the same power-of-two class must hit
  // the pool and resize in place (capacity >= bucket floor >= request).
  std::vector<float> w = arena::AcquireVector(70);
  EXPECT_EQ(w.data(), buffer);
  EXPECT_EQ(w.size(), 70u);
  ASSERT_GE(arena::Stats().pool_hits, 1);
  arena::RecycleVector(std::move(w));
}

TEST(Arena, StatsCountersTrackActivity) {
  arena::ResetStats();
  {
    arena::Scope scope;
    arena::AllocFloats(8);
    arena::AllocFloats(8);
  }
  const arena::ArenaStats& stats = arena::Stats();
  EXPECT_EQ(stats.bump_allocs, 2);
  EXPECT_EQ(stats.scope_resets, 1);
  EXPECT_GE(stats.bump_bytes_peak, 2 * 64);  // two aligned 32-byte requests

  std::vector<float> v = arena::AcquireVector(16);
  arena::RecycleVector(std::move(v));
  std::vector<float> w = arena::AcquireVector(16);
  EXPECT_GE(arena::Stats().pool_hits, 1);
  arena::RecycleVector(std::move(w));
}

TEST(Arena, SteadyStateTrainStepIsHeapAllocationFree) {
  // The acceptance criterion for the arena: once buffer sizes have been seen
  // (warmup), a full forward/backward train step acquires every tensor
  // buffer, grad buffer, and packing scratch from the arena — zero pool
  // misses and zero fresh bump blocks.
  util::Rng rng(0);
  tensor::Tensor w1 = tensor::Tensor::Randn({48, 32}, &rng, 0, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({32, 16}, &rng, 0, 0.05f, true);
  tensor::Tensor x = tensor::Tensor::Randn({16, 48}, &rng);

  auto step = [&]() {
    w1.ZeroGrad();
    w2.ZeroGrad();
    tensor::Tensor h = tensor::Relu(tensor::MatMul(x, w1));
    tensor::Tensor loss =
        tensor::MeanAll(tensor::Square(tensor::MatMul(h, w2)));
    loss.Backward();
  };

  for (int i = 0; i < 5; ++i) step();  // warm the pool and bump blocks

  arena::ResetStats();
  for (int i = 0; i < 3; ++i) step();
  // Read through the metrics registry's "arena.*" callback gauges — the
  // same path run records use — so this test also guards the telemetry
  // bridge, not just the TLS counters.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.Value("arena.pool_misses"), 0.0)
      << "steady-state step acquired a tensor buffer the pool could not serve";
  EXPECT_EQ(registry.Value("arena.bump_block_allocs"), 0.0)
      << "steady-state step grew the bump region";
  EXPECT_GT(registry.Value("arena.pool_hits"), 0.0)
      << "step did not exercise the pool at all";
}

}  // namespace
}  // namespace edsr
