#include "src/tensor/arena.h"

#include <algorithm>
#include <cstddef>
#include <new>

#include "src/obs/metrics.h"
#include "src/util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define EDSR_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EDSR_ARENA_ASAN 1
#endif
#endif

#if defined(EDSR_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#define EDSR_ARENA_POISON(p, n) __asan_poison_memory_region((p), (n))
#define EDSR_ARENA_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define EDSR_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define EDSR_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace edsr::tensor::arena {

namespace {

constexpr int64_t kAlignment = 64;
constexpr int64_t kBlockBytes = int64_t{1} << 20;  // 1 MiB bump blocks
constexpr int64_t kNumBuckets = 40;                // pool covers up to 2^39
constexpr int64_t kMaxPerBucket = 64;
constexpr int64_t kMaxPooledBytes = int64_t{1} << 28;  // 256 MiB cap

struct Block {
  char* data = nullptr;
  int64_t size = 0;
};

void FreeBlock(Block& block);

// All arena state for one thread. Freed when the owning thread exits (the
// serving path runs encoders on short-lived worker threads, so an immortal
// state per thread would accumulate); the raw `state` pointer below keeps
// the hot path to a single TLS load.
struct State {
  // Bump region.
  std::vector<Block> blocks;
  int64_t cur_block = 0;  // index of the block being carved
  int64_t offset = 0;     // next free byte within blocks[cur_block]
  int64_t live_bytes = 0; // bytes handed out since the outermost scope
  // Vector pool, bucket b holds vectors with capacity >= 2^b.
  std::vector<std::vector<float>> buckets[kNumBuckets];
  int64_t pooled_bytes = 0;
  ArenaStats stats;

  ~State() {
    for (Block& block : blocks) FreeBlock(block);
    for (auto& bucket : buckets) {
      for (std::vector<float>& v : bucket) {
        EDSR_ARENA_UNPOISON(v.data(), v.capacity() * sizeof(float));
      }
    }
  }
};

thread_local State* state = nullptr;

// Deletes this thread's state at thread exit and nulls the pointer, so a
// RecycleVector that runs after teardown degrades to a plain free instead
// of touching a dead pool.
struct StateOwner {
  ~StateOwner() {
    delete state;
    state = nullptr;
  }
};
thread_local StateOwner state_owner;

State& TLS() {
  if (state == nullptr) {
    state = new State();
    // Odr-use the owner so its thread-exit destructor gets registered.
    (void)&state_owner;
  }
  return *state;
}

int64_t CeilLog2(int64_t n) {
  int64_t b = 0;
  while ((int64_t{1} << b) < n) ++b;
  return b;
}

char* NewBlock(int64_t bytes) {
  return static_cast<char*>(
      ::operator new(static_cast<size_t>(bytes),
                     std::align_val_t{kAlignment}));
}

void FreeBlock(Block& block) {
  EDSR_ARENA_UNPOISON(block.data, block.size);
  ::operator delete(block.data, std::align_val_t{kAlignment});
  block.data = nullptr;
  block.size = 0;
}

char* BumpAlloc(int64_t bytes) {
  State& s = TLS();
  ++s.stats.bump_allocs;
  if (bytes <= 0) {
    alignas(kAlignment) static char zero_sized[kAlignment];
    return zero_sized;
  }
  int64_t need = (bytes + kAlignment - 1) & ~(kAlignment - 1);
  for (;;) {
    if (s.cur_block < static_cast<int64_t>(s.blocks.size())) {
      Block& block = s.blocks[s.cur_block];
      int64_t start = (s.offset + kAlignment - 1) & ~(kAlignment - 1);
      if (start + need <= block.size) {
        s.offset = start + need;
        s.live_bytes += need;
        s.stats.bump_bytes_peak =
            std::max(s.stats.bump_bytes_peak, s.live_bytes);
        char* p = block.data + start;
        EDSR_ARENA_UNPOISON(p, need);
        return p;
      }
      // Current block exhausted for this request; move to the next one.
      ++s.cur_block;
      s.offset = 0;
      continue;
    }
    int64_t block_bytes = std::max(kBlockBytes, need);
    Block block{NewBlock(block_bytes), block_bytes};
    EDSR_ARENA_POISON(block.data, block.size);
    s.blocks.push_back(block);
    ++s.stats.bump_block_allocs;
  }
}

}  // namespace

Scope::Scope() {
  State& s = TLS();
  saved_block_ = s.cur_block;
  saved_offset_ = s.offset;
}

Scope::~Scope() {
  State& s = TLS();
  // Re-poison everything handed out since this scope opened. Blocks are
  // kept for reuse; only the carve positions rewind.
  for (int64_t b = saved_block_ + 1;
       b <= s.cur_block && b < static_cast<int64_t>(s.blocks.size()); ++b) {
    EDSR_ARENA_POISON(s.blocks[b].data, s.blocks[b].size);
  }
  if (saved_block_ < static_cast<int64_t>(s.blocks.size())) {
    Block& block = s.blocks[saved_block_];
    EDSR_ARENA_POISON(block.data + saved_offset_,
                      block.size - saved_offset_);
  }
  // live_bytes is approximate across alignment gaps; recompute from the
  // rewound position so nesting stays consistent.
  int64_t released = 0;
  if (s.cur_block == saved_block_) {
    released = s.offset - saved_offset_;
  } else {
    released = s.offset;
    for (int64_t b = saved_block_ + 1; b < s.cur_block &&
         b < static_cast<int64_t>(s.blocks.size()); ++b) {
      released += s.blocks[b].size;
    }
    if (saved_block_ < static_cast<int64_t>(s.blocks.size())) {
      released += s.blocks[saved_block_].size - saved_offset_;
    }
  }
  s.live_bytes = std::max<int64_t>(0, s.live_bytes - released);
  s.cur_block = saved_block_;
  s.offset = saved_offset_;
  ++s.stats.scope_resets;
}

float* AllocFloats(int64_t n) {
  return reinterpret_cast<float*>(BumpAlloc(n * static_cast<int64_t>(sizeof(float))));
}

double* AllocDoubles(int64_t n) {
  return reinterpret_cast<double*>(BumpAlloc(n * static_cast<int64_t>(sizeof(double))));
}

int64_t* AllocInt64(int64_t n) {
  return reinterpret_cast<int64_t*>(BumpAlloc(n * static_cast<int64_t>(sizeof(int64_t))));
}

std::vector<float> AcquireVector(int64_t n) {
  State& s = TLS();
  if (n <= 0) return {};
  int64_t b = CeilLog2(n);
  if (b < kNumBuckets && !s.buckets[b].empty()) {
    std::vector<float> v = std::move(s.buckets[b].back());
    s.buckets[b].pop_back();
    s.pooled_bytes -=
        static_cast<int64_t>(v.capacity()) * static_cast<int64_t>(sizeof(float));
    EDSR_ARENA_UNPOISON(v.data(), v.capacity() * sizeof(float));
    v.resize(static_cast<size_t>(n));  // capacity >= 2^b >= n: no realloc
    ++s.stats.pool_hits;
    return v;
  }
  ++s.stats.pool_misses;
  // Reserve the full bucket size so the capacity's floor-log2 equals this
  // request's ceil-log2: the buffer then lands back in bucket b on recycle
  // and every same-size reacquire hits.
  std::vector<float> v;
  if (b < kNumBuckets) v.reserve(size_t{1} << b);
  v.resize(static_cast<size_t>(n));
  return v;
}

std::vector<float> AcquireZeroedVector(int64_t n) {
  std::vector<float> v = AcquireVector(n);
  std::fill(v.begin(), v.end(), 0.0f);
  return v;
}

void RecycleVector(std::vector<float>&& v) {
  if (v.capacity() == 0) return;
  if (state == nullptr) {
    // Before first use or after thread-exit teardown: nothing to pool into.
    std::vector<float>().swap(v);
    return;
  }
  State& s = *state;
  int64_t cap = static_cast<int64_t>(v.capacity());
  int64_t bytes = cap * static_cast<int64_t>(sizeof(float));
  // Bucket by the largest power of two the capacity can serve.
  int64_t b = CeilLog2(cap);
  if ((int64_t{1} << b) > cap) --b;  // floor
  if (b < 0 || b >= kNumBuckets ||
      static_cast<int64_t>(s.buckets[b].size()) >= kMaxPerBucket ||
      s.pooled_bytes + bytes > kMaxPooledBytes) {
    ++s.stats.pool_drops;
    std::vector<float>().swap(v);
    return;
  }
  EDSR_ARENA_POISON(v.data(), v.capacity() * sizeof(float));
  s.buckets[b].push_back(std::move(v));
  s.pooled_bytes += bytes;
  ++s.stats.pool_returns;
}

const ArenaStats& Stats() { return TLS().stats; }

namespace {

// Exports the allocator stats as pull-model gauges ("arena.*"). Callback
// gauges read the *calling* thread's TLS stats, which matches the engine's
// single-threaded-per-thread design: whoever snapshots the registry (the
// trainer, a test) sees the arena it actually trained on.
const bool g_arena_gauges_registered = [] {
  auto& registry = obs::MetricsRegistry::Global();
  auto field = [&registry](const char* name, int64_t ArenaStats::* member) {
    registry.RegisterCallbackGauge(name, [member] {
      return static_cast<double>(Stats().*member);
    });
  };
  field("arena.bump_allocs", &ArenaStats::bump_allocs);
  field("arena.bump_block_allocs", &ArenaStats::bump_block_allocs);
  field("arena.bump_bytes_peak", &ArenaStats::bump_bytes_peak);
  field("arena.scope_resets", &ArenaStats::scope_resets);
  field("arena.pool_hits", &ArenaStats::pool_hits);
  field("arena.pool_misses", &ArenaStats::pool_misses);
  field("arena.pool_returns", &ArenaStats::pool_returns);
  field("arena.pool_drops", &ArenaStats::pool_drops);
  registry.RegisterCallbackGauge("arena.pooled_bytes", [] {
    return static_cast<double>(PooledBytes());
  });
  return true;
}();

}  // namespace

void ResetStats() { TLS().stats = ArenaStats{}; }

int64_t PooledBytes() { return TLS().pooled_bytes; }

}  // namespace edsr::tensor::arena
