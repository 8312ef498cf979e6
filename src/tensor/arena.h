// Scratch arena: the allocator underneath every per-op temporary.
//
// Two tiers, both thread-local and lock-free (the engine is single-threaded
// per thread by design):
//
//  * Bump region — `Alloc<T>(n)` hands out 64-byte-aligned pointers carved
//    from large reusable blocks. Lifetime is scoped: an `arena::Scope` on the
//    stack marks an epoch, and everything allocated inside it is released
//    (and ASan-poisoned) when the scope closes. Kernels and op bodies use
//    this for packing panels, im2col columns, and reduction accumulators.
//    No pointer obtained from the bump region may be held across the
//    enclosing Scope — in particular nothing bump-allocated may escape into
//    tensor storage or an autograd closure.
//
//  * Vector pool — `AcquireVector(n)` / `RecycleVector(v)` recycle
//    `std::vector<float>` buffers through power-of-two size buckets so that
//    steady-state training steps stop hitting the heap. Tensor storage and
//    grad buffers are recycled automatically (storage.h / tensor.h); the
//    contents of an acquired vector are unspecified, so callers must fully
//    overwrite it (or use AcquireZeroedVector).
//
// Under ASan the bump region and parked pool buffers are manually poisoned,
// so stale-pointer reuse across a Scope boundary or a recycle surfaces as a
// use-after-poison report in the `sanitize` preset.
//
// Stats() exposes counters (pool hits/misses, bump block allocations, peak
// bytes) used by the steady-state "zero heap allocations per train step"
// acceptance test and the arena micro-benchmarks.
#ifndef EDSR_SRC_TENSOR_ARENA_H_
#define EDSR_SRC_TENSOR_ARENA_H_

#include <cstdint>
#include <vector>

namespace edsr::tensor::arena {

struct ArenaStats {
  // Bump region.
  int64_t bump_allocs = 0;        // Alloc<T> calls served
  int64_t bump_block_allocs = 0;  // fresh heap blocks for the bump region
  int64_t bump_bytes_peak = 0;    // high-water mark of live bump bytes
  int64_t scope_resets = 0;       // Scope epochs closed
  // Vector pool.
  int64_t pool_hits = 0;     // Acquire*Vector served from the pool
  int64_t pool_misses = 0;   // Acquire*Vector fell back to the heap
  int64_t pool_returns = 0;  // vectors parked back into the pool
  int64_t pool_drops = 0;    // recycled vectors freed (bucket already full)
};

// ---- Bump region ---------------------------------------------------------

// RAII epoch over the bump region. Scopes nest; closing one releases every
// bump allocation made since it opened. Blocks stay cached for reuse.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int64_t saved_block_;
  int64_t saved_offset_;
};

// 64-byte-aligned uninitialized scratch, valid until the enclosing Scope
// closes. n == 0 returns a non-null dummy pointer.
float* AllocFloats(int64_t n);
double* AllocDoubles(int64_t n);
int64_t* AllocInt64(int64_t n);

// ---- Vector pool ---------------------------------------------------------

// A vector of size n with unspecified contents (pool hit keeps the old
// bytes). Callers must overwrite every element they read.
std::vector<float> AcquireVector(int64_t n);
// Same, but zero-filled.
std::vector<float> AcquireZeroedVector(int64_t n);
// Parks a dead buffer for reuse. Safe to call during static destruction
// (becomes a plain free) and with empty vectors (no-op).
void RecycleVector(std::vector<float>&& v);

// ---- Introspection / test support ---------------------------------------

const ArenaStats& Stats();
void ResetStats();
// Bytes currently parked in the vector pool.
int64_t PooledBytes();

}  // namespace edsr::tensor::arena

#endif  // EDSR_SRC_TENSOR_ARENA_H_
