// MemoryBuffer: the bounded store of old samples {M^i}_{i<n}.
//
// Entries keep the raw input row plus method-specific side data:
//  * noise_scale — EDSR's per-dimension r(x^m) (paper §III-B), computed at
//    selection time from the kNN of the sample in its increment;
//  * stored_output — DER's frozen backbone output for distillation;
//  * stored_representation — the encoder representation at write time; the
//    drift anchor for retrieval policies (max-loss ranks entries by how far
//    the current model moved them from this snapshot);
//  * label / source_index — hidden bookkeeping for analysis and tests only.
#ifndef EDSR_SRC_CL_MEMORY_H_
#define EDSR_SRC_CL_MEMORY_H_

#include <vector>

#include "src/io/serialize.h"
#include "src/ssl/encoder.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace edsr::cl {

struct MemoryEntry {
  std::vector<float> features;
  int64_t task_id = 0;
  int64_t source_index = -1;
  int64_t label = -1;
  std::vector<float> noise_scale;    // EDSR only
  std::vector<float> stored_output;  // DER only
  std::vector<float> stored_representation;  // retrieval drift anchor
};

class MemoryBuffer {
 public:
  // `per_task_budget` caps how many entries any one increment may store.
  explicit MemoryBuffer(int64_t per_task_budget);

  // Adds one increment's selection; all entries must share `task_id` and
  // their count must respect the budget.
  void AddIncrement(std::vector<MemoryEntry> entries);

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  bool empty() const { return entries_.empty(); }
  const MemoryEntry& entry(int64_t i) const;
  const std::vector<MemoryEntry>& entries() const { return entries_; }
  int64_t per_task_budget() const { return per_task_budget_; }

  // (k, dim) tensor of the raw features of the given entries. All entries
  // must share the same feature dimension (true for image benchmarks).
  tensor::Tensor GatherFeatures(const std::vector<int64_t>& indices) const;

  // Entry indices grouped by task id (heterogeneous/tabular replay).
  std::vector<std::vector<int64_t>> GroupByTask(
      const std::vector<int64_t>& indices) const;

  // Bit-exact entry round-trip, including all side data (EDSR noise scales,
  // DER stored outputs). The buffer *contents* are the experiment — replay
  // strategies are defined by what was stored, so a resumed run must see
  // the identical entries, not recomputed ones. This is the one reader and
  // writer of the layout: resume and serving both read it through Read.
  void Serialize(io::BufferWriter* out) const;
  // Parses a Serialize payload into a buffer with the stored budget; corrupt
  // payloads return a Status.
  static util::Result<MemoryBuffer> Read(io::BufferReader* in);
  // Read, then a check that the stored budget is this buffer's; replaces the
  // contents only when both pass.
  util::Status Deserialize(io::BufferReader* in);

  // OK when every entry replays through an encoder built from `encoder`:
  // with input heads, its task id names a head and its row is that head's
  // width; without, its row is the backbone's input width. Otherwise an
  // IoError naming the first entry that does not fit.
  util::Status CheckFits(const ssl::EncoderConfig& encoder) const;

 private:
  int64_t per_task_budget_;
  std::vector<MemoryEntry> entries_;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_MEMORY_H_
