// Snapshot registry: the serving layer's view of "the current model".
//
// Continual learning replaces the model at every increment boundary, so a
// server must hot-swap checkpoints without dropping the requests already in
// flight. The registry solves this with refcounted immutable snapshots:
//
//   * A Snapshot bundles one query-ready encoder (eval mode, grads frozen)
//     with an optional KnnClassifier bank built by embedding the
//     checkpoint's replay memory — the same buffer EDSR's selection keeps
//     (PAPER.md §III-B) doubles as the server's labeled nearest-neighbour
//     index.
//   * SnapshotRegistry::Current() hands out shared_ptr<const Snapshot>
//     handles. Install() swaps the current pointer atomically (under a
//     mutex); requests that already hold the old handle finish on the old
//     weights, new requests see the new ones, and the old snapshot is freed
//     when its last in-flight request completes. No request ever observes a
//     half-swapped model.
//   * LoadSnapshotPayload reads the encoder (and memory) out of an EDSRBOX1
//     run checkpoint via ContainerReader::OpenShared, so the server can
//     open a file the trainer process is about to atomically replace.
//
// Thread-safety: Install/Current/swaps are safe from any thread. The
// encoder inside a snapshot is NOT internally synchronized — the
// micro-batcher's single worker thread is the only forwarder per snapshot
// handle chain (see batcher.h).
#ifndef EDSR_SRC_SERVE_SNAPSHOT_H_
#define EDSR_SRC_SERVE_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/eval/knn.h"
#include "src/ssl/encoder.h"
#include "src/util/status.h"

namespace edsr::serve {

struct SnapshotLoadOptions {
  // Architecture of the checkpointed encoder; must match what the trainer
  // built (the checkpoint stores weights, not structure).
  ssl::EncoderConfig encoder;
};

// What LoadSnapshotPayload extracts from a checkpoint, before the registry
// stamps an id on it.
struct SnapshotPayload {
  std::unique_ptr<ssl::Encoder> encoder;
  // Flattened (n, input_dim) raw inputs of labeled memory entries (label
  // >= 0); empty when the checkpoint has no usable memory.
  std::vector<float> memory_features;
  std::vector<int64_t> memory_labels;
  int64_t increments_seen = 0;
};

// One immutable, query-ready model version.
class Snapshot {
 public:
  uint64_t id() const { return id_; }
  const std::string& source() const { return source_; }
  int64_t increments_seen() const { return increments_seen_; }
  int64_t input_dim() const { return input_dim_; }
  int64_t representation_dim() const { return representation_dim_; }

  // The single-writer inference encoder (see thread-safety note above).
  ssl::Encoder* encoder() const { return encoder_.get(); }
  // Labeled memory bank index; nullptr when the checkpoint had none.
  const eval::KnnClassifier* knn() const { return knn_.get(); }
  int64_t knn_bank_size() const { return knn_ ? knn_->bank_size() : 0; }
  int64_t num_classes() const { return num_classes_; }

 private:
  friend class SnapshotRegistry;
  Snapshot() = default;

  uint64_t id_ = 0;
  std::string source_;
  int64_t increments_seen_ = 0;
  int64_t input_dim_ = 0;
  int64_t representation_dim_ = 0;
  int64_t num_classes_ = 0;
  std::unique_ptr<ssl::Encoder> encoder_;
  std::unique_ptr<eval::KnnClassifier> knn_;
};

using SnapshotHandle = std::shared_ptr<const Snapshot>;

class SnapshotRegistry {
 public:
  // Wraps a payload into an immutable snapshot (assigning the next id,
  // freezing the encoder into eval/no-grad mode, embedding the memory rows
  // into a KnnClassifier bank) and makes it current. Returns the installed
  // handle. Previous snapshots stay alive exactly as long as somebody holds
  // their handle.
  SnapshotHandle Install(SnapshotPayload payload, std::string source);

  // The current snapshot, or nullptr before the first Install.
  SnapshotHandle Current() const;

  // Number of Install calls that replaced an existing snapshot.
  int64_t swaps() const;

 private:
  mutable std::mutex mu_;
  SnapshotHandle current_;
  uint64_t next_id_ = 1;
  int64_t swaps_ = 0;
};

// Reads "strategy/meta", "strategy/encoder" and, when present, the replay
// buffer in "strategy/memory" from an EDSRBOX1 run checkpoint written by
// ContinualStrategy::SaveTo. The memory is parsed by cl::MemoryBuffer::Read,
// its one reader; strategies without a buffer (finetune, SI, CaSSLe) write
// no such section and serve without a bank, and so does a memory that does
// not parse or does not fit the encoder. Corrupt or mid-rename-partial files
// surface as a clean error Status; nothing in this path aborts.
util::Result<SnapshotPayload> LoadSnapshotPayload(
    const std::string& path, const SnapshotLoadOptions& options);

}  // namespace edsr::serve

#endif  // EDSR_SRC_SERVE_SNAPSHOT_H_
