#include "src/serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "src/io/container.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/grad_mode.h"
#include "src/util/logging.h"

namespace edsr::serve {

namespace {

// Caps mirroring nn::Module's own deserialization paranoia: a corrupt
// payload must never drive a huge allocation or an unbounded loop.
constexpr uint64_t kMaxStateEntries = 1 << 16;
constexpr uint64_t kMaxStateRank = 8;
constexpr uint64_t kMaxMemoryEntries = 1 << 20;
// The bank votes over 1 + (largest label) classes, one table slot each, so a
// label past this cap makes the memory implausible, and it yields no bank.
constexpr int64_t kMaxMemoryLabel = (1 << 16) - 1;

// Structurally skips one nn::Module::SerializeState payload (count, then
// per-tensor name | rank | dims | raw floats) without building the module.
// The serving process has no reason to materialize a training-only teacher
// just to step over its bytes.
util::Status SkipModuleState(io::BufferReader* in) {
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  if (count > kMaxStateEntries) {
    return util::Status::IoError("implausible module state entry count " +
                                 std::to_string(count));
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    EDSR_RETURN_NOT_OK(in->ReadString(&name));
    uint64_t ndim = 0;
    EDSR_RETURN_NOT_OK(in->ReadU64(&ndim));
    if (ndim > kMaxStateRank) {
      return util::Status::IoError("implausible tensor rank " +
                                   std::to_string(ndim) + " for " + name);
    }
    uint64_t numel = 1;
    for (uint64_t d = 0; d < ndim; ++d) {
      int64_t dim = 0;
      EDSR_RETURN_NOT_OK(in->ReadI64(&dim));
      if (dim < 0 || (dim > 0 && numel > in->remaining() / sizeof(float) /
                                             static_cast<uint64_t>(dim))) {
        return util::Status::IoError("tensor extent out of range for " + name);
      }
      numel *= static_cast<uint64_t>(dim);
    }
    EDSR_RETURN_NOT_OK(in->Skip(numel * sizeof(float)));
  }
  return util::Status::OK();
}

// Parses a cl::MemoryBuffer::Serialize payload, keeping only what serving
// needs: the raw labeled rows. Rows whose stored label is the "unlabeled"
// sentinel (-1) are dropped — they cannot vote in a KnnLabel bank. A label
// above kMaxMemoryLabel fails the parse.
util::Status ParseMemoryEntries(io::BufferReader* in, int64_t input_dim,
                                std::vector<float>* features,
                                std::vector<int64_t>* labels) {
  int64_t budget = 0;
  EDSR_RETURN_NOT_OK(in->ReadI64(&budget));
  if (budget < 0) {
    return util::Status::IoError("negative memory budget in checkpoint");
  }
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  if (count > kMaxMemoryEntries) {
    return util::Status::IoError("implausible memory entry count " +
                                 std::to_string(count));
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<float> row;
    int64_t task_id = 0;
    int64_t source_index = 0;
    int64_t label = 0;
    std::vector<float> noise_scale;
    std::vector<float> stored_output;
    std::vector<float> stored_representation;
    EDSR_RETURN_NOT_OK(in->ReadFloats(&row));
    EDSR_RETURN_NOT_OK(in->ReadI64(&task_id));
    EDSR_RETURN_NOT_OK(in->ReadI64(&source_index));
    EDSR_RETURN_NOT_OK(in->ReadI64(&label));
    EDSR_RETURN_NOT_OK(in->ReadFloats(&noise_scale));
    EDSR_RETURN_NOT_OK(in->ReadFloats(&stored_output));
    EDSR_RETURN_NOT_OK(in->ReadFloats(&stored_representation));
    if (static_cast<int64_t>(row.size()) != input_dim) {
      return util::Status::IoError(
          "memory entry " + std::to_string(i) + " has " +
          std::to_string(row.size()) + " features, encoder expects " +
          std::to_string(input_dim));
    }
    if (label > kMaxMemoryLabel) {
      return util::Status::IoError("implausible memory label " +
                                   std::to_string(label));
    }
    if (label < 0) continue;
    features->insert(features->end(), row.begin(), row.end());
    labels->push_back(label);
  }
  return util::Status::OK();
}

// Extracts the replay memory from a "strategy/extra" payload. Tries the
// CaSSLe-family layout (teacher flags + skipped module states + memory,
// written by EDSR) first, then the memory-only layout (DER/LUMP). An empty
// or unrecognized extra (finetune, SI) simply yields no bank — serving a
// memoryless strategy is legal, it just cannot answer KnnLabel.
void ParseMemoryFromExtra(const std::vector<uint8_t>& extra, int64_t input_dim,
                          std::vector<float>* features,
                          std::vector<int64_t>* labels) {
  auto try_layout = [&](bool with_teacher) {
    std::vector<float> staged_features;
    std::vector<int64_t> staged_labels;
    io::BufferReader in(extra);
    if (with_teacher) {
      uint8_t has_teacher = 0;
      uint8_t active = 0;
      uint8_t has_projector = 0;
      if (!in.ReadU8(&has_teacher).ok() || has_teacher > 1) return false;
      if (!in.ReadU8(&active).ok() || active > 1) return false;
      if (has_teacher != 0 && !SkipModuleState(&in).ok()) return false;
      if (!in.ReadU8(&has_projector).ok() || has_projector > 1) return false;
      if (has_projector != 0 && !SkipModuleState(&in).ok()) return false;
    }
    if (!ParseMemoryEntries(&in, input_dim, &staged_features, &staged_labels)
             .ok()) {
      return false;
    }
    // Replay strategies append name-tagged, length-prefixed selector /
    // retrieval-policy state after the memory (Save{Selector,Policy}State);
    // serving doesn't use it, so skip each blob.
    while (!in.AtEnd()) {
      std::string state_name;
      uint64_t state_size = 0;
      if (!in.ReadString(&state_name).ok()) return false;
      if (!in.ReadU64(&state_size).ok()) return false;
      if (!in.Skip(state_size).ok()) return false;
    }
    if (!in.ExpectEnd().ok()) return false;
    *features = std::move(staged_features);
    *labels = std::move(staged_labels);
    return true;
  };
  if (try_layout(/*with_teacher=*/true)) return;
  if (try_layout(/*with_teacher=*/false)) return;
}

}  // namespace

SnapshotHandle SnapshotRegistry::Install(SnapshotPayload payload,
                                         std::string source) {
  EDSR_TRACE_SPAN("serve_install_snapshot");
  EDSR_CHECK(payload.encoder != nullptr);
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->source_ = std::move(source);
  snapshot->increments_seen_ = payload.increments_seen;
  snapshot->encoder_ = std::move(payload.encoder);
  // Freeze for inference once; every forward through this snapshot inherits
  // eval mode (batch-norm running stats) and builds no autograd graph.
  snapshot->encoder_->SetTraining(false);
  snapshot->encoder_->SetRequiresGrad(false);
  snapshot->input_dim_ = snapshot->encoder_->input_dim();
  snapshot->representation_dim_ = snapshot->encoder_->representation_dim();

  if (!payload.memory_labels.empty()) {
    const int64_t n = static_cast<int64_t>(payload.memory_labels.size());
    const int64_t d = snapshot->representation_dim_;
    eval::RepresentationMatrix bank;
    bank.n = n;
    bank.d = d;
    bank.values.resize(n * d);
    {
      // Embed the stored rows under *this* snapshot's weights: the bank
      // must live in the same representation space as the queries it votes
      // on, so it is rebuilt at every swap rather than carried over.
      tensor::NoGradGuard no_grad;
      tensor::Tensor reps = snapshot->encoder_->Forward(tensor::Tensor::FromVector(
          payload.memory_features, {n, snapshot->input_dim_}));
      std::copy(reps.data().begin(), reps.data().end(), bank.values.begin());
    }
    // The bank votes with the trainer's kNN evaluation settings.
    eval::KnnOptions knn_options;
    knn_options.k = 10;
    knn_options.temperature = 0.1f;
    knn_options.num_classes =
        1 + *std::max_element(payload.memory_labels.begin(),
                              payload.memory_labels.end());
    snapshot->num_classes_ = knn_options.num_classes;
    snapshot->knn_ = std::make_unique<eval::KnnClassifier>(
        std::move(bank), payload.memory_labels, knn_options);
  }

  std::lock_guard<std::mutex> lock(mu_);
  snapshot->id_ = next_id_++;
  if (current_ != nullptr) {
    ++swaps_;
    EDSR_METRIC_COUNT("serve.swaps", 1);
  }
  current_ = snapshot;
  EDSR_LOG(Info) << "serve: installed snapshot " << snapshot->id_ << " from "
                 << snapshot->source_ << " (increments_seen="
                 << snapshot->increments_seen_ << ", knn_bank="
                 << snapshot->knn_bank_size() << ")";
  return current_;
}

SnapshotHandle SnapshotRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

int64_t SnapshotRegistry::swaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swaps_;
}

util::Result<SnapshotPayload> LoadSnapshotPayload(
    const std::string& path, const SnapshotLoadOptions& options) {
  EDSR_TRACE_SPAN("serve_load_snapshot");
  if (!options.encoder.input_head_dims.empty()) {
    // Heterogeneous-input encoders would need a head id on every request;
    // the wire protocol reserves no field for it yet.
    return util::Status::NotImplemented(
        "serving heterogeneous-input (multi-head) encoders is not supported");
  }
  util::Result<io::ContainerReader> opened =
      io::ContainerReader::OpenShared(path);
  if (!opened.ok()) return opened.status();
  const io::ContainerReader& reader = *opened;

  std::vector<std::vector<uint8_t>> sections;
  EDSR_RETURN_NOT_OK(
      reader.ReadSections({"strategy/meta", "strategy/encoder"}, &sections));

  SnapshotPayload payload;
  {
    io::BufferReader meta(sections[0]);
    std::string strategy_name;
    EDSR_RETURN_NOT_OK(meta.ReadString(&strategy_name));
    EDSR_RETURN_NOT_OK(meta.ReadI64(&payload.increments_seen));
    EDSR_RETURN_NOT_OK(meta.ExpectEnd());
    if (payload.increments_seen < 0) {
      return util::Status::IoError(path +
                                   ": negative increment counter in checkpoint");
    }
  }

  util::Rng scratch(0);  // weights are overwritten by the checkpoint below
  payload.encoder = ssl::Encoder::Make(options.encoder, &scratch);
  {
    io::BufferReader in(sections[1]);
    EDSR_RETURN_NOT_OK(payload.encoder->DeserializeState(&in));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  if (reader.HasSection("strategy/extra")) {
    std::vector<uint8_t> extra;
    EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/extra", &extra));
    ParseMemoryFromExtra(extra, payload.encoder->input_dim(),
                         &payload.memory_features, &payload.memory_labels);
  }
  return payload;
}

}  // namespace edsr::serve
