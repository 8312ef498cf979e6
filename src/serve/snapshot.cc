#include "src/serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "src/cl/memory.h"
#include "src/io/container.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/grad_mode.h"
#include "src/util/logging.h"

namespace edsr::serve {

namespace {

// The bank votes over 1 + (largest label) classes, one table slot each, so a
// label past this cap makes the memory implausible, and it yields no bank.
constexpr int64_t kMaxMemoryLabel = (1 << 16) - 1;

// The KnnLabel bank of a "strategy/memory" section: the raw rows of its
// labeled entries. Rows labeled -1 ("unlabeled") cannot vote and are
// dropped. A section that does not parse, a row that does not fit the
// encoder, or a label above kMaxMemoryLabel leaves the bank empty: serving
// then answers Embed but not KnnLabel.
void ReadMemoryBank(const std::vector<uint8_t>& bytes,
                    const ssl::EncoderConfig& encoder,
                    std::vector<float>* features,
                    std::vector<int64_t>* labels) {
  io::BufferReader in(bytes);
  util::Result<cl::MemoryBuffer> memory = cl::MemoryBuffer::Read(&in);
  if (!memory.ok() || !in.ExpectEnd().ok() ||
      !(*memory).CheckFits(encoder).ok()) {
    return;
  }
  std::vector<float> staged_features;
  std::vector<int64_t> staged_labels;
  for (const cl::MemoryEntry& entry : (*memory).entries()) {
    if (entry.label > kMaxMemoryLabel) return;
    if (entry.label < 0) continue;
    staged_features.insert(staged_features.end(), entry.features.begin(),
                           entry.features.end());
    staged_labels.push_back(entry.label);
  }
  *features = std::move(staged_features);
  *labels = std::move(staged_labels);
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

  // No section: the strategy keeps no replay buffer (finetune, SI, CaSSLe).
  if (reader.HasSection("strategy/memory")) {
    std::vector<uint8_t> memory;
    EDSR_RETURN_NOT_OK(reader.ReadSection("strategy/memory", &memory));
    ReadMemoryBank(memory, options.encoder, &payload.memory_features,
                   &payload.memory_labels);
  }
  return payload;
}

}  // namespace edsr::serve
