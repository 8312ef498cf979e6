#include "src/serve/server.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace edsr::serve {

ServeHandle::ServeHandle(const ServeOptions& options)
    : options_(options), cache_(options.cache_capacity) {
  batcher_ = std::make_unique<MicroBatcher>(&registry_, &cache_,
                                            options.batcher);
}

ServeHandle::~ServeHandle() { batcher_->Stop(); }

util::Status ServeHandle::LoadAndSwap(const std::string& checkpoint_path) {
  EDSR_TRACE_SPAN("serve_load_and_swap");
  auto payload = LoadSnapshotPayload(checkpoint_path, options_.load);
  if (!payload.ok()) return payload.status();
  registry_.Install(std::move(payload).ValueOrDie(), checkpoint_path);
  return util::Status::OK();
}

SnapshotHandle ServeHandle::InstallSnapshot(
    std::unique_ptr<ssl::Encoder> encoder, std::vector<float> memory_features,
    std::vector<int64_t> memory_labels, std::string source) {
  SnapshotPayload payload;
  payload.encoder = std::move(encoder);
  payload.memory_features = std::move(memory_features);
  payload.memory_labels = std::move(memory_labels);
  return registry_.Install(std::move(payload), std::move(source));
}

EmbedResult ServeHandle::Embed(const std::vector<float>& input,
                               TraceContext* trace) {
  return Roundtrip(input, /*want_label=*/false, trace);
}

EmbedResult ServeHandle::KnnLabel(const std::vector<float>& input,
                                  TraceContext* trace) {
  return Roundtrip(input, /*want_label=*/true, trace);
}

EmbedResult ServeHandle::Roundtrip(const std::vector<float>& input,
                                   bool want_label, TraceContext* trace) {
  EDSR_TRACE_SPAN("serve_request");
  // In-process callers get a local context so the per-class latency
  // histograms see every request, not just the TCP ones.
  TraceContext local;
  const bool own_trace = trace == nullptr;
  if (own_trace) {
    trace = &local;
    trace->t_accept_us = TraceNowUs();
  }
  trace->klass = want_label ? RequestClass::kKnnLabel : RequestClass::kEmbed;
  EmbedResult result;

  // Cache fast path. A cached representation can also answer KnnLabel —
  // the knn bank belongs to the snapshot that produced the entry, so the
  // prediction is identical to the cold path's.
  SnapshotHandle snapshot = registry_.Current();
  if (snapshot != nullptr &&
      cache_.Lookup(snapshot->id(), input, &result.representation)) {
    trace->cache_hit = true;
    result.snapshot_id = snapshot->id();
    if (want_label) {
      if (snapshot->knn() == nullptr) {
        result.status = util::Status::InvalidArgument(
            "snapshot " + std::to_string(snapshot->id()) +
            " has no labeled memory bank; KnnLabel unavailable");
      } else {
        result.label = snapshot->knn()->Predict(result.representation.data());
      }
    }
  } else {
    trace->t_queue_us = TraceNowUs();
    std::future<EmbedResult> future;
    util::Status submitted = batcher_->Submit(input, want_label, &future,
                                              trace);
    if (!submitted.ok()) {
      result.status = std::move(submitted);
    } else {
      result = future.get();
    }
  }

  trace->error = !result.status.ok();
  if (own_trace) {
    trace->t_reply_us = TraceNowUs();
    RecordTrace(*trace);
  }
  return result;
}

ServeHandle::HealthInfo ServeHandle::Health() const {
  HealthInfo info;
  SnapshotHandle snapshot = registry_.Current();
  if (snapshot != nullptr) {
    info.ok = true;
    info.snapshot_id = snapshot->id();
    info.increments_seen = snapshot->increments_seen();
    info.source = snapshot->source();
  }
  info.queue_depth = batcher_->queue_depth();
  return info;
}

obs::Json ServeHandle::StatsJson() const {
  obs::Json stats = obs::Json::Object();
  obs::Json snap = obs::Json::Object();
  SnapshotHandle snapshot = registry_.Current();
  if (snapshot != nullptr) {
    snap.Set("id", static_cast<int64_t>(snapshot->id()));
    snap.Set("source", snapshot->source());
    snap.Set("increments_seen", snapshot->increments_seen());
    snap.Set("input_dim", snapshot->input_dim());
    snap.Set("representation_dim", snapshot->representation_dim());
    snap.Set("knn_bank_size", snapshot->knn_bank_size());
    snap.Set("num_classes", snapshot->num_classes());
  }
  stats.Set("snapshot", std::move(snap));
  stats.Set("swaps", registry_.swaps());
  stats.Set("queue_depth", batcher_->queue_depth());
  obs::Json cache = obs::Json::Object();
  cache.Set("size", cache_.size());
  cache.Set("capacity", cache_.capacity());
  stats.Set("cache", std::move(cache));
  stats.Set("metrics", obs::MetricsRegistry::Global().ToJson());
  return stats;
}

}  // namespace edsr::serve
