#include "src/serve/batcher.h"

#include <chrono>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/grad_mode.h"
#include "src/tensor/tensor.h"
#include "src/util/check.h"

namespace edsr::serve {

MicroBatcher::MicroBatcher(SnapshotRegistry* registry,
                           RepresentationCache* cache,
                           const BatcherOptions& options)
    : registry_(registry), cache_(cache), options_(options) {
  EDSR_CHECK(registry != nullptr);
  EDSR_CHECK_GT(options.max_batch, 0);
  EDSR_CHECK_GT(options.max_queue, 0);
  EDSR_CHECK_GE(options.max_delay_us, 0);
  obs::MetricsRegistry::Global().RegisterCallbackGauge(
      "serve.queue_depth", [this] { return static_cast<double>(queue_depth()); });
  worker_ = std::thread([this] { WorkerLoop(); });
}

MicroBatcher::~MicroBatcher() {
  Stop();
  // The registry keeps callbacks forever; leave a dead batcher's gauge
  // pointing at a constant instead of a dangling `this`.
  obs::MetricsRegistry::Global().RegisterCallbackGauge("serve.queue_depth",
                                                       [] { return 0.0; });
}

util::Status MicroBatcher::Submit(std::vector<float> input, bool want_label,
                                  std::future<EmbedResult>* result,
                                  TraceContext* trace) {
  EDSR_CHECK(result != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  if (!running_) {
    return util::Status::Overloaded("batcher is shutting down");
  }
  if (static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
    EDSR_METRIC_COUNT("serve.overloaded", 1);
    return util::Status::Overloaded(
        "serve queue full (" + std::to_string(options_.max_queue) +
        " pending requests); retry with backoff");
  }
  Pending pending;
  pending.input = std::move(input);
  pending.want_label = want_label;
  pending.trace = trace;
  *result = pending.promise.get_future();
  queue_.push_back(std::move(pending));
  lock.unlock();
  cv_.notify_all();
  return util::Status::OK();
}

void MicroBatcher::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void MicroBatcher::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

int64_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

void MicroBatcher::Stop() {
  std::vector<Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && worker_.joinable() == false) return;
    running_ = false;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!queue_.empty()) {
      orphaned.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  for (Pending& pending : orphaned) {
    EmbedResult result;
    result.status = util::Status::Overloaded("server shut down before serving");
    pending.promise.set_value(std::move(result));
  }
}

void MicroBatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    if (queue_.empty() || paused_) {
      cv_.wait(lock, [this] {
        return !running_ || (!queue_.empty() && !paused_);
      });
      continue;
    }
    if (static_cast<int64_t>(queue_.size()) < options_.max_batch &&
        options_.max_delay_us > 0) {
      // Short batch: trade a bounded sliver of latency for a fuller GEMM.
      cv_.wait_for(lock, std::chrono::microseconds(options_.max_delay_us),
                   [this] {
                     return !running_ || paused_ ||
                            static_cast<int64_t>(queue_.size()) >=
                                options_.max_batch;
                   });
      if (!running_ || paused_) continue;
    }
    std::vector<Pending> batch;
    while (!queue_.empty() &&
           static_cast<int64_t>(batch.size()) < options_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

void MicroBatcher::ProcessBatch(std::vector<Pending> batch) {
  EDSR_TRACE_SPAN("serve_batch");
  // Stamp batch formation before any promise can be fulfilled: once
  // set_value runs the submitting thread may return and destroy its
  // TraceContext, so every trace write happens strictly before it.
  const int64_t t_batch_us = TraceNowUs();
  for (Pending& pending : batch) {
    if (pending.trace != nullptr) pending.trace->t_batch_us = t_batch_us;
  }
  // One snapshot per batch: every response in this batch comes from exactly
  // this model version, whatever Install() does concurrently.
  SnapshotHandle snapshot = registry_->Current();
  EDSR_METRIC_COUNT("serve.requests", static_cast<int64_t>(batch.size()));

  if (snapshot == nullptr) {
    for (Pending& pending : batch) {
      EmbedResult result;
      result.status = util::Status::Internal("no snapshot installed");
      pending.promise.set_value(std::move(result));
    }
    return;
  }

  const int64_t dim = snapshot->input_dim();
  std::vector<size_t> rows;  // indices into `batch` that pass validation
  rows.reserve(batch.size());
  std::vector<float> flat;
  flat.reserve(batch.size() * dim);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (static_cast<int64_t>(batch[i].input.size()) != dim) {
      EmbedResult result;
      result.status = util::Status::InvalidArgument(
          "input has " + std::to_string(batch[i].input.size()) +
          " dims, snapshot expects " + std::to_string(dim));
      result.snapshot_id = snapshot->id();
      batch[i].promise.set_value(std::move(result));
      continue;
    }
    flat.insert(flat.end(), batch[i].input.begin(), batch[i].input.end());
    rows.push_back(i);
  }
  if (rows.empty()) return;

  static thread_local obs::Histogram* batch_hist =
      obs::MetricsRegistry::Global().GetHistogram("serve.batch_size");
  batch_hist->Observe(static_cast<double>(rows.size()));

  tensor::NoGradGuard no_grad;
  const int64_t rep_dim = snapshot->representation_dim();
  const int64_t batch_n = static_cast<int64_t>(rows.size());
  tensor::Tensor reps = snapshot->encoder()->Forward(tensor::Tensor::FromVector(
      std::move(flat), {batch_n, dim}));
  EDSR_CHECK_EQ(reps.shape()[1], rep_dim);
  const std::vector<float>& rep_values = reps.data();

  const int64_t t_forward_us = TraceNowUs();
  for (size_t k = 0; k < rows.size(); ++k) {
    if (batch[rows[k]].trace != nullptr) {
      batch[rows[k]].trace->t_forward_us = t_forward_us;
    }
  }

  for (size_t k = 0; k < rows.size(); ++k) {
    Pending& pending = batch[rows[k]];
    EmbedResult result;
    result.snapshot_id = snapshot->id();
    result.representation.assign(
        rep_values.begin() + static_cast<int64_t>(k) * rep_dim,
        rep_values.begin() + static_cast<int64_t>(k + 1) * rep_dim);
    if (cache_ != nullptr) {
      cache_->Insert(snapshot->id(), pending.input, result.representation);
    }
    if (pending.want_label) {
      if (snapshot->knn() == nullptr) {
        result.status = util::Status::InvalidArgument(
            "snapshot " + std::to_string(snapshot->id()) +
            " has no labeled memory bank; KnnLabel unavailable");
      } else {
        result.label = snapshot->knn()->Predict(result.representation.data());
      }
    }
    pending.promise.set_value(std::move(result));
  }
}

}  // namespace edsr::serve
