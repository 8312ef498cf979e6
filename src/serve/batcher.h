// Micro-batching request queue: coalesces concurrent embedding requests
// into one batched forward.
//
// A batch-1 forward wastes the blocked GEMM (its register tile computes 4
// or 6 rows, and the per-call overhead is paid per row); the batcher
// recovers the batched regime under concurrent load with a classic
// max-batch / max-delay admission policy:
//
//   * Submit() enqueues and returns a future. When the bounded queue is
//     full it rejects with Status kOverloaded instead of growing or
//     blocking — backpressure is explicit and the caller decides whether
//     to retry.
//   * A single worker thread drains the queue: it takes whatever is
//     pending, and if the batch is still short of max_batch waits up to
//     max_delay_us for stragglers before forwarding. Under load batches
//     fill instantly and the delay never triggers; a lone request pays at
//     most max_delay_us extra latency.
//   * The worker resolves the current snapshot ONCE per batch, so every
//     request in a batch is answered by exactly one model version — the
//     invariant the hot-swap test asserts (old-or-new, never mixed).
//
// Telemetry: serve.requests counter, serve.batch_size histogram,
// serve.queue_depth callback gauge, serve.overloaded counter, and a
// serve_batch trace span per forward.
#ifndef EDSR_SRC_SERVE_BATCHER_H_
#define EDSR_SRC_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/serve/cache.h"
#include "src/serve/snapshot.h"
#include "src/serve/trace_context.h"
#include "src/util/status.h"

namespace edsr::serve {

// The answer to one embedding / knn-label request. `status` is the per-
// request verdict; the payload fields are valid only when it is OK.
struct EmbedResult {
  util::Status status;
  uint64_t snapshot_id = 0;
  std::vector<float> representation;
  int64_t label = -1;  // filled for KnnLabel requests only
};

struct BatcherOptions {
  int64_t max_batch = 32;      // rows coalesced into one forward
  int64_t max_queue = 256;     // pending requests beyond which Submit rejects
  int64_t max_delay_us = 200;  // straggler wait when a batch is short
};

class MicroBatcher {
 public:
  MicroBatcher(SnapshotRegistry* registry, RepresentationCache* cache,
               const BatcherOptions& options);
  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Enqueues one request. Returns OK and a future the worker completes, or
  // kOverloaded (future untouched) when the queue is at max_queue.
  //
  // `trace` (optional) is stamped by the worker: t_batch_us when the
  // request is pulled into a batch, t_forward_us when the batched forward
  // completes — always strictly before the promise is fulfilled, so the
  // caller may read the stamps as soon as future.get() returns and must
  // keep the context alive until then.
  util::Status Submit(std::vector<float> input, bool want_label,
                      std::future<EmbedResult>* result,
                      TraceContext* trace = nullptr);

  // Testing hooks: a paused worker leaves submissions queued, which is the
  // only deterministic way to drive the queue to overflow.
  void Pause();
  void Resume();

  int64_t queue_depth() const;
  const BatcherOptions& options() const { return options_; }

  // Stops the worker; queued requests complete with kOverloaded ("shutting
  // down"). Idempotent; the destructor calls it.
  void Stop();

 private:
  struct Pending {
    std::vector<float> input;
    bool want_label = false;
    TraceContext* trace = nullptr;  // owned by the submitting thread
    std::promise<EmbedResult> promise;
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending> batch);

  SnapshotRegistry* registry_;
  RepresentationCache* cache_;
  BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool running_ = true;
  bool paused_ = false;
  std::thread worker_;
};

}  // namespace edsr::serve

#endif  // EDSR_SRC_SERVE_BATCHER_H_
