// CycleEngine: one consolidation cycle, from "a micro-batch arrived" to "the
// cycle is closed, recorded and checkpointed".
//
// Both boundary-free front-ends drive it one micro-batch at a time: the
// stream driver feeds StreamSource batches (RunStream), the learn-serve
// daemon feeds ingest-journal chunks (src/daemon). The engine owns
// everything in between, once:
//
//   Feed   — builds the micro-batch task, opens the cycle on its first
//            batch (StreamBeginCycle), trains one step (StreamTrainBatch),
//            advances the trigger counters and asks the CycleTrigger whether
//            to close, probing buffer drift lazily;
//   Close  — consolidates the cycle window (StreamEndCycle: Eq. 15 selection
//            + Eq. 16 replay bookkeeping), takes buffer stats, runs the
//            ID/OOD probes when the caller gave them, appends to the cycle
//            history, sets the cycle.* gauges, writes one "cycle" JSONL
//            record and, when a path is set, the boundary checkpoint.
//
// Checkpoints are written only at cycle boundaries (the window is empty),
// as one EDSRBOX1 envelope:
//
//   cycle/meta     u32 version, then (name, value) identity pairs — mode,
//                  source, trigger, plus the caller's extras — each checked
//                  on load and named in the mismatch error;
//   cycle/gate     the trigger's internal state (the counters are a function
//                  of the history: cycle = its length, total = its last
//                  total_samples);
//   cycle/history  every closed cycle's deterministic fields, no wall-clock,
//                  so a straight and a killed+resumed run write the same
//                  bytes;
//   stream/source  the StreamSource state, when the caller passes one;
//   strategy/*     ContinualStrategy::SaveTo.
//
// Threading: one thread feeds, closes and checkpoints. history(),
// cycles_completed() and consumed() may be called from any thread.
#ifndef EDSR_SRC_STREAM_CYCLE_H_
#define EDSR_SRC_STREAM_CYCLE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/cl/memory.h"
#include "src/cl/strategy.h"
#include "src/cl/trainer.h"
#include "src/obs/run_record.h"
#include "src/stream/source.h"
#include "src/stream/trigger.h"

namespace edsr::stream {

struct StreamCycleResult {
  int64_t cycle = 0;
  std::string cause;           // "count" | "drift" | "max" | "end"
  int64_t samples = 0;         // window size of this cycle
  int64_t micro_batches = 0;
  int64_t total_samples = 0;   // cumulative at cycle close
  double loss = 0.0;           // mean micro-batch loss over the cycle
  double drift = -1.0;         // fire-time drift signal (-1 = never probed)
  int64_t buffer_size = 0;
  double buffer_entropy = 0.0; // Shannon entropy (nats) of buffer labels
  double id_accuracy = -1.0;   // -1 = no ID probe
  double ood_accuracy = -1.0;  // -1 = no OOD probe
  // Wall-clock (machine-dependent; never checkpointed, so 0 for cycles
  // restored from a checkpoint).
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
};

struct CycleEngineConfig {
  // Not owned; must outlive the engine.
  cl::ContinualStrategy* strategy = nullptr;
  CycleTrigger* trigger = nullptr;
  // The strategy's replay buffer: drift anchors and buffer stats (nullptr =
  // no drift signal, so drift triggers fall back to their `max` ceiling).
  const cl::MemoryBuffer* memory = nullptr;
  // Shape of every fed sample.
  int64_t dim = 0;
  int64_t num_classes = 0;
  data::ImageGeometry geometry;
  // Held-out probes evaluated after every close, only when set.
  const data::Task* id_probe = nullptr;
  const data::Task* ood_probe = nullptr;
  cl::EvalOptions eval;
  // Record fields and checkpoint identity: mode ("stream" | "daemon"), the
  // stream spec or daemon preset, the trigger spec, plus extra identity
  // pairs checked on load.
  std::string mode;
  std::string source;
  std::string trigger_spec;
  std::vector<std::pair<std::string, std::string>> identity;
  // Per-cycle "cycle" records (nullptr = none; see also AttachLogger).
  obs::RunLogger* logger = nullptr;
  // Boundary checkpoint written by every Close ("" = none), and the stream
  // source checkpointed alongside the strategy (nullptr = none).
  std::string checkpoint_path;
  StreamSource* stream_source = nullptr;
};

// Mean per-dimension squared drift of the buffer's entries between their
// stored_representation anchors and the current encoder (the MIR signal).
// Negative when there are no anchors (null or empty buffer).
double BufferDrift(cl::ContinualStrategy* strategy,
                   const cl::MemoryBuffer* memory);

// Shannon entropy (nats) of the buffer's label composition; 0 when empty.
double BufferCompositionEntropy(const cl::MemoryBuffer* memory);

class CycleEngine {
 public:
  // Aborts when the strategy's encoder has per-task input heads: a stream
  // has no fixed task count to size them by.
  explicit CycleEngine(CycleEngineConfig config);
  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  // Trains one micro-batch (at least 2 samples, labels observed) and returns
  // the trigger's fire cause, "" to keep feeding. The caller closes the
  // cycle with that cause, or with its own (the stream's "end").
  std::string Feed(std::vector<StreamSample> batch);

  // Closes the open cycle under `cause`. Fails only if the boundary
  // checkpoint cannot be written; the cycle is closed and recorded anyway.
  util::Status Close(const std::string& cause);

  util::Status SaveCheckpoint() const;
  // Restores a boundary checkpoint into the freshly configured engine and
  // its strategy/trigger/source. Clean Status on a missing, truncated,
  // corrupt, or mismatched file.
  util::Status LoadCheckpoint();

  // Sends records to `logger` from now on, first writing one per cycle
  // already in the history: a log rewritten after a restore then matches
  // the checkpoint line for line.
  void AttachLogger(obs::RunLogger* logger);

  // Samples fed so far, the open cycle included (feeding thread only).
  int64_t total_samples() const { return context_.total_samples; }

  std::vector<StreamCycleResult> history() const;
  int64_t cycles_completed() const;
  // Samples folded into closed cycles.
  int64_t consumed() const;

 private:
  data::Task TaskFromSamples(const std::vector<StreamSample>& samples,
                             const std::string& name) const;
  void EmitRecord(const StreamCycleResult& cycle) const;

  CycleEngineConfig config_;
  TriggerContext context_;
  // The open cycle.
  bool open_ = false;
  std::vector<StreamSample> window_;
  double loss_sum_ = 0.0;
  double drift_ = -1.0;
  double train_seconds_ = 0.0;

  // Written by the feeding thread under history_mu_.
  mutable std::mutex history_mu_;
  std::vector<StreamCycleResult> history_;
};

}  // namespace edsr::stream

#endif  // EDSR_SRC_STREAM_CYCLE_H_
