// StreamDriver: the boundary-free training loop.
//
// RunStream replaces the fixed TaskSequence increment loop: it pulls
// micro-batches from a StreamSource and feeds them into a CycleEngine
// (src/stream/cycle.h), which trains one optimizer step per micro-batch and
// asks the CycleTrigger after every batch whether to close the open cycle.
// Closing runs the strategy's consolidation over the cycle's window, probes
// ID accuracy on the stream preset's clean held-out split (and optionally an
// OOD preset's), and emits one "cycle" JSONL record with mode "stream".
//
// Checkpointing happens at cycle boundaries, in the engine's envelope plus
// the source state (rng + emission counter + transform bursts).
// ResumeStream restores all of it and continues bit-identically
// (resume_test idiom: `stop_after_cycle` simulates the kill).
#ifndef EDSR_SRC_STREAM_DRIVER_H_
#define EDSR_SRC_STREAM_DRIVER_H_

#include <string>
#include <vector>

#include "src/cl/memory.h"
#include "src/cl/strategy.h"
#include "src/cl/trainer.h"
#include "src/obs/run_record.h"
#include "src/stream/cycle.h"
#include "src/stream/source.h"
#include "src/stream/trigger.h"

namespace edsr::stream {

struct StreamRunOptions {
  // Samples per micro-batch (one optimizer step each); must be >= 2.
  int64_t micro_batch = 16;
  // Total stream length in samples; the driver stops once consumed. A
  // trailing fragment smaller than 2 samples is never drawn.
  int64_t total_samples = 512;
  cl::EvalOptions eval;
  // Clean held-out split of the stream's preset (required): the ID probe.
  const data::Task* id_probe = nullptr;
  // A disjoint preset's held-out split (optional): the OOD probe.
  const data::Task* ood_probe = nullptr;
  // The strategy's replay buffer, for drift anchors and composition entropy
  // (optional; EDSR passes &edsr->memory(). nullptr = no drift signal, so
  // drift triggers fall back to their `max` ceiling).
  const cl::MemoryBuffer* memory = nullptr;
  // Per-cycle "cycle" records (not owned; nullptr = no telemetry). The
  // driver owns record emission — do not also attach the logger to the
  // strategy, or epoch records from the increment path would interleave.
  obs::RunLogger* logger = nullptr;
  // Spec strings recorded in telemetry and validated on resume.
  std::string stream_spec;
  std::string trigger_spec;
  // Cycle-boundary checkpointing to <checkpoint_directory>/stream.ckpt;
  // empty directory disables it.
  std::string checkpoint_directory;
  // Return (still checkpointed) after this many completed cycles; -1 runs
  // the stream to the end. Lets tests simulate a mid-stream kill.
  int64_t stop_after_cycle = -1;
};

struct StreamRunResult {
  std::vector<StreamCycleResult> cycles;
  int64_t total_samples = 0;
  // False when stop_after_cycle ended the process early.
  bool finished = false;
};

// Drives the whole stream. Fails fast (InvalidArgument) on bad options
// (micro_batch < 2, missing id_probe).
util::Result<StreamRunResult> RunStream(cl::ContinualStrategy* strategy,
                                        StreamSource* source,
                                        CycleTrigger* trigger,
                                        const StreamRunOptions& options);

// Restores the snapshot in options.checkpoint_directory into the freshly
// constructed strategy/source/trigger (same context, same specs) and
// continues to the end of the stream. Clean Status on missing, truncated,
// corrupt, or mismatched checkpoints.
util::Status ResumeStream(cl::ContinualStrategy* strategy,
                          StreamSource* source, CycleTrigger* trigger,
                          const StreamRunOptions& options,
                          StreamRunResult* result);

}  // namespace edsr::stream

#endif  // EDSR_SRC_STREAM_DRIVER_H_
