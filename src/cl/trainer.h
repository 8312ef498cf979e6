// ContinualTrainer: runs a strategy over a task sequence and fills the
// accuracy matrix using the paper's KNN protocol, plus the Multitask
// joint-training upper bound.
#ifndef EDSR_SRC_CL_TRAINER_H_
#define EDSR_SRC_CL_TRAINER_H_

#include "src/cl/strategy.h"
#include "src/eval/knn.h"
#include "src/eval/metrics.h"

namespace edsr::cl {

struct EvalOptions {
  int64_t knn_k = 10;
  float knn_temperature = 0.1f;
};

struct ContinualRunResult {
  eval::AccuracyMatrix matrix;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
};

// Increment-boundary checkpointing for continual runs. A continual run is
// the longest-lived process in this codebase; a crash in increment n would
// otherwise lose every learned increment, the frozen teacher, and the
// selected memory. With a non-empty directory, RunContinual atomically
// writes a full run snapshot (strategy state + accuracy-matrix rows +
// next-increment index) to <directory>/run.ckpt after every completed
// increment, and
// ResumeContinual restores it and continues — producing a bit-identical
// accuracy matrix to an uninterrupted run.
struct CheckpointOptions {
  std::string directory;  // empty = checkpointing disabled
  // Return (still checkpointed) after this increment completes; -1 runs to
  // the end. Lets a run be split across process lifetimes and lets tests
  // simulate a kill at an exact boundary.
  int64_t stop_after_increment = -1;
};

// KNN accuracy on one increment: bank = task.train representations,
// queries = task.test (the LUMP/CaSSLe per-task protocol).
double EvaluateTask(ssl::Encoder* encoder, const data::Task& task,
                    const EvalOptions& options);

// Learns every increment in order; after increment i, evaluates on
// increments 0..i to fill row i of the accuracy matrix.
ContinualRunResult RunContinual(ContinualStrategy* strategy,
                                const data::TaskSequence& sequence,
                                const EvalOptions& options);
// As above, with increment-boundary checkpointing.
ContinualRunResult RunContinual(ContinualStrategy* strategy,
                                const data::TaskSequence& sequence,
                                const EvalOptions& options,
                                const CheckpointOptions& checkpoint);

// Restores the snapshot in checkpoint.directory into `strategy` — which must
// be freshly constructed with the same context/seed and strategy kind — and
// continues the run to completion (still checkpointing). Returns a clean
// error Status on a missing, truncated, or corrupt checkpoint; the matrix in
// `result` is only valid when the returned Status is OK.
util::Status ResumeContinual(ContinualStrategy* strategy,
                             const data::TaskSequence& sequence,
                             const EvalOptions& options,
                             const CheckpointOptions& checkpoint,
                             ContinualRunResult* result);

// The snapshot primitives behind the two functions above, exposed for tests
// and external schedulers. SaveRunCheckpoint writes atomically (temp file +
// rename); LoadRunCheckpoint validates everything and never crashes on
// corrupt input. `next_increment` is the first increment still to learn.
util::Status SaveRunCheckpoint(const std::string& path,
                               ContinualStrategy* strategy,
                               const ContinualRunResult& result,
                               int64_t next_increment);
util::Status LoadRunCheckpoint(const std::string& path,
                               ContinualStrategy* strategy,
                               ContinualRunResult* result,
                               int64_t* next_increment);

// Multitask upper bound: joint training on all increments at once.
// Homogeneous sequences merge the data; heterogeneous (tabular) sequences
// train round-robin across increments with the per-increment input heads.
// Training runs in `checkpoints` chunks of context.epochs / checkpoints
// epochs each, evaluating after every chunk, and the best checkpoint's
// average per-task KNN accuracy is returned — the joint model is a
// trained-until-optimized reference (paper §II-B: "each dataset can be
// repeatedly learned until optimization"), not a continual learner.
double MultitaskAccuracy(const StrategyContext& context,
                         const data::TaskSequence& sequence,
                         const EvalOptions& options, int64_t checkpoints = 4);

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_TRAINER_H_
