// ContinualStrategy: the template-method base for every UCL method.
//
// LearnIncrement drives the shared per-increment loop, one cycle:
//   Begin (input head, view provider, train mode, OnIncrementStart,
//   optimizer) -> [epochs x batches: two augmented views ->
//   ComputeBatchLoss -> backward -> step (with Before/AfterOptimizerStep
//   hooks)] -> End (OnIncrementEnd, ++increments_seen).
// Subclasses override the hooks:
//   Finetune  — default loss only;
//   SI        — adds a synaptic-importance penalty + path-integral tracking;
//   DER       — stores random data + backbone outputs, replays with MSE;
//   LUMP      — stores random data, mixes it into the new batch (mixup);
//   CaSSLe    — snapshots a frozen teacher + distillation projector;
//   EDSR      — CaSSLe + entropy-based selection + noise-enhanced replay
//               (src/core/edsr.h).
// DER, LUMP and the EDSR family keep their replay buffer and its retrieval
// policy in this base (keeps_memory, fixed per class); memory() reads it.
#ifndef EDSR_SRC_CL_STRATEGY_H_
#define EDSR_SRC_CL_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/augment/view_provider.h"
#include "src/cl/memory.h"
#include "src/cl/retrieval.h"
#include "src/cl/strategy_context.h"
#include "src/data/task_sequence.h"
#include "src/eval/representations.h"
#include "src/io/container.h"
#include "src/obs/run_record.h"
#include "src/optim/optimizer.h"

namespace edsr::cl {

class ContinualStrategy {
 public:
  // `keeps_memory`: the strategy owns a replay buffer of
  // context.memory_per_task entries per increment and draws from it through
  // the context's retrieval policy (an invalid spec aborts here).
  ContinualStrategy(const StrategyContext& context, std::string name,
                    bool keeps_memory = false);
  virtual ~ContinualStrategy() = default;
  ContinualStrategy(const ContinualStrategy&) = delete;
  ContinualStrategy& operator=(const ContinualStrategy&) = delete;

  // Trains on one data increment (the template method).
  void LearnIncrement(const data::Task& task);

  // ---- Task-free streaming (src/stream) ----------------------------------
  // The boundary-free analogue of LearnIncrement, split into three calls so
  // stream::CycleEngine can interleave micro-batch training with trigger
  // checks. One cycle runs LearnIncrement's Begin, batch steps and End, so
  // CaSSLe/EDSR teacher snapshots and selection behave per cycle exactly as
  // they do per increment. CycleEngine admits only homogeneous encoders (no
  // per-task input heads — there is no fixed task count to size heads by).
  //
  // StreamBeginCycle: the shared Begin. `task` is the cycle's first
  // micro-batch (supplies the modality; task_id = cycle).
  void StreamBeginCycle(const data::Task& task);
  // One optimizer step over all rows of task.train; returns the batch loss.
  double StreamTrainBatch(const data::Task& task);
  // Consolidation over the cycle's full accumulated window (selection etc.).
  void StreamEndCycle(const data::Task& task);

  ssl::Encoder* encoder() { return encoder_.get(); }
  ssl::CsslLoss* loss() { return loss_.get(); }
  optim::Optimizer* optimizer() { return optimizer_.get(); }
  const std::string& name() const { return name_; }
  const StrategyContext& context() const { return context_; }
  int64_t increments_seen() const { return increments_seen_; }
  util::Rng* rng() { return &rng_; }
  // The replay buffer; empty for a strategy that keeps none.
  const MemoryBuffer& memory() const { return memory_; }

  // ---- Telemetry ---------------------------------------------------------
  // Attaches a run-record sink (not owned; nullptr detaches). While attached,
  // LearnIncrement emits one "epoch" JSONL record per epoch with the averaged
  // loss components the hooks report via RecordLossComponent, and per-
  // increment scalars accumulate for the trainer's "increment" record.
  void SetRunLogger(obs::RunLogger* logger) { run_logger_ = logger; }
  obs::RunLogger* run_logger() { return run_logger_; }
  // Per-increment scalars recorded by hooks since the last call (selection
  // entropy, noise scales, ...), in recording order; clears the buffer.
  std::vector<std::pair<std::string, double>> TakeIncrementStats();

  // ---- Selection / retrieval signals -------------------------------------
  // Per-sample variance of augmented-view representations over four draws
  // (MinVar's signal). Graph-free, eval mode; must be called with this
  // increment's view provider active (inside LearnIncrement or right after
  // it, e.g. from OnIncrementEnd or a demo).
  std::vector<double> AugmentationVariance(const data::Task& task);
  // Per-sample loss-gradient embeddings ∂L/∂z1_i: two augmented views per
  // chunk through the live loss, one backward, then the gradient rows of z1
  // (the gradient-affinity selector's signal). Clears the trained
  // parameters' gradients afterwards so the next optimizer step is clean.
  eval::RepresentationMatrix GradientFeatures(const data::Task& task);
  // Current-model representations of every buffer entry (row k = entry k):
  // un-augmented, eval mode, graph-free; heterogeneous buffers run each
  // task's entries through its input head. The caller owns restoring the
  // active head afterwards (DrawReplay does).
  eval::RepresentationMatrix MemoryRepresentations(const MemoryBuffer& memory);

  // ---- Checkpointing -----------------------------------------------------
  // Writes the strategy's complete learned state — encoder, loss module,
  // optimizer moments, rng engine, increment counter, the replay buffer
  // ("strategy/memory", exactly MemoryBuffer::Serialize), subclass extras
  // (SaveExtra) and then the retrieval policy's named state (both in
  // "strategy/extra") — as "strategy/..." sections of a run checkpoint.
  // Restoring the sections into a freshly constructed strategy with the same
  // context reproduces the bit-identical training continuation. LoadFrom
  // requires "strategy/memory" when the strategy keeps a buffer, and rejects
  // a buffer whose rows would not replay through this encoder
  // (MemoryBuffer::CheckFits).
  util::Status SaveTo(io::ContainerWriter* writer);
  util::Status LoadFrom(const io::ContainerReader& reader);

 protected:
  // ---- Hooks -----------------------------------------------------------
  virtual void OnIncrementStart(const data::Task& task) { (void)task; }
  // The per-batch training loss. `view1`/`view2` are two augmented views of
  // the rows `indices` of task.train. Default: L_css on the two views.
  virtual tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                          const std::vector<int64_t>& indices,
                                          const tensor::Tensor& view1,
                                          const tensor::Tensor& view2);
  virtual void OnIncrementEnd(const data::Task& task) { (void)task; }
  virtual void BeforeOptimizerStep() {}
  virtual void AfterOptimizerStep() {}
  // Additional trainable parameters beyond encoder + loss (e.g. p_dis).
  virtual std::vector<tensor::Tensor> ExtraParameters() { return {}; }
  // Strategy-owned state beyond the base fields, the replay buffer and its
  // retrieval policy: frozen teachers, selector state, importance
  // accumulators. SaveExtra appends to the payload; LoadExtra must consume
  // exactly what SaveExtra wrote, validating sizes, and must not draw from
  // the strategy rng (restored separately).
  virtual void SaveExtra(io::BufferWriter* out) const { (void)out; }
  virtual util::Status LoadExtra(io::BufferReader* in) {
    (void)in;
    return util::Status::OK();
  }

  // True while a run logger is attached. Hooks gate their telemetry reads on
  // this so an unlogged run pays nothing (no extra .item() graph reads).
  bool collecting_telemetry() const { return run_logger_ != nullptr; }
  // Accumulates one batch's value of a named loss component ("L_css",
  // "L_dis", "L_rpl"); LearnIncrement averages per epoch into the record.
  void RecordLossComponent(const char* key, double value);
  // Records (or overwrites) a per-increment scalar for the next increment
  // record, e.g. the selection entropy Tr(Cov(f(M))).
  void RecordIncrementStat(const char* key, double value);

  // Draws a replay batch from memory() through the retrieval policy
  // (DrawRetrieval contract: min(k, size) unique entry indices). Computes
  // current buffer representations only when the policy asks; `restore_head`
  // reselects that input head afterwards (-1 skips; pass the increment's
  // task id when the encoder has heads). Only a strategy that keeps memory
  // may draw.
  std::vector<int64_t> DrawReplay(int64_t k, int64_t restore_head = -1);

  // Encoder + loss + ExtraParameters, in optimizer order.
  std::vector<tensor::Tensor> TrainedParameters();
  // (Re)creates the optimizer over `params` per the context's regime.
  void BuildOptimizer(const std::vector<tensor::Tensor>& params);

  // Augmented view of arbitrary dataset rows using this increment's
  // view provider.
  tensor::Tensor View(const data::Dataset& dataset,
                      const std::vector<int64_t>& indices);
  // Augmented view of a raw (k, dim) feature tensor sharing the increment's
  // modality (used for memory replay where rows live outside a Dataset).
  tensor::Tensor ViewOfRaw(const tensor::Tensor& raw,
                           const data::ImageGeometry& geometry);

  StrategyContext context_;
  std::unique_ptr<ssl::Encoder> encoder_;
  std::unique_ptr<ssl::CsslLoss> loss_;
  std::unique_ptr<augment::ViewProvider> views_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  util::Rng rng_;
  int64_t increments_seen_ = 0;
  // Behind memory(); a strategy that keeps memory adds each increment's
  // entries in OnIncrementEnd.
  MemoryBuffer memory_;

 private:
  struct ComponentSum {
    std::string key;
    double sum = 0.0;
    int64_t count = 0;
  };

  // Opens a cycle: selects the input head (when the encoder has heads),
  // installs the view provider, enters train mode, runs OnIncrementStart and
  // builds the optimizer over TrainedParameters().
  void BeginCycle(const data::Task& task);
  // Closes it: OnIncrementEnd, then ++increments_seen_.
  void EndCycle(const data::Task& task);
  // The shared per-batch training step (views -> loss -> backward -> clip ->
  // step, with the Before/After hooks); returns the batch loss value.
  double TrainOnBatch(const data::Task& task,
                      const std::vector<int64_t>& batch);

  std::string name_;
  // DrawReplay's policy; null when the strategy keeps no memory.
  std::unique_ptr<RetrievalPolicy> retrieval_;
  // Parameter list of the open cycle (gradient clipping), from BeginCycle
  // to EndCycle; empty between cycles.
  std::vector<tensor::Tensor> cycle_params_;
  obs::RunLogger* run_logger_ = nullptr;
  std::vector<ComponentSum> epoch_components_;
  std::vector<std::pair<std::string, double>> increment_stats_;
};

// The vanilla baseline: L_css only, no forgetting prevention.
class Finetune : public ContinualStrategy {
 public:
  explicit Finetune(const StrategyContext& context)
      : ContinualStrategy(context, "finetune") {}
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_STRATEGY_H_
