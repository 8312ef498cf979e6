#include "src/cl/lump.h"

#include "src/tensor/ops.h"

namespace edsr::cl {

using tensor::Tensor;

Lump::Lump(const StrategyContext& context)
    : ContinualStrategy(context, "lump"),
      retrieval_(MakeRetrievalOrDie(context.retrieval_spec)),
      memory_(context.memory_per_task) {
  EDSR_CHECK(context.encoder.input_head_dims.empty())
      << "LUMP's mixup cannot span heterogeneous input dims (paper §IV-E)";
}

Tensor Lump::ComputeBatchLoss(const data::Task& task,
                              const std::vector<int64_t>& indices,
                              const Tensor& view1, const Tensor& view2) {
  if (memory_.empty()) {
    return ContinualStrategy::ComputeBatchLoss(task, indices, view1, view2);
  }
  // Draw through the retrieval policy, then tile the draw so every new
  // sample gets a mixup partner even when the buffer (or the policy's
  // ranking) yields fewer entries than the batch.
  std::vector<int64_t> base = DrawReplay(
      memory_, retrieval_.get(),
      std::min<int64_t>(static_cast<int64_t>(indices.size()), memory_.size()));
  std::vector<int64_t> replay(indices.size());
  for (size_t k = 0; k < replay.size(); ++k) {
    replay[k] = base[k % base.size()];
  }
  Tensor raw = memory_.GatherFeatures(replay);
  Tensor mem_view1 = ViewOfRaw(raw, task.train.geometry());
  Tensor mem_view2 = ViewOfRaw(raw, task.train.geometry());
  constexpr float kMixupAlpha = 0.4f;  // the Beta concentration α
  float omega = rng_.Beta(kMixupAlpha, kMixupAlpha);
  Tensor mixed1 = view1 * omega + mem_view1 * (1.0f - omega);
  Tensor mixed2 = view2 * omega + mem_view2 * (1.0f - omega);
  return loss_->Loss(encoder_->Forward(mixed1), encoder_->Forward(mixed2));
}

void Lump::OnIncrementEnd(const data::Task& task) {
  int64_t budget =
      std::min<int64_t>(memory_.per_task_budget(), task.train.size());
  if (budget <= 0) return;
  std::vector<int64_t> picks =
      rng_.SampleWithoutReplacement(task.train.size(), budget);
  // Write-time representations anchor drift-based retrieval policies.
  eval::RepresentationMatrix reps =
      eval::ExtractRepresentationsFor(encoder_.get(), task.train, picks);
  std::vector<MemoryEntry> entries(picks.size());
  for (size_t k = 0; k < picks.size(); ++k) {
    MemoryEntry& e = entries[k];
    const float* row = task.train.Row(picks[k]);
    e.features.assign(row, row + task.train.dim());
    e.task_id = task.task_id;
    e.source_index = picks[k];
    e.label = task.train.Label(picks[k]);
    const float* rep = reps.Row(static_cast<int64_t>(k));
    e.stored_representation.assign(rep, rep + reps.d);
  }
  memory_.AddIncrement(std::move(entries));
}

}  // namespace edsr::cl
