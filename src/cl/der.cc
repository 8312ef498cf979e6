#include "src/cl/der.h"

#include "src/eval/representations.h"
#include "src/tensor/ops.h"

namespace edsr::cl {

using tensor::Tensor;

Der::Der(const StrategyContext& context)
    : ContinualStrategy(context, "der", /*keeps_memory=*/true) {
  EDSR_CHECK(context.encoder.input_head_dims.empty())
      << "DER replay assumes homogeneous input dims";
}

Tensor Der::ComputeBatchLoss(const data::Task& task,
                             const std::vector<int64_t>& indices,
                             const Tensor& view1, const Tensor& view2) {
  Tensor base = ContinualStrategy::ComputeBatchLoss(task, indices, view1, view2);
  if (memory_.empty()) return base;
  std::vector<int64_t> replay = DrawReplay(context_.replay_batch_size);
  Tensor raw = memory_.GatherFeatures(replay);
  // As in DER(++), the buffer sample is re-augmented at replay time while
  // the stored output stays fixed.
  Tensor augmented = ViewOfRaw(raw, task.train.geometry());
  Tensor current = encoder_->ForwardBackbone(augmented);
  // Stored outputs as a constant target.
  int64_t d = current.shape()[1];
  std::vector<float> target(replay.size() * d);
  for (size_t k = 0; k < replay.size(); ++k) {
    const MemoryEntry& entry = memory_.entry(replay[k]);
    EDSR_CHECK_EQ(static_cast<int64_t>(entry.stored_output.size()), d);
    std::copy(entry.stored_output.begin(), entry.stored_output.end(),
              target.data() + k * d);
  }
  Tensor target_tensor = Tensor::FromVector(
      std::move(target), {static_cast<int64_t>(replay.size()), d});
  Tensor replay_loss = tensor::MeanAll(tensor::Square(current - target_tensor));
  constexpr float kReplayWeight = 0.05f;  // DER's alpha
  return base + replay_loss * kReplayWeight;
}

void Der::OnIncrementEnd(const data::Task& task) {
  int64_t budget = std::min<int64_t>(memory_.per_task_budget(),
                                     task.train.size());
  if (budget <= 0) return;
  std::vector<int64_t> picks =
      rng_.SampleWithoutReplacement(task.train.size(), budget);
  // Backbone outputs under the trained model, un-augmented, eval mode.
  // Stored targets are constants; no graph needed.
  tensor::NoGradGuard no_grad;
  bool was_training = encoder_->training();
  encoder_->SetTraining(false);
  Tensor outputs = encoder_->ForwardBackbone(task.train.Gather(picks));
  encoder_->SetTraining(was_training);
  int64_t d = outputs.shape()[1];
  // Write-time representations anchor drift-based retrieval policies.
  eval::RepresentationMatrix reps =
      eval::ExtractRepresentationsFor(encoder_.get(), task.train, picks);

  std::vector<MemoryEntry> entries(picks.size());
  for (size_t k = 0; k < picks.size(); ++k) {
    entries[k] = MakeMemoryEntry(task, picks[k], reps, static_cast<int64_t>(k));
    entries[k].stored_output.assign(outputs.data().begin() + k * d,
                                    outputs.data().begin() + (k + 1) * d);
  }
  memory_.AddIncrement(std::move(entries));
}

}  // namespace edsr::cl
