#include "src/core/edsr.h"

#include <algorithm>

#include "src/core/noise.h"
#include "src/eval/representations.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace edsr::core {

using cl::MemoryEntry;
using tensor::Tensor;

namespace {

std::unique_ptr<cl::DataSelector> MakeSelector(const std::string& spec) {
  if (spec.empty()) {
    // PCA leverage over the top 8 components.
    return std::make_unique<cl::HighEntropySelector>();
  }
  util::Result<std::unique_ptr<cl::DataSelector>> selector =
      cl::SelectorRegistry::Global().Create(spec);
  return std::move(selector).ValueOrDie();
}

}  // namespace

Edsr::Edsr(const cl::StrategyContext& context, const EdsrOptions& options)
    : Edsr(context, options, MakeSelector(context.selector_spec), "edsr") {}

Edsr::Edsr(const cl::StrategyContext& context, const EdsrOptions& options,
           std::unique_ptr<cl::DataSelector> selector, std::string name)
    : cl::Cassle(context, std::move(name), /*keeps_memory=*/true),
      options_(options),
      selector_(std::move(selector)) {
  EDSR_CHECK(selector_ != nullptr);
}

Tensor Edsr::ComputeBatchLoss(const data::Task& task,
                              const std::vector<int64_t>& indices,
                              const Tensor& view1, const Tensor& view2) {
  Tensor total = Cassle::ComputeBatchLoss(task, indices, view1, view2);
  Tensor replay;
  {
    EDSR_TRACE_SPAN("replay");
    replay = ReplayLoss(task);
  }
  if (replay.defined()) {
    // The weighted ½ L_rpl contribution (§III-C), so the recorded components
    // sum to the training loss.
    constexpr float kReplayWeight = 0.5f;
    if (collecting_telemetry()) {
      RecordLossComponent("L_rpl", replay.item() * kReplayWeight);
    }
    total = total + replay * kReplayWeight;
  }
  return total;
}

Tensor Edsr::ReplayLoss(const data::Task& task) {
  if (memory_.empty() || options_.replay_mode == ReplayLossMode::kNone) {
    return Tensor();
  }
  // The retrieval policy decides *which* stored samples replay this batch.
  std::vector<int64_t> replay =
      DrawReplay(context_.replay_batch_size,
                 encoder_->has_input_heads() ? task.task_id : -1);
  Tensor total;
  int64_t total_count = 0;
  if (encoder_->has_input_heads()) {
    // Heterogeneous inputs: replay each source increment through its head.
    for (const std::vector<int64_t>& group : memory_.GroupByTask(replay)) {
      if (group.empty()) continue;
      Tensor part = GroupReplayLoss(task, group) *
                    static_cast<float>(group.size());
      total = total.defined() ? total + part : part;
      total_count += static_cast<int64_t>(group.size());
    }
    encoder_->SetActiveHead(task.task_id);  // restore the increment's head
  } else {
    total = GroupReplayLoss(task, replay) * static_cast<float>(replay.size());
    total_count = static_cast<int64_t>(replay.size());
  }
  if (!total.defined() || total_count == 0) return Tensor();
  return total * (1.0f / static_cast<float>(total_count));
}

Tensor Edsr::GroupReplayLoss(const data::Task& task,
                             const std::vector<int64_t>& entry_indices) {
  int64_t group_head = memory_.entry(entry_indices.front()).task_id;
  if (encoder_->has_input_heads()) encoder_->SetActiveHead(group_head);

  Tensor raw = memory_.GatherFeatures(entry_indices);
  data::ImageGeometry geometry =
      task.train.is_image() ? task.train.geometry() : data::ImageGeometry{};
  Tensor view1 = ViewOfRaw(raw, geometry);
  Tensor z1 = encoder_->Forward(view1);

  switch (options_.replay_mode) {
    case ReplayLossMode::kCss: {
      // Naive contrastive replay — the over-fitting variant of Table IV.
      Tensor view2 = ViewOfRaw(raw, geometry);
      return loss_->Loss(z1, encoder_->Forward(view2));
    }
    case ReplayLossMode::kDis: {
      EDSR_CHECK(has_teacher()) << "distillation replay requires a teacher";
      return DistillLoss(z1, TeacherForward(view1, group_head));
    }
    case ReplayLossMode::kRpl: {
      EDSR_CHECK(has_teacher()) << "distillation replay requires a teacher";
      Tensor target = TeacherForward(view1, group_head);
      // z̃ + r(x^m) ⊙ σ, σ ~ N(0, I) drawn fresh every replay (Eq. 16).
      std::vector<float> noisy = target.data();
      int64_t d = target.shape()[1];
      for (size_t k = 0; k < entry_indices.size(); ++k) {
        const MemoryEntry& entry = memory_.entry(entry_indices[k]);
        if (entry.noise_scale.empty()) continue;
        EDSR_CHECK_EQ(static_cast<int64_t>(entry.noise_scale.size()), d);
        for (int64_t j = 0; j < d; ++j) {
          noisy[k * d + j] += entry.noise_scale[j] * rng_.Normal();
        }
      }
      Tensor noisy_target =
          Tensor::FromVector(std::move(noisy), target.shape());
      return DistillLoss(z1, noisy_target);
    }
    case ReplayLossMode::kNone:
      break;
  }
  EDSR_CHECK(false) << "unreachable replay mode";
  return Tensor();
}

void Edsr::SaveExtra(io::BufferWriter* out) const {
  cl::Cassle::SaveExtra(out);
  // Name-tagged so a checkpoint written under one selector can never
  // silently feed another.
  io::SaveNamedState(*selector_, out);
}

util::Status Edsr::LoadExtra(io::BufferReader* in) {
  EDSR_RETURN_NOT_OK(cl::Cassle::LoadExtra(in));
  return io::LoadNamedState(selector_.get(), in);
}

void Edsr::OnIncrementEnd(const data::Task& task) {
  EDSR_TRACE_SPAN("selection");
  int64_t budget =
      std::min<int64_t>(memory_.per_task_budget(), task.train.size());
  if (budget <= 0) return;
  // Selecting stage (§III-C2): representations of the *un-augmented*
  // increment under the freshly trained model f̂.
  int64_t head = encoder_->has_input_heads() ? task.task_id : -1;
  eval::RepresentationMatrix reps =
      eval::ExtractRepresentations(encoder_.get(), task.train, 64, head);
  cl::SelectionContext selection;
  selection.representations = &reps;
  if (selector_->needs_augmentation_variance()) {
    selection.augmentation_variance = AugmentationVariance(task);
  }
  eval::RepresentationMatrix gradients;
  if (selector_->needs_gradient_features()) {
    gradients = GradientFeatures(task);
    selection.gradient_features = &gradients;
  }
  std::vector<int64_t> picks =
      cl::RunSelection(selector_.get(), selection, budget, &rng_);

  std::vector<MemoryEntry> entries;
  entries.reserve(picks.size());
  for (int64_t pick : picks) {
    MemoryEntry entry = cl::MakeMemoryEntry(task, pick, reps, pick);
    if (options_.replay_mode == ReplayLossMode::kRpl &&
        options_.noise_neighbors > 0) {
      entry.noise_scale = KnnNoiseScale(reps, pick, options_.noise_neighbors);
    }
    entries.push_back(std::move(entry));
  }
  if (collecting_telemetry()) {
    // The selection objective actually achieved: Tr(Cov(f̂(M^n))) with the
    // paper's uncentered convention, i.e. the summed squared representation
    // norms of the kept samples (Eq. 15).
    double trace = 0.0;
    for (int64_t pick : picks) {
      const float* row = reps.Row(pick);
      for (int64_t j = 0; j < reps.d; ++j) {
        trace += static_cast<double>(row[j]) * static_cast<double>(row[j]);
      }
    }
    RecordIncrementStat("selection_trace_cov", trace);
    double noise_sum = 0.0;
    int64_t noise_dims = 0;
    for (const MemoryEntry& entry : entries) {
      for (float scale : entry.noise_scale) {
        noise_sum += scale;
        noise_dims += 1;
      }
    }
    RecordIncrementStat("noise_scale_mean",
                        noise_dims > 0 ? noise_sum / noise_dims : 0.0);
    RecordIncrementStat("selected", static_cast<double>(picks.size()));
  }
  memory_.AddIncrement(std::move(entries));
  if (collecting_telemetry()) {
    RecordIncrementStat("memory_size", static_cast<double>(memory_.size()));
  }
}

}  // namespace edsr::core
