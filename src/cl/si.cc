#include "src/cl/si.h"

#include "src/tensor/ops.h"

namespace edsr::cl {

using tensor::Tensor;

Si::Si(const StrategyContext& context) : ContinualStrategy(context, "si") {
  tracked_ = encoder_->Parameters();
}

void Si::SnapshotInto(Buffers* buffers) const {
  buffers->resize(tracked_.size());
  for (size_t k = 0; k < tracked_.size(); ++k) {
    (*buffers)[k] = tracked_[k].data();
  }
}

double Si::TotalImportance() const {
  double total = 0.0;
  for (const auto& buf : omega_) {
    for (float v : buf) total += v;
  }
  return total;
}

void Si::OnIncrementStart(const data::Task& task) {
  (void)task;
  if (!initialized_) {
    omega_.resize(tracked_.size());
    path_integral_.resize(tracked_.size());
    for (size_t k = 0; k < tracked_.size(); ++k) {
      omega_[k].assign(tracked_[k].numel(), 0.0f);
      path_integral_[k].assign(tracked_[k].numel(), 0.0f);
    }
    SnapshotInto(&anchor_);
    initialized_ = true;
  }
  SnapshotInto(&increment_start_);
  for (auto& w : path_integral_) std::fill(w.begin(), w.end(), 0.0f);
}

Tensor Si::ComputeBatchLoss(const data::Task& task,
                            const std::vector<int64_t>& indices,
                            const Tensor& view1, const Tensor& view2) {
  Tensor base = ContinualStrategy::ComputeBatchLoss(task, indices, view1, view2);
  if (increments_seen_ == 0) return base;
  // Quadratic consolidation penalty c * sum_k Omega_k (theta_k - theta*_k)^2.
  Tensor penalty = Tensor::Zeros({1});
  for (size_t k = 0; k < tracked_.size(); ++k) {
    Tensor omega = Tensor::FromVector(omega_[k], tracked_[k].shape());
    Tensor anchor = Tensor::FromVector(anchor_[k], tracked_[k].shape());
    penalty =
        penalty + tensor::SumAll(tensor::Square(tracked_[k] - anchor) * omega);
  }
  constexpr float kStrength = 1.0f;  // c
  return base + penalty * kStrength;
}

void Si::BeforeOptimizerStep() {
  SnapshotInto(&pre_step_values_);
  pre_step_grads_.resize(tracked_.size());
  for (size_t k = 0; k < tracked_.size(); ++k) {
    const auto& grad = tracked_[k].grad();
    if (grad.empty()) {
      pre_step_grads_[k].assign(tracked_[k].numel(), 0.0f);
    } else {
      pre_step_grads_[k] = grad;
    }
  }
}

void Si::AfterOptimizerStep() {
  for (size_t k = 0; k < tracked_.size(); ++k) {
    const auto& now = tracked_[k].data();
    const auto& before = pre_step_values_[k];
    const auto& grad = pre_step_grads_[k];
    auto& w = path_integral_[k];
    for (size_t j = 0; j < w.size(); ++j) {
      w[j] += -grad[j] * (now[j] - before[j]);
    }
  }
}

namespace {

void WriteBufferList(io::BufferWriter* out, const Si::BufferList& buffers) {
  out->WriteU64(buffers.size());
  for (const std::vector<float>& b : buffers) out->WriteFloats(b);
}

util::Status ReadBufferList(io::BufferReader* in,
                            const std::vector<tensor::Tensor>& tracked,
                            Si::BufferList* out) {
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  // Each list is either empty (never initialized) or one buffer per tracked
  // parameter with exactly that parameter's element count.
  if (count != 0 && count != tracked.size()) {
    return util::Status::InvalidArgument(
        "SI buffer list count mismatch: tracked " +
        std::to_string(tracked.size()) + ", payload has " +
        std::to_string(count));
  }
  Si::BufferList staged(count);
  for (uint64_t k = 0; k < count; ++k) {
    EDSR_RETURN_NOT_OK(in->ReadFloats(&staged[k]));
    if (!staged[k].empty() &&
        static_cast<int64_t>(staged[k].size()) != tracked[k].numel()) {
      return util::Status::InvalidArgument(
          "SI buffer size mismatch for parameter " + std::to_string(k));
    }
  }
  *out = std::move(staged);
  return util::Status::OK();
}

}  // namespace

void Si::SaveExtra(io::BufferWriter* out) const {
  out->WriteU8(initialized_ ? 1 : 0);
  WriteBufferList(out, omega_);
  WriteBufferList(out, path_integral_);
  WriteBufferList(out, anchor_);
  WriteBufferList(out, increment_start_);
}

util::Status Si::LoadExtra(io::BufferReader* in) {
  uint8_t initialized = 0;
  EDSR_RETURN_NOT_OK(in->ReadU8(&initialized));
  BufferList omega;
  BufferList path_integral;
  BufferList anchor;
  BufferList increment_start;
  EDSR_RETURN_NOT_OK(ReadBufferList(in, tracked_, &omega));
  EDSR_RETURN_NOT_OK(ReadBufferList(in, tracked_, &path_integral));
  EDSR_RETURN_NOT_OK(ReadBufferList(in, tracked_, &anchor));
  EDSR_RETURN_NOT_OK(ReadBufferList(in, tracked_, &increment_start));
  if (initialized != 0 && (omega.empty() || anchor.empty())) {
    return util::Status::IoError(
        "initialized SI checkpoint is missing importance buffers");
  }
  initialized_ = initialized != 0;
  omega_ = std::move(omega);
  path_integral_ = std::move(path_integral);
  anchor_ = std::move(anchor);
  increment_start_ = std::move(increment_start);
  return util::Status::OK();
}

void Si::OnIncrementEnd(const data::Task& task) {
  (void)task;
  constexpr float kDamping = 0.1f;  // ξ
  for (size_t k = 0; k < tracked_.size(); ++k) {
    const auto& now = tracked_[k].data();
    const auto& start = increment_start_[k];
    auto& omega = omega_[k];
    const auto& w = path_integral_[k];
    for (size_t j = 0; j < omega.size(); ++j) {
      float delta = now[j] - start[j];
      float contribution = w[j] / (delta * delta + kDamping);
      // Negative path integrals (loss increases) carry no importance.
      if (contribution > 0.0f) omega[j] += contribution;
    }
  }
  SnapshotInto(&anchor_);
}

}  // namespace edsr::cl
