#include "src/cl/cassle.h"

#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace edsr::cl {

using tensor::Tensor;

Cassle::Cassle(const StrategyContext& context, std::string name)
    : ContinualStrategy(context, std::move(name)) {}

void Cassle::OnIncrementStart(const data::Task& task) {
  (void)task;
  if (increments_seen_ == 0) return;  // nothing to distill from yet
  EDSR_TRACE_SPAN("teacher_snapshot");
  if (teacher_ == nullptr) {
    util::Rng teacher_rng = rng_.Fork();
    teacher_ = ssl::Encoder::Make(context_.encoder, &teacher_rng);
  }
  teacher_->CopyStateFrom(*encoder_);
  teacher_->SetRequiresGrad(false);
  teacher_->SetTraining(false);
  if (distill_projector_ == nullptr) {
    int64_t d = context_.encoder.representation_dim;
    util::Rng projector_rng = rng_.Fork();
    distill_projector_ = std::make_unique<nn::Mlp>(
        std::vector<int64_t>{d, d, d}, &projector_rng);
  }
  teacher_active_ = true;
}

Tensor Cassle::TeacherForward(const Tensor& view, int64_t head) {
  EDSR_CHECK(teacher_active_) << "TeacherForward without a teacher";
  // Frozen teacher: targets are constants, so skip graph construction.
  tensor::NoGradGuard no_grad;
  if (teacher_->has_input_heads() && head >= 0) teacher_->SetActiveHead(head);
  return teacher_->Forward(view).Detach();
}

Tensor Cassle::DistillLoss(const Tensor& student_z, const Tensor& target) {
  EDSR_CHECK(distill_projector_ != nullptr);
  return loss_->Align(distill_projector_->Forward(student_z), target);
}

Tensor Cassle::ComputeBatchLoss(const data::Task& task,
                                const std::vector<int64_t>& indices,
                                const Tensor& view1, const Tensor& view2) {
  (void)indices;
  Tensor z1 = encoder_->Forward(view1);
  Tensor z2 = encoder_->Forward(view2);
  Tensor total = loss_->Loss(z1, z2);
  if (collecting_telemetry()) RecordLossComponent("L_css", total.item());
  if (teacher_active_) {
    Tensor t1 = TeacherForward(view1, task.task_id);
    Tensor t2 = TeacherForward(view2, task.task_id);
    // The ½(L_dis(x1) + L_dis(x2)) term of §III-C.
    constexpr float kDistillWeight = 0.5f;
    Tensor distill = (DistillLoss(z1, t1) + DistillLoss(z2, t2)) *
                     kDistillWeight;
    if (collecting_telemetry()) RecordLossComponent("L_dis", distill.item());
    total = total + distill;
  }
  return total;
}

std::vector<Tensor> Cassle::ExtraParameters() {
  if (distill_projector_ == nullptr) return {};
  return distill_projector_->Parameters();
}

void Cassle::SaveExtra(io::BufferWriter* out) const {
  out->WriteU8(teacher_ != nullptr ? 1 : 0);
  out->WriteU8(teacher_active_ ? 1 : 0);
  if (teacher_ != nullptr) teacher_->SerializeState(out);
  out->WriteU8(distill_projector_ != nullptr ? 1 : 0);
  if (distill_projector_ != nullptr) distill_projector_->SerializeState(out);
}

util::Status Cassle::LoadExtra(io::BufferReader* in) {
  uint8_t has_teacher = 0;
  uint8_t active = 0;
  EDSR_RETURN_NOT_OK(in->ReadU8(&has_teacher));
  EDSR_RETURN_NOT_OK(in->ReadU8(&active));
  if (active != 0 && has_teacher == 0) {
    return util::Status::IoError("checkpoint marks a teacher active but "
                                 "stores none");
  }
  if (has_teacher != 0) {
    // Scratch rng: the fresh weights are immediately overwritten by the
    // checkpointed state, and the strategy rng must not be perturbed —
    // the uninterrupted run did not draw from it here.
    util::Rng scratch(0);
    teacher_ = ssl::Encoder::Make(context_.encoder, &scratch);
    EDSR_RETURN_NOT_OK(teacher_->DeserializeState(in));
    teacher_->SetRequiresGrad(false);
    teacher_->SetTraining(false);
  } else {
    teacher_.reset();
  }
  teacher_active_ = active != 0;
  uint8_t has_projector = 0;
  EDSR_RETURN_NOT_OK(in->ReadU8(&has_projector));
  if (has_projector != 0) {
    int64_t d = context_.encoder.representation_dim;
    util::Rng scratch(0);
    distill_projector_ =
        std::make_unique<nn::Mlp>(std::vector<int64_t>{d, d, d}, &scratch);
    EDSR_RETURN_NOT_OK(distill_projector_->DeserializeState(in));
  } else {
    distill_projector_.reset();
  }
  return util::Status::OK();
}

}  // namespace edsr::cl
