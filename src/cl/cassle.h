// CaSSLe (Fini et al., CVPR'22): memory-free UCL via knowledge distillation.
//
// At each increment boundary the current model is snapshotted as a frozen
// teacher f̃, and a distillation projector p_dis (2-layer MLP) maps the
// student's representation into the teacher's space (paper Eq. 9):
//   L_dis(z, z̃) = L_css(p_dis(z), z̃)
// applied to both augmented views of the new data, alongside L_css.
//
// CaSSLe re-creates p_dis at every boundary. At this repo's single-core scale
// an increment has too few optimizer steps for a fresh projector to
// converge, so p_dis is created at the first boundary and persists (keeping
// its alignment ability) across increments.
//
// EDSR (src/core/edsr.h) derives from this class and adds the memory path.
#ifndef EDSR_SRC_CL_CASSLE_H_
#define EDSR_SRC_CL_CASSLE_H_

#include <memory>

#include "src/cl/strategy.h"

namespace edsr::cl {

class Cassle : public ContinualStrategy {
 public:
  explicit Cassle(const StrategyContext& context)
      : Cassle(context, "cassle", /*keeps_memory=*/false) {}

  bool has_teacher() const { return teacher_active_; }

 protected:
  // For EDSR: CaSSLe under its own name, with a replay buffer.
  Cassle(const StrategyContext& context, std::string name, bool keeps_memory);

  void OnIncrementStart(const data::Task& task) override;
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  std::vector<tensor::Tensor> ExtraParameters() override;
  // Checkpoints the frozen teacher f̃ and the distillation projector p_dis.
  // Restoring their *existence* matters as much as their weights: whether
  // they already exist decides whether OnIncrementStart forks the strategy
  // rng, so a resumed run must match the uninterrupted rng stream exactly.
  void SaveExtra(io::BufferWriter* out) const override;
  util::Status LoadExtra(io::BufferReader* in) override;

  // Frozen-teacher representation of a raw view batch (no gradient flow).
  tensor::Tensor TeacherForward(const tensor::Tensor& view, int64_t head);
  // L_dis: align p_dis(student_z) with the constant target.
  tensor::Tensor DistillLoss(const tensor::Tensor& student_z,
                             const tensor::Tensor& target);

  std::unique_ptr<ssl::Encoder> teacher_;
  std::unique_ptr<nn::Mlp> distill_projector_;  // p_dis
  bool teacher_active_ = false;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_CASSLE_H_
