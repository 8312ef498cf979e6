// SI — Synaptic Intelligence (Zenke et al., ICML'17), the paper's
// regularization-based SCL baseline adapted to the unsupervised loss.
//
// During each increment SI accumulates a per-parameter path integral
// w_k = Σ_steps -g_k · Δθ_k (how much each parameter contributed to lowering
// the loss). At the increment boundary the importance is consolidated:
//   Ω_k += w_k / ((θ_k^end - θ_k^start)² + ξ),
// and subsequent increments add the quadratic penalty
//   c · Σ_k Ω_k (θ_k - θ_k*)²
// to the CSSL objective, anchoring important parameters at θ*.
#ifndef EDSR_SRC_CL_SI_H_
#define EDSR_SRC_CL_SI_H_

#include <vector>

#include "src/cl/strategy.h"

namespace edsr::cl {

class Si : public ContinualStrategy {
 public:
  // One float buffer per tracked encoder parameter (public for the
  // checkpoint helpers in si.cc).
  using BufferList = std::vector<std::vector<float>>;

  explicit Si(const StrategyContext& context);

  // Total consolidated importance (diagnostics/tests).
  double TotalImportance() const;

 protected:
  void OnIncrementStart(const data::Task& task) override;
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void BeforeOptimizerStep() override;
  void AfterOptimizerStep() override;
  void OnIncrementEnd(const data::Task& task) override;
  // Consolidated importance Ω, anchors θ*, and in-flight path integrals.
  void SaveExtra(io::BufferWriter* out) const override;
  util::Status LoadExtra(io::BufferReader* in) override;

 private:
  using Buffers = BufferList;
  void SnapshotInto(Buffers* buffers) const;

  std::vector<tensor::Tensor> tracked_;  // encoder parameters
  Buffers omega_;            // consolidated importance Ω
  Buffers path_integral_;    // w, reset each increment
  Buffers anchor_;           // θ* (end of previous increment)
  Buffers increment_start_;  // θ at OnIncrementStart
  Buffers pre_step_values_;
  Buffers pre_step_grads_;
  bool initialized_ = false;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_SI_H_
