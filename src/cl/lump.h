// LUMP (Madaan et al., ICLR'22): stores randomly selected old data and
// replays it by mixing it into the new batch —
//   x̄ = ω x^n + (1-ω) x^m, ω ~ Beta(α, α)   (paper §II-B2)
// then optimizing L_css on the mixed views only.
#ifndef EDSR_SRC_CL_LUMP_H_
#define EDSR_SRC_CL_LUMP_H_

#include "src/cl/strategy.h"

namespace edsr::cl {

class Lump : public ContinualStrategy {
 public:
  explicit Lump(const StrategyContext& context);

 protected:
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void OnIncrementEnd(const data::Task& task) override;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_LUMP_H_
