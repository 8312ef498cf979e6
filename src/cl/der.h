// DER — Dark Experience Replay (Buzzega et al., NeurIPS'20), the paper's
// memory-based SCL baseline. Randomly stores old samples together with the
// *backbone* output the model produced for them at storage time, and replays
// by matching the current backbone output to the stored one with MSE —
// "its distillation is based on the output from the CNN backbone model
// instead of representations" (paper §IV-A4).
#ifndef EDSR_SRC_CL_DER_H_
#define EDSR_SRC_CL_DER_H_

#include "src/cl/strategy.h"

namespace edsr::cl {

class Der : public ContinualStrategy {
 public:
  explicit Der(const StrategyContext& context);

 protected:
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void OnIncrementEnd(const data::Task& task) override;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_DER_H_
