// DER — Dark Experience Replay (Buzzega et al., NeurIPS'20), the paper's
// memory-based SCL baseline. Randomly stores old samples together with the
// *backbone* output the model produced for them at storage time, and replays
// by matching the current backbone output to the stored one with MSE —
// "its distillation is based on the output from the CNN backbone model
// instead of representations" (paper §IV-A4).
#ifndef EDSR_SRC_CL_DER_H_
#define EDSR_SRC_CL_DER_H_

#include <memory>

#include "src/cl/memory.h"
#include "src/cl/retrieval.h"
#include "src/cl/strategy.h"

namespace edsr::cl {

class Der : public ContinualStrategy {
 public:
  explicit Der(const StrategyContext& context);

  const MemoryBuffer& memory() const { return memory_; }

 protected:
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void OnIncrementEnd(const data::Task& task) override;
  // The buffer, including the frozen backbone outputs it distills against.
  MemoryBuffer* ReplayBuffer() override { return &memory_; }
  // The retrieval policy's cross-increment state.
  void SaveExtra(io::BufferWriter* out) const override {
    io::SaveNamedState(*retrieval_, out);
  }
  util::Status LoadExtra(io::BufferReader* in) override {
    return io::LoadNamedState(retrieval_.get(), in);
  }

 private:
  std::unique_ptr<RetrievalPolicy> retrieval_;
  MemoryBuffer memory_;
};

}  // namespace edsr::cl

#endif  // EDSR_SRC_CL_DER_H_
