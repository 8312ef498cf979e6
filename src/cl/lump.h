// LUMP (Madaan et al., ICLR'22): stores randomly selected old data and
// replays it by mixing it into the new batch —
//   x̄ = ω x^n + (1-ω) x^m, ω ~ Beta(α, α)   (paper §II-B2)
// then optimizing L_css on the mixed views only.
#ifndef EDSR_SRC_CL_LUMP_H_
#define EDSR_SRC_CL_LUMP_H_

#include <memory>

#include "src/cl/memory.h"
#include "src/cl/retrieval.h"
#include "src/cl/strategy.h"

namespace edsr::cl {

class Lump : public ContinualStrategy {
 public:
  explicit Lump(const StrategyContext& context);

  const MemoryBuffer& memory() const { return memory_; }

 protected:
  tensor::Tensor ComputeBatchLoss(const data::Task& task,
                                  const std::vector<int64_t>& indices,
                                  const tensor::Tensor& view1,
                                  const tensor::Tensor& view2) override;
  void OnIncrementEnd(const data::Task& task) override;
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

#endif  // EDSR_SRC_CL_LUMP_H_
