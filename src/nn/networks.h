// Encoder backbone: Mlp, consuming flat (n, input_dim) batches (images are
// flattened C*H*W rows), so datasets and strategies see one input layout.
#ifndef EDSR_SRC_NN_NETWORKS_H_
#define EDSR_SRC_NN_NETWORKS_H_

#include <vector>

#include "src/nn/layers.h"

namespace edsr::nn {

// Multi-layer perceptron: Linear (+ BatchNorm1d + ReLU) stacks.
// `dims` = {in, hidden..., out}. The final Linear has no activation unless
// `final_activation` is set.
class Mlp : public Module {
 public:
  Mlp(std::vector<int64_t> dims, util::Rng* rng, bool batch_norm = true,
      bool final_activation = false);

  tensor::Tensor Forward(const tensor::Tensor& input) override;
  int64_t input_dim() const { return dims_.front(); }
  int64_t output_dim() const { return dims_.back(); }

 private:
  std::vector<int64_t> dims_;
  Sequential body_;
};

}  // namespace edsr::nn

#endif  // EDSR_SRC_NN_NETWORKS_H_
