// Encoder backbone: Mlp, consuming flat (n, input_dim) batches (images are
// flattened C*H*W rows), so datasets and strategies see one input layout.
#ifndef EDSR_SRC_NN_NETWORKS_H_
#define EDSR_SRC_NN_NETWORKS_H_

#include <memory>
#include <vector>

#include "src/nn/layers.h"

namespace edsr::nn {

// Multi-layer perceptron: Linear (+ BatchNorm1d + ReLU) stacks.
// `dims` = {in, hidden..., out}. The final Linear has no activation unless
// `final_activation` is set. The modules are registered as body.layer0,
// body.layer1, ..., one slot per Linear, BatchNorm1d and ReLU (a ReLU holds
// no state, so its slot only advances the count); these names, in this
// order, are the checkpoint layout. Each forward layer is one autograd node
// (tensor::FusedLayer).
class Mlp : public Module {
 public:
  Mlp(std::vector<int64_t> dims, util::Rng* rng, bool batch_norm = true,
      bool final_activation = false);

  tensor::Tensor Forward(const tensor::Tensor& input) override;
  int64_t input_dim() const { return dims_.front(); }
  int64_t output_dim() const { return dims_.back(); }

 private:
  // One forward layer: a Linear, then the BatchNorm1d (or null) and ReLU
  // that follow it.
  struct Layer {
    std::unique_ptr<Linear> linear;
    std::unique_ptr<BatchNorm1d> bn;
    bool relu = false;
  };

  std::vector<int64_t> dims_;
  std::vector<Layer> layers_;
};

}  // namespace edsr::nn

#endif  // EDSR_SRC_NN_NETWORKS_H_
