// Basic layers: Linear, BatchNorm1d.
#ifndef EDSR_SRC_NN_LAYERS_H_
#define EDSR_SRC_NN_LAYERS_H_

#include "src/nn/module.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace edsr::nn {

// Affine map y = xW + b for row-major batches x: (n, in) -> (n, out), as
// one autograd node (tensor::FusedLayer).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng* rng);

  tensor::Tensor Forward(const tensor::Tensor& input) override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  const tensor::Tensor& weight() const { return weight_; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  tensor::Tensor weight_;  // (in, out)
  tensor::Tensor bias_;    // (out)
};

// Batch normalization over feature axis 1 of (n, d) inputs.
// Training mode normalizes with batch statistics and updates running stats;
// eval mode uses the running statistics.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int64_t features, float momentum = 0.1f,
                       float eps = 1e-5f);

  tensor::Tensor Forward(const tensor::Tensor& input) override;
  // Relu(BatchNorm(x · weight + bias)) with this module's parameters and
  // mode, as one autograd node (tensor::FusedLayer); weight and bias may be
  // undefined (normalize x itself) and the ReLU left off. Training mode
  // updates the running statistics as Forward does.
  tensor::Tensor ForwardAfter(const tensor::Tensor& x,
                              const tensor::Tensor& weight,
                              const tensor::Tensor& bias, bool relu);

 private:
  int64_t features_;
  float momentum_;
  float eps_;
  tensor::Tensor gamma_;         // (1, d)
  tensor::Tensor beta_;          // (1, d)
  tensor::Tensor running_mean_;  // (1, d) buffer
  tensor::Tensor running_var_;   // (1, d) buffer
};

}  // namespace edsr::nn

#endif  // EDSR_SRC_NN_LAYERS_H_
