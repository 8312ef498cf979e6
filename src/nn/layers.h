// Basic layers: Linear, BatchNorm1d, ReLU, Sequential.
#ifndef EDSR_SRC_NN_LAYERS_H_
#define EDSR_SRC_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace edsr::nn {

// Affine map y = xW + b for row-major batches x: (n, in) -> (n, out).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng* rng,
         bool bias = true);

  tensor::Tensor Forward(const tensor::Tensor& input) override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  tensor::Tensor weight_;  // (in, out)
  tensor::Tensor bias_;    // (out) or undefined
};

// Batch normalization over feature axis 1 of (n, d) inputs.
// Training mode normalizes with batch statistics and updates running stats;
// eval mode uses the running statistics.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int64_t features, float momentum = 0.1f,
                       float eps = 1e-5f);

  tensor::Tensor Forward(const tensor::Tensor& input) override;

 private:
  int64_t features_;
  float momentum_;
  float eps_;
  tensor::Tensor gamma_;         // (1, d)
  tensor::Tensor beta_;          // (1, d)
  tensor::Tensor running_mean_;  // (1, d) buffer
  tensor::Tensor running_var_;   // (1, d) buffer
};

class ReluLayer : public Module {
 public:
  tensor::Tensor Forward(const tensor::Tensor& input) override;
};

// Owning container applying children in order.
class Sequential : public Module {
 public:
  Sequential() = default;

  // Appends a layer; returns a raw observer pointer.
  template <typename M, typename... Args>
  M* Add(Args&&... args) {
    auto layer = std::make_unique<M>(std::forward<Args>(args)...);
    M* raw = layer.get();
    RegisterModule("layer" + std::to_string(layers_.size()), raw);
    layers_.push_back(std::move(layer));
    return raw;
  }

  tensor::Tensor Forward(const tensor::Tensor& input) override;

  size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace edsr::nn

#endif  // EDSR_SRC_NN_LAYERS_H_
