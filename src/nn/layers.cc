#include "src/nn/layers.h"

#include <cmath>

#include "src/nn/init.h"
#include "src/tensor/arena.h"
#include "src/tensor/ops.h"

namespace edsr::nn {

using tensor::Tensor;

// ---- Linear ----------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng* rng,
               bool bias)
    : in_features_(in_features), out_features_(out_features) {
  EDSR_CHECK_GT(in_features, 0);
  EDSR_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", KaimingUniform({in_features, out_features}, in_features, rng));
  if (bias) {
    float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
    bias_ = RegisterParameter(
        "bias", Tensor::Rand({out_features}, rng, -bound, bound));
  }
}

Tensor Linear::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 2) << "Linear expects (n, in) input";
  EDSR_CHECK_EQ(input.shape()[1], in_features_);
  Tensor out = tensor::MatMul(input, weight_);
  if (bias_.defined()) out = out + bias_;
  return out;
}

// ---- Conv2dLayer --------------------------------------------------------------

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kernel, int64_t stride, int64_t padding,
                         util::Rng* rng, bool bias)
    : spec_{stride, padding} {
  int64_t fan_in = in_channels * kernel * kernel;
  weight_ = RegisterParameter(
      "weight",
      KaimingUniform({out_channels, in_channels, kernel, kernel}, fan_in, rng));
  if (bias) {
    float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
    bias_ = RegisterParameter(
        "bias", Tensor::Rand({out_channels}, rng, -bound, bound));
  }
}

Tensor Conv2dLayer::Forward(const Tensor& input) {
  return tensor::Conv2d(input, weight_, bias_, spec_);
}

// ---- BatchNorm1d -----------------------------------------------------------------

BatchNorm1d::BatchNorm1d(int64_t features, float momentum, float eps)
    : features_(features), momentum_(momentum), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({1, features}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({1, features}));
  running_mean_ = RegisterBuffer("running_mean", Tensor::Zeros({1, features}));
  running_var_ = RegisterBuffer("running_var", Tensor::Ones({1, features}));
}

Tensor BatchNorm1d::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 2);
  EDSR_CHECK_EQ(input.shape()[1], features_);
  if (!training()) {
    return tensor::BatchNormEval(input, gamma_, beta_, running_mean_,
                                 running_var_, eps_);
  }
  tensor::arena::Scope scope;
  float* mean = tensor::arena::AllocFloats(features_);
  float* var = tensor::arena::AllocFloats(features_);
  Tensor out = tensor::BatchNormTrain(input, gamma_, beta_, eps_, mean, var);
  // Update running statistics outside the graph.
  std::vector<float>& rm = running_mean_.mutable_data();
  std::vector<float>& rv = running_var_.mutable_data();
  for (int64_t i = 0; i < features_; ++i) {
    rm[i] = (1.0f - momentum_) * rm[i] + momentum_ * mean[i];
    rv[i] = (1.0f - momentum_) * rv[i] + momentum_ * var[i];
  }
  return out;
}

// ---- BatchNorm2d ---------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({1, channels, 1, 1}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({1, channels, 1, 1}));
  running_mean_ =
      RegisterBuffer("running_mean", Tensor::Zeros({1, channels, 1, 1}));
  running_var_ =
      RegisterBuffer("running_var", Tensor::Ones({1, channels, 1, 1}));
}

Tensor BatchNorm2d::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 4);
  EDSR_CHECK_EQ(input.shape()[1], channels_);
  if (training()) {
    // Mean/var over batch and spatial axes, keeping (1, c, 1, 1).
    Tensor mean = tensor::Mean(
        tensor::Mean(tensor::Mean(input, 3, true), 2, true), 0, true);
    Tensor sq = tensor::Square(input - mean);
    Tensor var =
        tensor::Mean(tensor::Mean(tensor::Mean(sq, 3, true), 2, true), 0, true);
    const std::vector<float>& m = mean.data();
    const std::vector<float>& v = var.data();
    std::vector<float>& rm = running_mean_.mutable_data();
    std::vector<float>& rv = running_var_.mutable_data();
    for (int64_t i = 0; i < channels_; ++i) {
      rm[i] = (1.0f - momentum_) * rm[i] + momentum_ * m[i];
      rv[i] = (1.0f - momentum_) * rv[i] + momentum_ * v[i];
    }
    Tensor xhat = (input - mean) / tensor::Sqrt(var + eps_);
    return xhat * gamma_ + beta_;
  }
  Tensor xhat = (input - running_mean_) / tensor::Sqrt(running_var_ + eps_);
  return xhat * gamma_ + beta_;
}

// ---- ReLU / Sequential ----------------------------------------------------------------

Tensor ReluLayer::Forward(const Tensor& input) { return tensor::Relu(input); }

Tensor Sequential::Forward(const Tensor& input) {
  Tensor out = input;
  for (auto& layer : layers_) out = layer->Forward(out);
  return out;
}

}  // namespace edsr::nn
