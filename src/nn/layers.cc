#include "src/nn/layers.h"

#include <cmath>

#include "src/nn/init.h"
#include "src/tensor/arena.h"
#include "src/tensor/ops.h"

namespace edsr::nn {

using tensor::Tensor;

// ---- Linear ----------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  EDSR_CHECK_GT(in_features, 0);
  EDSR_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", KaimingUniform({in_features, out_features}, in_features, rng));
  float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
  bias_ = RegisterParameter("bias",
                            Tensor::Rand({out_features}, rng, -bound, bound));
}

Tensor Linear::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 2) << "Linear expects (n, in) input";
  EDSR_CHECK_EQ(input.shape()[1], in_features_);
  return tensor::FusedLayer(input, weight_, bias_, nullptr, /*relu=*/false);
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
  return ForwardAfter(input, Tensor(), Tensor(), /*relu=*/false);
}

Tensor BatchNorm1d::ForwardAfter(const Tensor& x, const Tensor& weight,
                                 const Tensor& bias, bool relu) {
  tensor::BatchNormArgs args;
  args.gamma = gamma_;
  args.beta = beta_;
  args.eps = eps_;
  if (!training()) {
    args.mean = running_mean_;
    args.var = running_var_;
    return tensor::FusedLayer(x, weight, bias, &args, relu);
  }
  tensor::arena::Scope scope;
  args.batch_mean = tensor::arena::AllocFloats(features_);
  args.batch_var = tensor::arena::AllocFloats(features_);
  Tensor out = tensor::FusedLayer(x, weight, bias, &args, relu);
  // Update running statistics outside the graph.
  std::vector<float>& rm = running_mean_.mutable_data();
  std::vector<float>& rv = running_var_.mutable_data();
  for (int64_t i = 0; i < features_; ++i) {
    rm[i] = (1.0f - momentum_) * rm[i] + momentum_ * args.batch_mean[i];
    rv[i] = (1.0f - momentum_) * rv[i] + momentum_ * args.batch_var[i];
  }
  return out;
}

}  // namespace edsr::nn
