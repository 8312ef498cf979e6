#include "src/nn/networks.h"

#include "src/tensor/ops.h"

namespace edsr::nn {

using tensor::Tensor;

Mlp::Mlp(std::vector<int64_t> dims, util::Rng* rng, bool batch_norm,
         bool final_activation)
    : dims_(std::move(dims)) {
  EDSR_CHECK_GE(dims_.size(), 2u) << "Mlp needs at least {in, out}";
  RegisterModule("body", &body_);
  for (size_t i = 0; i + 1 < dims_.size(); ++i) {
    bool last = i + 2 == dims_.size();
    body_.Add<Linear>(dims_[i], dims_[i + 1], rng, /*bias=*/true);
    if (!last || final_activation) {
      if (batch_norm) body_.Add<BatchNorm1d>(dims_[i + 1]);
      body_.Add<ReluLayer>();
    }
  }
}

Tensor Mlp::Forward(const Tensor& input) { return body_.Forward(input); }

}  // namespace edsr::nn
