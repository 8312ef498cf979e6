#include "src/nn/networks.h"

#include <string>

#include "src/tensor/ops.h"

namespace edsr::nn {

using tensor::Tensor;

Mlp::Mlp(std::vector<int64_t> dims, util::Rng* rng, bool batch_norm,
         bool final_activation)
    : dims_(std::move(dims)) {
  EDSR_CHECK_GE(dims_.size(), 2u) << "Mlp needs at least {in, out}";
  int slot = 0;  // body.layerN: one slot per Linear, BatchNorm1d and ReLU
  auto add = [&](Module* module) {
    RegisterModule("body.layer" + std::to_string(slot++), module);
  };
  for (size_t i = 0; i + 1 < dims_.size(); ++i) {
    bool last = i + 2 == dims_.size();
    Layer layer;
    layer.linear = std::make_unique<Linear>(dims_[i], dims_[i + 1], rng);
    add(layer.linear.get());
    if (!last || final_activation) {
      if (batch_norm) {
        layer.bn = std::make_unique<BatchNorm1d>(dims_[i + 1]);
        add(layer.bn.get());
      }
      ++slot;  // the ReLU's slot: it holds no state
      layer.relu = true;
    }
    layers_.push_back(std::move(layer));
  }
}

Tensor Mlp::Forward(const Tensor& input) {
  EDSR_CHECK_EQ(input.dim(), 2) << "Mlp expects (n, in) input";
  EDSR_CHECK_EQ(input.shape()[1], input_dim());
  Tensor out = input;
  for (const Layer& layer : layers_) {
    const Tensor& w = layer.linear->weight();
    const Tensor& b = layer.linear->bias();
    out = layer.bn != nullptr
              ? layer.bn->ForwardAfter(out, w, b, layer.relu)
              : tensor::FusedLayer(out, w, b, nullptr, layer.relu);
  }
  return out;
}

}  // namespace edsr::nn
