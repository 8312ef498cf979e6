#include "src/ssl/encoder.h"

#include "src/tensor/ops.h"

namespace edsr::ssl {

Encoder::Encoder(const EncoderConfig& config, util::Rng* rng)
    : config_(config) {
  backbone_ = std::make_unique<nn::Mlp>(config.mlp_dims, rng,
                                        /*batch_norm=*/true,
                                        /*final_activation=*/true);
  RegisterModule("backbone", backbone_.get());

  for (size_t h = 0; h < config.input_head_dims.size(); ++h) {
    auto head = std::make_unique<nn::Linear>(config.input_head_dims[h],
                                             backbone_->input_dim(), rng);
    RegisterModule("head" + std::to_string(h), head.get());
    input_heads_.push_back(std::move(head));
  }

  projector_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{backbone_->output_dim(), config.projector_hidden,
                           config.representation_dim},
      rng);
  RegisterModule("projector", projector_.get());
}

std::unique_ptr<Encoder> Encoder::Make(const EncoderConfig& config,
                                       util::Rng* rng) {
  return std::make_unique<Encoder>(config, rng);
}

tensor::Tensor Encoder::ForwardBackbone(const tensor::Tensor& input) {
  tensor::Tensor x = input;
  if (!input_heads_.empty()) {
    EDSR_CHECK(active_head_ >= 0 &&
               active_head_ < static_cast<int64_t>(input_heads_.size()));
    x = tensor::Relu(input_heads_[active_head_]->Forward(x));
  }
  return backbone_->Forward(x);
}

tensor::Tensor Encoder::Forward(const tensor::Tensor& input) {
  return projector_->Forward(ForwardBackbone(input));
}

void Encoder::SetActiveHead(int64_t head) {
  EDSR_CHECK(!input_heads_.empty())
      << "SetActiveHead on an encoder without input heads";
  EDSR_CHECK(head >= 0 && head < static_cast<int64_t>(input_heads_.size()));
  active_head_ = head;
}

}  // namespace edsr::ssl
