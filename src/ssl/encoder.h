// Encoder f(.): backbone + projector producing the representation z = f(x).
//
// The paper's image encoder is "a concatenation of a ResNet-18 model and a
// 2-layer MLP"; the tabular encoder is a 7-layer MLP whose *first layer is
// data-specific* to unify heterogeneous input dimensions. Both shapes are
// covered here:
//   * an Mlp backbone (over flattened C*H*W rows for images: the ResNet-18
//     substitute, DESIGN.md §2), plus an optional set of per-increment
//     input heads (Linear) selected with SetActiveHead().
// Encoders are created via a config so a structurally identical twin (the
// frozen distillation teacher f~) can be built and CopyStateFrom'd.
#ifndef EDSR_SRC_SSL_ENCODER_H_
#define EDSR_SRC_SSL_ENCODER_H_

#include <memory>
#include <vector>

#include "src/nn/networks.h"

namespace edsr::ssl {

struct EncoderConfig {
  // Backbone: {input, hidden..., feature} widths.
  std::vector<int64_t> mlp_dims = {192, 64, 64};

  // Projector: feature -> projector_hidden -> representation_dim.
  int64_t projector_hidden = 64;
  int64_t representation_dim = 32;

  // Heterogeneous-input mode (tabular): per-increment input dims, each mapped
  // by its own Linear head onto the backbone input width. Empty = disabled.
  std::vector<int64_t> input_head_dims;
};

class Encoder : public nn::Module {
 public:
  Encoder(const EncoderConfig& config, util::Rng* rng);

  // Builds an encoder; use twice with independent rngs to get teacher twins.
  static std::unique_ptr<Encoder> Make(const EncoderConfig& config,
                                       util::Rng* rng);

  tensor::Tensor Forward(const tensor::Tensor& input) override;

  // Backbone features before the projector (DER distills on these).
  tensor::Tensor ForwardBackbone(const tensor::Tensor& input);

  // Selects the input head for heterogeneous-input encoders.
  void SetActiveHead(int64_t head);
  int64_t active_head() const { return active_head_; }
  bool has_input_heads() const { return !input_heads_.empty(); }

  int64_t representation_dim() const {
    return config_.representation_dim;
  }
  // Width of the flat input rows Forward expects: the active head's input
  // dimension for heterogeneous encoders, otherwise the backbone's.
  int64_t input_dim() const {
    if (!input_heads_.empty()) return config_.input_head_dims[active_head_];
    return backbone_->input_dim();
  }
  const EncoderConfig& config() const { return config_; }

 private:
  EncoderConfig config_;
  std::vector<std::unique_ptr<nn::Linear>> input_heads_;
  std::unique_ptr<nn::Mlp> backbone_;
  std::unique_ptr<nn::Mlp> projector_;
  int64_t active_head_ = 0;
};

}  // namespace edsr::ssl

#endif  // EDSR_SRC_SSL_ENCODER_H_
