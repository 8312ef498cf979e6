#include "src/optim/optimizer.h"

#include <cmath>

#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace edsr::optim {

Optimizer::Optimizer(std::vector<tensor::Tensor> parameters, float lr)
    : parameters_(std::move(parameters)), lr_(lr) {
  for (const tensor::Tensor& p : parameters_) {
    EDSR_CHECK(p.defined()) << "undefined parameter passed to optimizer";
  }
}

void Optimizer::ZeroGrad() {
  for (tensor::Tensor& p : parameters_) p.ZeroGrad();
}

void Optimizer::Serialize(io::BufferWriter* out) const {
  out->WriteString(kind());
  out->WriteF32(lr_);
  out->WriteU64(parameters_.size());
}

util::Status Optimizer::Deserialize(io::BufferReader* in) {
  std::string kind_tag;
  EDSR_RETURN_NOT_OK(in->ReadString(&kind_tag));
  if (kind_tag != kind()) {
    return util::Status::InvalidArgument("optimizer kind mismatch: expected " +
                                         kind() + ", payload has " + kind_tag);
  }
  float lr = 0.0f;
  EDSR_RETURN_NOT_OK(in->ReadF32(&lr));
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&count));
  if (count != parameters_.size()) {
    return util::Status::InvalidArgument(
        "optimizer parameter count mismatch: have " +
        std::to_string(parameters_.size()) + ", payload has " +
        std::to_string(count));
  }
  lr_ = lr;
  return util::Status::OK();
}

void Optimizer::WriteMoments(
    io::BufferWriter* out,
    const std::vector<std::vector<float>>& moments) const {
  for (const std::vector<float>& m : moments) out->WriteFloats(m);
}

util::Status Optimizer::ReadMoments(
    io::BufferReader* in, std::vector<std::vector<float>>* out) const {
  std::vector<std::vector<float>> staged(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    EDSR_RETURN_NOT_OK(in->ReadFloats(&staged[i]));
    if (static_cast<int64_t>(staged[i].size()) != parameters_[i].numel()) {
      return util::Status::InvalidArgument(
          "moment buffer size mismatch for parameter " + std::to_string(i));
    }
  }
  *out = std::move(staged);
  return util::Status::OK();
}

Sgd::Sgd(std::vector<tensor::Tensor> parameters, const SgdOptions& options)
    : Optimizer(std::move(parameters), options.lr), options_(options) {
  velocity_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    velocity_[i].assign(parameters_[i].numel(), 0.0f);
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < parameters_.size(); ++i) {
    tensor::Tensor& p = parameters_[i];
    if (p.grad().empty()) continue;  // parameter untouched this step
    tensor::kernels::SgdMomentumStep(
        p.numel(), lr_, options_.momentum, options_.weight_decay,
        p.grad().data(), velocity_[i].data(), p.mutable_data().data());
  }
}

void Sgd::Serialize(io::BufferWriter* out) const {
  Optimizer::Serialize(out);
  WriteMoments(out, velocity_);
}

util::Status Sgd::Deserialize(io::BufferReader* in) {
  EDSR_RETURN_NOT_OK(Optimizer::Deserialize(in));
  return ReadMoments(in, &velocity_);
}

Adam::Adam(std::vector<tensor::Tensor> parameters, const AdamOptions& options)
    : Optimizer(std::move(parameters), options.lr) {
  m_.resize(parameters_.size());
  v_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    m_[i].assign(parameters_[i].numel(), 0.0f);
    v_[i].assign(parameters_[i].numel(), 0.0f);
  }
}

void Adam::Step() {
  // Moment decay rates and the denominator guard (Kingma & Ba's defaults),
  // and no weight decay.
  constexpr float kBeta1 = 0.9f;
  constexpr float kBeta2 = 0.999f;
  constexpr float kEps = 1e-8f;
  constexpr float kWeightDecay = 0.0f;
  ++t_;
  float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t i = 0; i < parameters_.size(); ++i) {
    tensor::Tensor& p = parameters_[i];
    if (p.grad().empty()) continue;
    tensor::kernels::AdamStep(p.numel(), lr_, kBeta1, kBeta2, kEps,
                              kWeightDecay, bc1, bc2,
                              p.grad().data(), m_[i].data(), v_[i].data(),
                              p.mutable_data().data());
  }
}

void Adam::Serialize(io::BufferWriter* out) const {
  Optimizer::Serialize(out);
  out->WriteI64(t_);
  WriteMoments(out, m_);
  WriteMoments(out, v_);
}

util::Status Adam::Deserialize(io::BufferReader* in) {
  EDSR_RETURN_NOT_OK(Optimizer::Deserialize(in));
  int64_t t = 0;
  EDSR_RETURN_NOT_OK(in->ReadI64(&t));
  if (t < 0) return util::Status::IoError("negative Adam step count");
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
  EDSR_RETURN_NOT_OK(ReadMoments(in, &m));
  EDSR_RETURN_NOT_OK(ReadMoments(in, &v));
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
  return util::Status::OK();
}

double ClipGradNorm(const std::vector<tensor::Tensor>& parameters,
                    double max_norm) {
  EDSR_CHECK_GT(max_norm, 0.0);
  double total = 0.0;
  for (const tensor::Tensor& p : parameters) {
    total += tensor::kernels::SumSquares(
        static_cast<int64_t>(p.grad().size()), p.grad().data());
  }
  double norm = std::sqrt(total);
  if (norm > max_norm) {
    float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (const tensor::Tensor& p : parameters) {
      auto& grad = const_cast<tensor::Tensor&>(p).mutable_grad();
      tensor::kernels::Scale(static_cast<int64_t>(grad.size()), scale,
                             grad.data());
    }
  }
  return norm;
}

}  // namespace edsr::optim
